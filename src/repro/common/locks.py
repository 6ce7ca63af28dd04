"""Cross-process file locks for the content-addressed stores.

The artifact cache and the run registry are written by many processes
at once (the parallel runner's pool, the experiment service's workers,
concurrent CLI invocations).  Readers stay lock-free — every payload is
published with an atomic rename, so a reader either sees a complete
file or no file.  Writers and pruners coordinate through ``O_EXCL``
lockfiles so two processes never interleave a read-modify-write (LRU
eviction, budget accounting) on the same key range.

Design points:

- **Lockfile = ``os.open(path, O_CREAT | O_EXCL)``** — the only
  primitive that is atomic on every POSIX filesystem (including NFS
  for practical purposes) without fcntl ranges, which do not survive
  ``fork`` + ``ProcessPoolExecutor`` cleanly.
- **Stale breaking** — a holder that died leaves its lockfile behind;
  any waiter may break a lock whose mtime is older than
  ``stale_after`` seconds.  Holders are short-lived (one atomic write
  or one prune pass), so the default window is generous.
- **Best-effort callers** — the stores treat lock acquisition failure
  as "proceed unlocked": payload writes are individually atomic, so
  the worst case is duplicated work, never corruption.  Only the
  pruners *require* the lock (they skip the pass instead), because
  concurrent eviction is the one genuinely racy read-modify-write.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Union


class LockTimeout(OSError):
    """Raised by :meth:`FileLock.acquire` when the wait budget runs out."""


class FileLock:
    """An ``O_EXCL`` lockfile with stale-holder breaking.

    Usable as a context manager (blocking acquire with ``timeout``) or
    via :meth:`try_acquire` for non-blocking "skip if busy" callers.
    Re-entrant it is not; one instance guards one acquire/release pair.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        timeout: float = 10.0,
        stale_after: float = 30.0,
        poll: float = 0.005,
    ):
        self.path = Path(path)
        self.timeout = timeout
        self.stale_after = stale_after
        self.poll = poll
        self._held = False

    # -- core ------------------------------------------------------------
    def _try_create(self) -> bool:
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except FileNotFoundError:
            # Parent directory vanished (or never existed): create and
            # retry once; a second FileNotFoundError propagates.  A racing
            # process may take the lock between the mkdir and the retry.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        self._held = True
        return True

    def _break_stale(self) -> None:
        """Unlink the lockfile if its holder looks dead (old mtime)."""
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return  # gone already — the holder released it
        if age > self.stale_after:
            try:
                self.path.unlink()
            except OSError:
                pass  # a racing waiter broke it first

    def try_acquire(self) -> bool:
        """One non-blocking attempt; True when the lock is now held."""
        if self._try_create():
            return True
        self._break_stale()
        return self._try_create()

    def acquire(self, timeout: Optional[float] = None) -> "FileLock":
        """Block (polling) until held; :class:`LockTimeout` on expiry."""
        budget = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        delay = self.poll
        while True:
            if self._try_create():
                return self
            self._break_stale()
            if time.monotonic() >= deadline:
                raise LockTimeout(f"could not acquire {self.path}")
            time.sleep(delay)
            delay = min(delay * 2, 0.1)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except OSError:
            pass  # broken as stale by a waiter; nothing left to release

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


def store_lock(root: Union[str, os.PathLike], name: str,
               **kwargs) -> FileLock:
    """The lock guarding one key range of a store rooted at ``root``.

    Lockfiles live under ``<root>/.locks/`` so a store directory stays
    human-listable (`ls` shows artifacts, not lock litter) and pruners
    can glob payload files without excluding lock names.
    """
    return FileLock(Path(root) / ".locks" / f"{name}.lock", **kwargs)
