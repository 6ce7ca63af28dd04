"""Cross-process file locks and the one write path of the file stores.

The artifact cache, the run registry and the service's exemplar files
are written by many processes at once (the parallel runner's pool, the
experiment service's workers, concurrent CLI invocations).  All of them
publish through :func:`publish` and prune through :func:`evict_lru`.
Readers stay lock-free — every payload is published with an atomic
rename, so a reader either sees a complete file or no file.  Writers
and pruners coordinate through ``O_EXCL`` lockfiles so two processes
never interleave a read-modify-write (LRU eviction, budget accounting)
on the same key range.

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
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro import telemetry


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


def publish(path: Union[str, os.PathLike],
            write_fn: Callable[[str], None], locked: bool = True) -> Path:
    """Write one store file atomically; ``write_fn(tmp)`` fills it.

    The temp file lives in the same directory (so the rename is atomic
    on one filesystem) and keeps the final suffix (``np.savez`` appends
    ``.npz`` to anything else); its ``.tmp.`` infix keeps it out of
    every store scan.  A per-key-prefix lock (the first two characters
    after the name's last ``-``, a content hash in every store)
    serializes same-range writers and fences the pruner; on timeout the
    write proceeds unlocked — the rename keeps it atomic, the lock only
    avoids duplicate temp-file churn.  ``locked=False`` skips the lock
    for a lone file outside any store (a ``--save-baseline`` target),
    so no ``.locks/`` directory appears beside it.  On any failure the
    temp file is removed, the lock released and the previous file left
    in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    shard = path.stem.rsplit("-", 1)[-1][:2] or "00"
    lock = store_lock(path.parent, f"w-{shard}")
    try:
        if locked:
            lock.acquire()
    except LockTimeout:
        telemetry.count("store.lock.timeout")
    try:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem + ".tmp.", suffix=path.suffix
        )
        os.close(fd)
        try:
            write_fn(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    finally:
        lock.release()
    return path


def evict_lru(root: Union[str, os.PathLike], globs: Iterable[str],
              max_entries: int, max_bytes: int, lock_name: str) -> int:
    """Unlink the least-recently-used files of a store past its budget.

    Files matching ``globs`` under ``root`` are ranked by mtime, newest
    first; the newest always survives, so a just-written file cannot
    evict itself.  A budget of 0 is unbounded.  Single-flight: if
    another process holds the ``lock_name`` prune lock the pass is
    skipped (it is doing the same work).  Each candidate is re-stat'ed
    before its unlink — one that vanished is skipped, and one whose
    mtime advanced since the scan was just *used* by a reader, so it is
    spared this round.  Returns the number of files removed.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    lock = store_lock(root, lock_name)
    if not lock.try_acquire():
        return 0
    try:
        entries = []
        try:
            for pattern in globs:
                for p in root.glob(pattern):
                    if ".tmp." in p.name:
                        continue  # in-flight write, not a payload
                    try:
                        st = p.stat()
                    except OSError:
                        continue
                    entries.append((st.st_mtime, st.st_size, p))
        except OSError:
            return 0
        entries.sort(key=lambda e: e[0], reverse=True)
        total = 0
        evicted = 0
        for kept, (mtime, size, p) in enumerate(entries, start=1):
            total += size
            if kept == 1 or ((not max_entries or kept <= max_entries)
                             and (not max_bytes or total <= max_bytes)):
                continue
            try:
                if p.stat().st_mtime > mtime:
                    continue  # touched since the scan: recently used
                p.unlink()
            except OSError:
                continue  # already gone — nothing to evict
            evicted += 1
        return evicted
    finally:
        lock.release()
