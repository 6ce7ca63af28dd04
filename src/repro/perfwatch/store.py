"""Durable perf-history store: append-only JSONL of measurement sessions.

One line per **session** — a batch of performance samples measured
together (a benchmark run, one CLI invocation's durations, a service
lifetime, one ``/v1/metrics`` scrape).  Each line carries the full
provenance the trend analysis needs:

- ``session`` — a content hash over (source, timestamp, scale, metrics),
  so re-ingesting the same measurement is idempotent: the store skips
  sessions it already holds instead of duplicating the trajectory.
- ``git`` / ``host`` / ``config`` — where the numbers came from: the
  repo SHA, the machine, and a fingerprint of the active
  :class:`~repro.common.config.RuntimeConfig` (two runs with different
  cache/batch toggles are different operating points, not noise).
- ``metrics`` — flat ``family/path -> float`` samples, the same path
  grammar the fidelity layer uses (``bench/...``, ``run/...``,
  ``span/...``, ``service/...``).

Appends hold a cross-process :class:`~repro.common.locks.FileLock`
(``<history>.lock``) around read-check + append-write, so concurrent
benchmark sessions and CI jobs interleave whole lines, never bytes.
Reads are lock-free: a reader sees complete lines plus at most one
truncated final line (a writer killed mid-append), which is skipped the
same way :func:`repro.telemetry.parse_trace` forgives torn tails.

The schema is versioned (``"v"`` on every line); a line carrying an
unknown version is a hard error, not a silent skip — mixing schemas in
a statistics pipeline corrupts the baseline quietly, which is exactly
what this subsystem exists to prevent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import socket
import subprocess
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.common.locks import FileLock, LockTimeout

#: Bump when the line shape changes; readers refuse unknown versions.
SCHEMA_VERSION = 1

#: Session sources the ingesters emit (free-form strings are allowed;
#: these are the ones the bundled ingesters use).
KNOWN_SOURCES = ("bench", "run", "service", "trace", "scrape", "synthetic")


def _git_sha() -> str:
    """Current repo SHA (12 hex), or "" when not in a repo/CI env."""
    sha = os.environ.get("GITHUB_SHA", "").strip()
    if sha:
        return sha[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def config_fingerprint() -> str:
    """8-hex digest of the active RuntimeConfig.

    Two sessions measured under different toggles (cache off, another
    trace budget or chunk size) are different operating points; the
    fingerprint lets the analysis layer keep them apart without storing
    the whole config on every line.
    """
    from repro.common.config import config

    payload = json.dumps(
        dataclasses.asdict(config()), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


def environment_tags() -> Dict[str, str]:
    """Provenance tags for a session measured *here and now*."""
    return {
        "git": _git_sha(),
        "host": socket.gethostname(),
        "config": config_fingerprint(),
    }


@dataclasses.dataclass
class SessionRecord:
    """One measurement session: tagged batch of ``metric -> value``.

    ``ts`` is an ISO-8601 wall-clock string (provenance and ordering
    hint; the store's append order is the authoritative sequence).
    ``session`` is filled by :meth:`stamp` as a content hash, so
    identical measurements hash identically wherever they are ingested.
    """

    source: str
    metrics: Dict[str, float]
    ts: str = ""
    scale: str = ""
    git: str = ""
    host: str = ""
    config: str = ""
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    session: str = ""

    def content_key(self) -> str:
        payload = json.dumps(
            {
                "source": self.source,
                "ts": self.ts,
                "scale": self.scale,
                "metrics": {k: self.metrics[k]
                            for k in sorted(self.metrics)},
            },
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def stamp(self, tags: Optional[Dict[str, str]] = None) -> "SessionRecord":
        """Fill ``session`` (always), ``ts`` if empty, and env tags."""
        if not self.ts:
            self.ts = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        if tags:
            self.git = self.git or tags.get("git", "")
            self.host = self.host or tags.get("host", "")
            self.config = self.config or tags.get("config", "")
        self.session = self.content_key()
        return self

    def to_line(self) -> str:
        body: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "session": self.session,
            "ts": self.ts,
            "source": self.source,
            "scale": self.scale,
            "git": self.git,
            "host": self.host,
            "config": self.config,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }
        if self.meta:
            body["meta"] = self.meta
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, body: Dict[str, Any]) -> "SessionRecord":
        return cls(
            source=str(body.get("source", "")),
            metrics={str(k): float(v)
                     for k, v in (body.get("metrics") or {}).items()},
            ts=str(body.get("ts", "")),
            scale=str(body.get("scale", "")),
            git=str(body.get("git", "")),
            host=str(body.get("host", "")),
            config=str(body.get("config", "")),
            meta=dict(body.get("meta") or {}),
            session=str(body.get("session", "")),
        )


class PerfHistory:
    """An append-only JSONL trajectory of :class:`SessionRecord` lines.

    Construction touches nothing on disk; a missing file reads as an
    empty history.  ``append`` is idempotent per session id and safe
    under concurrent cross-process writers (see module docstring).
    """

    def __init__(self, path: Union[str, os.PathLike],
                 lock_timeout: float = 10.0):
        self.path = pathlib.Path(path)
        self.lock_timeout = lock_timeout

    def _lock(self) -> FileLock:
        return FileLock(self.path.with_name(self.path.name + ".lock"),
                        timeout=self.lock_timeout)

    # -- reading ---------------------------------------------------------
    def sessions(self) -> List[SessionRecord]:
        """Every session, in append (trajectory) order.

        Raises ``ValueError`` on an unknown schema version or a
        malformed line anywhere but the very end of the file (one torn
        final line — a writer killed mid-append — is forgiven).
        """
        if not self.path.is_file():
            return []
        lines = self.path.read_text(encoding="utf-8").splitlines()
        numbered = [(i, l.strip()) for i, l in enumerate(lines, 1)
                    if l.strip()]
        out: List[SessionRecord] = []
        for pos, (lineno, line) in enumerate(numbered):
            last = pos == len(numbered) - 1
            try:
                body = json.loads(line)
            except ValueError:
                if last:
                    break  # torn tail: writer died mid-append
                raise ValueError(
                    f"{self.path}:{lineno}: malformed perf-history line"
                ) from None
            if body.get("v") != SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path}:{lineno}: schema version "
                    f"{body.get('v')!r}, expected {SCHEMA_VERSION}"
                )
            out.append(SessionRecord.from_dict(body))
        # A lock-timeout append may have raced a duplicate line in;
        # first occurrence wins so the trajectory order is stable.
        seen: set = set()
        unique = []
        for record in out:
            if record.session in seen:
                continue
            seen.add(record.session)
            unique.append(record)
        return unique

    def session_ids(self) -> List[str]:
        return [s.session for s in self.sessions()]

    def series(
        self, prefix: Optional[str] = None
    ) -> Dict[str, List[Tuple[SessionRecord, float]]]:
        """Per-metric sample series, in trajectory order.

        ``prefix`` restricts to metric paths starting with it (a family
        like ``bench/`` or a single full path).
        """
        out: Dict[str, List[Tuple[SessionRecord, float]]] = {}
        for record in self.sessions():
            for metric in sorted(record.metrics):
                if prefix is not None and not metric.startswith(prefix):
                    continue
                out.setdefault(metric, []).append(
                    (record, record.metrics[metric])
                )
        return out

    # -- writing ---------------------------------------------------------
    def append(self, record: SessionRecord) -> bool:
        """Append one session; False when its id is already present.

        The dedup check and the write happen under the history lock, so
        two processes ingesting the same measurement race to one line.
        On lock timeout the append proceeds unlocked — a duplicated
        session is a smaller failure than a lost one, and the analysis
        layer dedups by session id anyway.
        """
        return self.append_many([record]) == 1

    def append_many(self, records: Iterable[SessionRecord]) -> int:
        """Append several sessions under one lock hold; returns #written."""
        pending = []
        for record in records:
            if not record.session:
                record.stamp()
            pending.append(record)
        if not pending:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock = self._lock()
        try:
            lock.acquire()
        except LockTimeout:
            pass
        try:
            seen = set(self.session_ids())
            written = 0
            with open(self.path, "a", encoding="utf-8") as fh:
                for record in pending:
                    if record.session in seen:
                        continue
                    fh.write(record.to_line() + "\n")
                    seen.add(record.session)
                    written += 1
                fh.flush()
                os.fsync(fh.fileno())
            return written
        finally:
            lock.release()
