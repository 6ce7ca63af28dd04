"""The per-block GPU oracle, swapped in for the batch engine.

``GPU.launch`` runs every launch through one module-level name,
``repro.gpusim.gpu.run_blocks`` (the block-batched engine).
:func:`scalar_oracle` patches that name, so a test runs the same launch
on the per-block reference semantics (``BlockCtx``, one call per block)
and compares; a GPU built inside it also gets :class:`WalkCache`
texture and constant caches, so its cache hits come from the per-access
LRU walk while the batch engine's come from the LRU kernel.
:func:`batch_lanes` shrinks the engine's lane budget so a launch spans
several passes.  Both are plain context managers: hypothesis tests
cannot use the function-scoped ``monkeypatch`` fixture.
"""

import contextlib
from unittest import mock

from repro.cpusim.cache import lru_walk_scalar
from repro.gpusim import batch, gpu
from repro.gpusim.dsl import run_blocks_scalar
from repro.gpusim.memory import CacheModel


class _Walk:
    """Stands in for a cache's ``SetLRU``: the per-access walk."""

    def __init__(self, assoc):
        self.assoc = assoc
        self.state = {}

    def access(self, lines, sets):
        return lru_walk_scalar(lines, sets, self.assoc, self.state)


class WalkCache(CacheModel):
    """A :class:`CacheModel` whose accesses take the per-access walk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lru = _Walk(self.assoc)


@contextlib.contextmanager
def scalar_oracle():
    """Launches inside the block run on the per-block oracle, and GPUs
    built inside it cache through the walk."""
    with mock.patch.object(gpu, "run_blocks", run_blocks_scalar), \
            mock.patch.object(gpu, "CacheModel", WalkCache):
        yield


def batch_lanes(lanes):
    """Launches inside the block batch at most ``lanes`` lanes a pass
    (the engine's own budget for None)."""
    if lanes is None:
        return contextlib.nullcontext()
    return mock.patch.object(batch, "BATCH_LANES", lanes)
