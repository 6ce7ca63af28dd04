"""The per-block GPU oracle, swapped in for the batch engine.

``GPU.launch`` runs every launch through one module-level name,
``repro.gpusim.gpu.run_blocks`` (the block-batched engine).
:func:`scalar_oracle` patches that name, so a test runs the same launch
on the per-block reference semantics (``BlockCtx``, one call per block)
and compares; :func:`batch_lanes` shrinks the engine's lane budget so a
launch spans several passes.  Both are plain context managers:
hypothesis tests cannot use the function-scoped ``monkeypatch`` fixture.
"""

import contextlib
from unittest import mock

from repro.gpusim import batch, gpu
from repro.gpusim.dsl import run_blocks_scalar


def scalar_oracle():
    """Launches inside the block run on the per-block oracle."""
    return mock.patch.object(gpu, "run_blocks", run_blocks_scalar)


def batch_lanes(lanes):
    """Launches inside the block batch at most ``lanes`` lanes a pass
    (the engine's own budget for None)."""
    if lanes is None:
        return contextlib.nullcontext()
    return mock.patch.object(batch, "BATCH_LANES", lanes)
