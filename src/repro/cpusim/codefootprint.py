"""Instruction-footprint measurement (Figure 11 substitute).

The paper measures the number of distinct 64-byte x86 instruction blocks
touched during execution.  Our workloads are Python, so the honest
equivalent is the executed *bytecode* footprint: while a workload runs
under the tracer, every Python code object entered contributes its
``co_code`` bytes; the footprint is the total in 64-byte blocks.  Only
frames from files under the ``repro/workloads/`` package directory are
counted (the instrumentation machinery is excluded), mirroring Pin's
per-image filtering.

The substitution is documented in DESIGN.md; absolute values are not
comparable to x86 but relative workload ordering is reported in
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys
from types import CodeType, FrameType
from typing import Optional, Set


#: The ``repro/workloads/`` package directory, as a path prefix.  A
#: prefix, not a substring: a checkout under some other directory named
#: ``workloads`` must not count every ``repro`` module.
WORKLOADS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "workloads", ""
)


class CodeFootprintTracer:
    """Collects executed code objects via ``sys.setprofile``.

    Use as a context manager around the workload run::

        tracer = CodeFootprintTracer()
        with tracer:
            run_workload(...)
        blocks = tracer.footprint_blocks()

    A code object counts when its file lies under ``path_filter``, a
    directory path ending in a separator (the workload package by
    default).
    """

    def __init__(self, path_filter: str = WORKLOADS_DIR, block_bytes: int = 64):
        self.path_filter = path_filter
        self.block_bytes = block_bytes
        self._codes: Set[CodeType] = set()
        self._prev = None

    def _profile(self, frame: FrameType, event: str, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(self.path_filter):
                self._codes.add(code)

    def __enter__(self) -> "CodeFootprintTracer":
        self._prev = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._prev)

    @property
    def code_bytes(self) -> int:
        return sum(len(code.co_code) for code in self._codes)

    @property
    def n_functions(self) -> int:
        return len(self._codes)

    def footprint_blocks(self) -> int:
        """Distinct instruction blocks (of ``block_bytes``) executed."""
        return sum(
            (len(code.co_code) + self.block_bytes - 1) // self.block_bytes
            for code in self._codes
        )
