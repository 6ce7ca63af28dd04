"""Chunk sources for the streaming CPU analyses.

Every streaming entry point takes a zero-argument callable returning an
iterator of column chunks (e.g. ``Machine.iter_trace_chunks``).  These
helpers wrap dense test columns in that protocol, so each test drives
the production path on one chunk (the whole-trace case) and on several.
"""


def one_chunk(*cols):
    """The whole trace as a single chunk."""
    return lambda: iter([cols])


def chunks_of(size, *cols):
    """Consecutive ``size``-row chunks of the trace."""
    n = cols[0].size

    def it():
        for i in range(0, n, size):
            yield tuple(c[i : i + size] for c in cols)

    return it


def two_chunks(*cols):
    """The trace split at its midpoint; a trace shorter than two rows
    yields an empty chunk."""
    half = cols[0].size // 2
    return lambda: iter([
        tuple(c[:half] for c in cols), tuple(c[half:] for c in cols),
    ])
