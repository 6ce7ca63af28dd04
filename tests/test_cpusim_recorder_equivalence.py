"""The access-tape recorder against the per-call oracle.

Every program here runs twice on fresh machines: once on the production
recorder (one append-only tape per thread, interleaved by array
arithmetic) and once inside :func:`tests.cpu_oracle.per_call_oracle`
(one address and write-flag array pair per call, merged one quantum at
a time).  The merged trace and its chunks, ``OpCounts``,
``thread_insts``, every returned value (value, dtype, shape, numpy
scalar or array) and the final memory must be identical.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import SimScale
from repro.cpusim import Machine
from repro.workloads import base as wl
from tests.cpu_oracle import per_call_oracle

DTYPES = (np.int8, np.int32, np.int64, np.float32, np.float64)
INDEX_KINDS = (
    "int", "np.int64", "np.int32", "np.uint8", "np.uint64", "0-d", "1-D",
    "1-D int32",
    "strided 1-D", "2-D", "list", "empty",
)
VALUE_KINDS = (
    "float", "int", "np.float64", "np.float32", "np.int64", "0-d",
    "(1,)", "flat", "flat int",
)
UPDATES = (lambda v: -v, lambda v: v * 0.5 + 1)


def _index(rng, kind, size):
    if kind == "int":
        return int(rng.integers(size))
    if kind in ("np.int64", "np.int32", "np.uint8", "np.uint64"):
        return getattr(np, kind[3:])(rng.integers(min(size, 255)))
    if kind == "0-d":
        return np.array(rng.integers(size))
    if kind == "1-D":
        return rng.integers(0, size, rng.integers(1, 9))
    if kind == "1-D int32":
        return rng.integers(0, size, rng.integers(1, 9)).astype(np.int32)
    if kind == "strided 1-D":
        return rng.integers(0, size, 2 * rng.integers(1, 6))[::2]
    if kind == "2-D":
        return rng.integers(0, size, (rng.integers(1, 4), rng.integers(1, 4)))
    if kind == "list":
        return [int(i) for i in rng.integers(0, size, rng.integers(1, 5))]
    return np.array([], dtype=np.int64)


def _value(rng, kind, n):
    x = float(rng.uniform(-60, 60))
    if kind == "float":
        return x
    if kind == "int":
        return int(x)
    if kind in ("np.float64", "np.float32", "np.int64"):
        return getattr(np, kind[3:])(x)
    if kind == "0-d":
        return np.array(x)
    if kind == "(1,)":
        return np.array([x])
    if kind == "flat":
        return rng.uniform(-60, 60, n)
    return rng.integers(-60, 60, n)


@st.composite
def programs(draw):
    """(machine threads, quantum, array specs, regions, seed).

    A region is (n_threads or None for a serial phase, per-thread op
    lists); an op is (kind, array, index kind, value kind or update).
    """
    arrays = draw(st.lists(
        st.tuples(
            st.sampled_from(range(len(DTYPES))),
            st.sampled_from([(1,), (7,), (12,), (3, 4), (2, 5)]),
        ),
        min_size=1, max_size=3,
    ))
    op = st.tuples(
        st.sampled_from(["load", "store", "update", "alu"]),
        st.integers(0, len(arrays) - 1),
        st.sampled_from(INDEX_KINDS),
        st.integers(0, len(VALUE_KINDS) - 1),
    )
    regions = draw(st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(1, 4)),
            st.lists(st.lists(op, max_size=8), min_size=4, max_size=4),
        ),
        min_size=1, max_size=3,
    ))
    return (
        draw(st.integers(1, 3)),
        draw(st.sampled_from([1, 2, 3, 64, 10_000])),
        arrays,
        regions,
        draw(st.integers(0, 2**31 - 1)),
    )


def _run(program):
    """Everything observable of one run of ``program``."""
    n_threads, quantum, specs, regions, seed = program
    rng = np.random.default_rng(seed)
    m = Machine(n_threads=n_threads, quantum=quantum)
    arrs = [
        m.array(rng.uniform(-50, 50, shape).astype(DTYPES[d]), name=f"a{i}")
        for i, (d, shape) in enumerate(specs)
    ]
    # Concrete indices and values are drawn before any region runs, so
    # both recorders see the same ones.
    plans = []
    for nt, threads in regions:
        plan = []
        for ops in threads[: nt or 1]:
            steps = []
            for kind, a, ikind, v in ops:
                arr = arrs[a]
                idx = _index(rng, ikind, arr.size)
                n = int(np.size(idx))
                if kind == "store":
                    arg = _value(rng, VALUE_KINDS[v], n)
                else:
                    arg = UPDATES[v % len(UPDATES)]
                steps.append((kind, arr, idx, arg))
            plan.append(steps)
        plans.append((nt, plan))

    def thread(t, plan):
        out = []
        for kind, arr, idx, arg in plan[t.tid]:
            if kind == "load":
                out.append(t.load(arr, idx))
            elif kind == "store":
                t.store(arr, idx, arg)
            elif kind == "update":
                # fn returns the index's shape, which a store of an N-D
                # index refuses after recording its writes.
                try:
                    t.update(arr, idx, arg)
                except ValueError as e:
                    out.append(str(e))
            else:
                t.alu(3)
                t.branch()
        return out

    returned = []
    for nt, plan in plans:
        if nt is None:
            returned.append([m.serial(thread, plan)])
        else:
            returned.append(m.parallel(thread, plan, n_threads=nt))
    chunks = [
        tuple((c.dtype.str, c.tobytes()) for c in cols)
        for cols in m.iter_trace_chunks()
    ]
    return dict(
        chunks=chunks,
        counts=dataclasses.asdict(m.counts),
        thread_insts=m.thread_insts.tolist(),
        returned=returned,
        memory=[(a.data.dtype.str, a.data.tobytes()) for a in arrs],
    )


def _assert_same_value(a, b):
    assert type(a) is type(b)
    if isinstance(a, str):
        assert a == b
        return
    assert np.shape(a) == np.shape(b)
    assert a.dtype == b.dtype
    np.testing.assert_array_equal(a, b)


def _assert_same_run(new, old):
    assert new["chunks"] == old["chunks"]
    assert new["counts"] == old["counts"]
    assert new["thread_insts"] == old["thread_insts"]
    assert new["memory"] == old["memory"]
    for region_new, region_old in zip(new["returned"], old["returned"]):
        for vals_new, vals_old in zip(region_new, region_old):
            assert len(vals_new) == len(vals_old)
            for a, b in zip(vals_new, vals_old):
                _assert_same_value(a, b)


def _both(program):
    new = _run(program)
    with per_call_oracle():
        old = _run(program)
    return new, old


# Each region lists four threads' ops; one with one thread runs only the
# first list.
_EVERY_KIND = [
    ("load", 0, k, 0) for k in INDEX_KINDS
] + [
    ("store", 0, k, v) for k in ("int", "1-D") for v in range(len(VALUE_KINDS))
] + [("update", 0, "int", 0), ("update", 0, "2-D", 1)]


class TestTapeMatchesPerCallOracle:
    @settings(max_examples=150, deadline=None)
    @given(program=programs())
    # quantum 1, a quantum above every thread, empty and uneven threads
    @example(program=(2, 1, [(0, (12,))], [
        (3, [_EVERY_KIND, [], _EVERY_KIND[:5], []]),
    ], 7))
    @example(program=(4, 10_000, [(4, (3, 4)), (1, (7,))], [
        (4, [_EVERY_KIND, [("load", 1, "1-D", 0)], [], _EVERY_KIND[::-1]]),
        (None, [_EVERY_KIND, [], [], []]),
    ], 11))
    def test_random_programs(self, program):
        new, old = _both(program)
        _assert_same_run(new, old)

    @pytest.mark.parametrize("name", ["canneal", "cfd", "freqmine", "raytrace"])
    def test_tiny_workload_traces(self, name):
        fn = wl.get(name).cpu_fn
        m_new = Machine()
        res_new = fn(m_new, SimScale.TINY)
        with per_call_oracle():
            m_old = Machine()
            res_old = fn(m_old, SimScale.TINY)
        for c_new, c_old in zip(m_new.iter_trace_chunks(),
                                m_old.iter_trace_chunks()):
            for a, b in zip(c_new, c_old):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
        assert m_new.n_accesses == m_old.n_accesses
        assert m_new.counts == m_old.counts
        np.testing.assert_array_equal(m_new.thread_insts, m_old.thread_insts)
        np.testing.assert_equal(res_new, res_old)


# Scalar stores cast through ``ndarray.put``; this pins that to the
# oracle's ``np.asarray(value, dtype)`` cast on values that wrap, round,
# overflow or are not numbers at all, warnings and errors included, and
# pins the refusal of values that do not broadcast to the index.
ODD_VALUES = [
    2.7, -2.7, 300, -129, 2**40, 1e20, -1e20, float("nan"), float("inf"),
    True, 3 + 4j, np.float64("nan"), np.float64(1e20), np.int64(300),
    np.uint64(2**64 - 1), np.float32(-1.5), np.bool_(True), np.float16(7.5),
    [1.0, 2.0], np.ones((1, 2)), np.ones((1, 1)), np.ones(3),
]


def _store_outcome(dtype, idx, value):
    m = Machine(n_threads=1)
    a = m.alloc(4, dtype=dtype, name="odd")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m.serial(lambda t: t.store(a, idx, value))
            result = ("stored", a.data.tobytes(), m.trace()[0].tolist())
        except Exception as e:  # the oracle raises the same or the test fails
            result = ("raised", type(e).__name__, str(e))
    return result, sorted(f"{w.category.__name__}: {w.message}" for w in caught)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8,
                                   np.float32, np.float64, np.bool_])
@pytest.mark.parametrize("idx", [1, np.int32(2), np.array([1, 3])],
                         ids=["int", "np.int32", "array"])
def test_store_casts_like_the_oracle(dtype, idx):
    for value in ODD_VALUES:
        new = _store_outcome(dtype, idx, value)
        with per_call_oracle():
            old = _store_outcome(dtype, idx, value)
        assert new == old, value
