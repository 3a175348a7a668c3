"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from fractions import Fraction

import pytest

import tracing
import workloads
from stochlp import generate, graph_text, td_text
from workloads import Query, answer


def _query(shape, n, dist, solver, check, x, **kw):
    inst = generate(shape, n, dist=dist, seed=1)
    return Query(f"{shape}-{n}", solver, check, graph_text(inst.dag),
                 td_text(inst.dag, inst.td), Fraction(x), **kw)


SMALL = [
    _query("chain", 6, "uniform", "approx", "irwin-hall", Fraction(5, 2), m_res=8),
    _query("diamond-ladder", 2, "uniform-mixed", "approx", "sp-sandwich", 3, m_res=6),
    _query("diamond-ladder", 2, "exp", "exact", "sp-exact", 2),
    _query("random-tw", 5, "exp", "exact", "td-independence", 2),
    _query("chain", 3, "oracle:expcdf", "taylor", "exp-twin", Fraction(1, 4), tau=6),
]


@pytest.mark.parametrize("q", SMALL, ids=lambda q: f"{q.solver}-{q.check}")
def test_traced_answer_is_bit_identical(q):
    plain, _, _ = answer(q)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced, _, _ = answer(q)
    assert repr(traced) == repr(plain)
    spans, _ = tracer.take()
    assert spans["graph.parse_graph"].calls == 1
    assert spans["decomposition.validate_td"].calls == 2


def test_every_patch_point_is_restored():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracing.PATCH_POINTS]
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert all(getattr(o, a) is not f for o, a, f in originals)
            raise RuntimeError("abort mid-run")
    assert all(getattr(o, a) is f for o, a, f in originals)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(200_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    spans, _ = tracer.take()
    assert spans["inner"].calls == 2
    assert spans["outer"].self_s == pytest.approx(spans["outer"].total_s - spans["inner"].total_s)


@pytest.mark.parametrize("q", SMALL, ids=lambda q: f"{q.solver}-{q.check}")
def test_check_accepts_answer_and_flags_corruption(q):
    value, report, _ = answer(q)
    checker = workloads.Checker()
    assert checker.check(q, value, report) is None
    if q.check in ("irwin-hall", "sp-sandwich"):
        corrupted = 0.0 if value > 1e-3 else 1.0  # outside the staircase sandwich
    elif q.check == "exp-twin":
        corrupted = min(1.0, value + 2 * report.theoretical_bound)
    else:
        corrupted = value + 1e-9
    assert checker.check(q, corrupted, report) is not None


def test_negative_probability_fails():
    q = SMALL[-1]
    value, report, _ = answer(q)
    reason = workloads.Checker().check(q, -1.5e-4, report)
    assert reason is not None and "outside [0, 1]" in reason
    assert workloads.Checker().check(q, float("nan"), report).startswith("non-finite")


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    assert workloads.build("ladder-exact", 0) != workloads.build("ladder-exact", 1)
