"""The series-parallel oracle's truncated-power algebra, checked against
closed forms, Riemann brackets and its own independence from the solvers."""

import ast
import inspect
import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import stochlp.oracles
from stochlp import Dag, DistSpec, InvariantViolation, riemann_bracket, series_parallel_exact
from stochlp.generate import gen_chain
from stochlp.oracles import PiecewisePoly
from reference import random_series_parallel


def test_imports_no_solver_engine():
    # the oracle must not lean on the engine of the solvers it checks
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(stochlp.oracles))):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or "", *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert not {n.rpartition(".")[2] for n in names} & {"symbolic", "density"}


def test_jump_has_no_derivative():
    # a unit step at 1: its j = 0 coefficients at shift 1 sum to 1, not 0
    with pytest.raises(InvariantViolation, match=r"jumps at \[1\]"):
        PiecewisePoly({(1, 0, 0): F(1)}).derivative()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 7), eighths=st.integers(-4, 200))
def test_uniform_inside_riemann_bracket(seed, n, eighths):
    g = random_series_parallel(seed, n)
    x = F(eighths, 8)
    # the finest resolution with at most 40,000 cells, so every draw is cheap
    resolution = max(r for r in range(1, 41) if r**g.m <= 40_000 or r == 1)
    br = riemann_bracket(g, float(x), resolution)
    assert br.lower <= series_parallel_exact(g, x) <= br.upper


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("x", [F(1, 8), F(1), F(7, 2), F(20)])
def test_exponential_chain_is_erlang(m, x):
    g = gen_chain(m + 1, dist="exp").dag
    with mpmath.workdps(300):
        xm = mpmath.mpf(x.numerator) / x.denominator
        want = float(1 - mpmath.exp(-xm) * sum(xm**k / mpmath.factorial(k) for k in range(m)))
    assert series_parallel_exact(g, x) == want


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("x", [F(1, 8), F(1), F(9, 2)])
def test_parallel_exponential_edges(k, x):
    # k parallel edges have the k-th power of the Exp(1) CDF; a Dag holds no
    # parallel edges, so k two-edge paths side by side give the k-th power of
    # the Erlang-2 CDF
    edges = [(0, v, DistSpec.exponential()) for v in range(1, k + 1)]
    edges += [(v, k + 1, DistSpec.exponential()) for v in range(1, k + 1)]
    g = Dag(n=k + 2, edges=tuple(edges))
    with mpmath.workdps(300):
        xm = mpmath.mpf(x.numerator) / x.denominator
        want_edges = float((1 - mpmath.exp(-xm)) ** k)
        want_paths = float((1 - mpmath.exp(-xm) * (1 + xm)) ** k)
    edge = PiecewisePoly({(0, 0, 0): F(1), (0, 0, 1): F(-1)})
    cdf = edge
    for _ in range(k - 1):
        cdf = cdf.product(edge)
    assert cdf(x) == want_edges
    assert series_parallel_exact(g, x) == want_paths


def test_exponential_at_nonpositive_horizon():
    g = gen_chain(3, dist="exp").dag
    for x in (F(-1), F(0)):
        v = series_parallel_exact(g, x)
        assert v == 0.0 and isinstance(v, float) and math.copysign(1, v) == 1
