from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from stochlp import Budget, Dag, DistSpec, SolveReport, TreeDecomposition, build_context, parse_graph
from stochlp.decomposition import prepare_context


@pytest.fixture
def chain2() -> Dag:
    return parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")


@pytest.fixture
def diamond_uniform() -> Dag:
    return parse_graph(
        "4 4\n1 2 uniform 1\n1 3 uniform 1\n2 4 uniform 2\n3 4 uniform 2\n"
    )


@pytest.fixture
def diamond_exp() -> Dag:
    return parse_graph("4 4\n1 2 exp\n1 3 exp\n2 4 exp\n3 4 exp\n")


def single_bag_context(g: Dag):
    """Context with one bag holding the whole (already separated-enough)
    graph; usable whenever the construction invariants hold directly."""
    td = TreeDecomposition((frozenset(range(g.n)),), ())
    return build_context(g, td)


def assert_shared_report(rep, g: Dag, td, budget: Budget) -> None:
    """A solver report is a SolveReport sized like the context that
    ``prepare_context`` builds for the same input, carrying the counters of
    the run's ``budget`` and holding plain values only (no context, table or
    budget stays alive through it)."""
    ctx = prepare_context(g, td)
    assert isinstance(rep, SolveReport)
    assert (rep.separated_width, rep.separated_n, rep.bag_count) == (ctx.td.width, ctx.dag.n, ctx.b)
    assert (rep.cells_used, rep.regions_peak, rep.terms_peak, rep.work_used) == \
        (budget.cells_used, budget.regions_peak, budget.terms_peak, budget.work_used)
    for f in dataclasses.fields(rep):
        assert isinstance(getattr(rep, f.name), (int, float, str, list, type(None))), f.name


def definition4_classify(g: Dag, sub_vertices, sub_edges):
    """Literal path-quantified classification: v is a source of the subgraph
    iff some source-terminal path of g meets it with no incoming and one
    outgoing edge inside the subgraph; terminals symmetric."""
    from reference import enumerate_st_paths

    sub_vertices = frozenset(sub_vertices)
    sub_edges = frozenset(sub_edges)
    sources, terminals = set(), set()
    for path in enumerate_st_paths(g, limit=100_000):
        edges = set(zip(path, path[1:]))
        for v in sub_vertices:
            if v not in path:
                continue
            inc = sum(1 for (a, b) in edges if b == v and (a, b) in sub_edges)
            out = sum(1 for (a, b) in edges if a == v and (a, b) in sub_edges)
            if inc == 0 and out == 1:
                sources.add(v)
            if out == 0 and inc == 1:
                terminals.add(v)
    active = {v for e in sub_edges for v in e}
    internals = {v for v in active if v not in sources and v not in terminals}
    return frozenset(sources), frozenset(terminals), frozenset(internals)


def random_small_dag(rng: random.Random, max_n: int = 6, dist: str = "uniform") -> Dag:
    n = rng.randint(2, max_n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                if dist == "uniform":
                    edges.append((u, v, DistSpec.uniform(rng.randint(1, 3))))
                else:
                    edges.append((u, v, DistSpec.exponential()))
    if not edges:
        edges.append((0, 1, DistSpec.uniform(1) if dist == "uniform" else DistSpec.exponential()))
    return Dag(n=n, edges=tuple(edges))
