import math
import random
import time

import numpy as np
import pytest

from stochlp import (
    CycleError,
    Dag,
    DistKind,
    DistSpec,
    GraphFormatError,
    InputError,
    parse_graph,
    static_longest_path,
)
from conftest import definition4_classify, random_small_dag
from reference import PathLimitExceeded, SubgraphRef, classify_subgraph_vertices, enumerate_st_paths


class TestParse:
    def test_chain(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        assert g.n == 3 and g.m == 2
        assert [(u, v) for u, v, _ in g.edges] == [(0, 1), (1, 2)]
        assert all(d.kind is DistKind.UNIFORM for _, _, d in g.edges)

    def test_exponential_edge(self):
        g = parse_graph("2 1\n1 2 exp\n")
        assert g.m == 1 and g.edges[0][2].kind is DistKind.EXPONENTIAL

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_graph("2 2\n1 2 exp\n2 1 exp\n")

    def test_relabeling_is_topological_and_recorded(self):
        g = parse_graph("3 2\n3 1 uniform 1\n1 2 uniform 1\n")
        assert all(u < v for u, v, _ in g.edges)
        # label 3 must come before label 1 which comes before label 2
        assert g.labels.index(3) < g.labels.index(1) < g.labels.index(2)

    def test_comments_and_blank_lines(self):
        g = parse_graph("# hello\n\n2 1  # header\n1 2 uniform 2\n")
        assert g.m == 1 and g.edges[0][2].scale == 2

    @pytest.mark.parametrize(
        "text",
        [
            "2 1\n1 2 uniform 0\n",  # non-positive scale
            "2 1\n1 2 frobnicate\n",  # unknown tag
            "2 1\n1 1 exp\n",  # self loop
            "2 2\n1 2 exp\n1 2 exp\n",  # duplicate
            "2 1\n1 2\n",  # missing spec
            "nonsense\n",
            "2 5\n1 2 exp\n",  # wrong edge count
            "2 1\n1 3 exp\n",  # out of range
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    def test_duplicate_edge_named(self):
        with pytest.raises(GraphFormatError, match=r"duplicate edge \(2,3\)"):
            parse_graph("3 3\n1 2 exp\n2 3 exp\n2 3 exp\n")

    def test_parse_scales_linearly(self):
        # a linear parse gives about 4 per quadrupling of the edge count, a
        # scan of the earlier edges per edge about 16; the sizes alternate so
        # that a slow phase of the machine hits both, and CPU time leaves out
        # the time other processes hold the core
        texts = {m: f"{m + 1} {m}\n" + "".join(f"{v} {v + 1} uniform 1\n" for v in range(1, m + 1))
                 for m in (2000, 8000)}
        best = dict.fromkeys(texts, float("inf"))
        for _ in range(5):
            for m, text in texts.items():
                t0 = time.process_time()
                parse_graph(text)
                best[m] = min(best[m], time.process_time() - t0)
        ratio = best[8000] / best[2000]
        assert ratio < 8, f"parse_graph m=8000 over m=2000 took {ratio:.1f}x"


def longest(g, lengths):
    """static_longest_path on float lengths, checked against its array form:
    each sample of one call on three samples per edge (the lengths scaled by
    1, 0.5 and 3) equals the float call on that sample."""
    factors = (1.0, 0.5, 3.0)
    keys = list(lengths) if isinstance(lengths, dict) else range(len(lengths))

    def scaled(f):
        out = {k: lengths[k] * f for k in keys}
        return out if isinstance(lengths, dict) else [out[k] for k in keys]

    each = [static_longest_path(g, scaled(f)) for f in factors]
    assert all(type(v) is float for v in each)
    arrays = {k: np.array([lengths[k] * f for f in factors]) for k in keys}
    batch = static_longest_path(g, arrays if isinstance(lengths, dict) else list(arrays.values()))
    assert batch.shape == (len(factors),) and batch.tolist() == each
    return each[0]


class TestStaticLongestPath:
    def test_chain_sum(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        assert longest(g, [1.0, 2.0]) == 3.0

    def test_diamond_max(self):
        g = parse_graph("4 4\n1 2 uniform 1\n1 3 uniform 1\n2 4 uniform 1\n3 4 uniform 1\n")
        lengths = {(0, 1): 1.0, (1, 3): 1.0, (0, 2): 2.0, (2, 3): 2.0}
        assert longest(g, lengths) == 4.0

    @pytest.mark.parametrize("lengths", [
        [1.0],
        [1.0, math.inf],
        [np.ones(3), np.array([1.0, math.nan, 1.0])],
        [np.ones(3), np.ones(4)],
        [np.ones(3), 1.0],
        [np.ones((2, 2)), np.ones((2, 2))],
    ])
    def test_rejects_bad_lengths(self, lengths):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        with pytest.raises(InputError):
            static_longest_path(g, lengths)

    def test_matches_path_enumeration(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_small_dag(rng)
            lengths = [rng.uniform(0, 2) for _ in range(g.m)]
            by_edge = {(u, v): w for (u, v, _), w in zip(g.edges, lengths)}
            try:
                paths = enumerate_st_paths(g, limit=64)
            except PathLimitExceeded:
                continue
            if not paths:
                continue
            brute = max(sum(by_edge[e] for e in zip(p, p[1:])) for p in paths)
            assert longest(g, lengths) == pytest.approx(brute)
            # the same graph with its edges listed out of tail order
            shuffled = Dag(n=g.n, edges=g.edges[::-1])
            assert longest(shuffled, lengths[::-1]) == longest(g, lengths)


class TestClassify:
    def test_single_edge_sub(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        S, T, I = classify_subgraph_vertices(g, SubgraphRef(frozenset({1, 2}), frozenset({(1, 2)})))
        assert (S, T, I) == (frozenset({1}), frozenset({2}), frozenset())

    def test_whole_chain(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        S, T, I = classify_subgraph_vertices(
            g, SubgraphRef(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
        )
        assert (S, T, I) == (frozenset({0}), frozenset({2}), frozenset({1}))

    def test_diamond_partial_sub_matches_definition(self):
        g = parse_graph("4 4\n1 2 uniform 1\n1 3 uniform 1\n2 4 uniform 1\n3 4 uniform 1\n")
        sub_v = frozenset({0, 1, 3})
        sub_e = frozenset({(0, 1), (1, 3)})
        got = classify_subgraph_vertices(g, SubgraphRef(sub_v, sub_e))
        want = definition4_classify(g, sub_v, sub_e)
        assert got == want
        assert got == (frozenset({0}), frozenset({3}), frozenset({1}))

    def test_matches_definition_on_random_subgraphs(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_small_dag(rng, max_n=5)
            try:
                enumerate_st_paths(g, limit=64)
            except PathLimitExceeded:
                continue
            pairs = [(u, v) for u, v, _ in g.edges]
            sub_e = frozenset(e for e in pairs if rng.random() < 0.6)
            sub_v = frozenset(v for e in sub_e for v in e) | {rng.randrange(g.n)}
            got = classify_subgraph_vertices(g, SubgraphRef(sub_v, sub_e))
            want = definition4_classify(g, sub_v, sub_e)
            assert got == want

    def test_whole_graph_reproduces_degree_rule(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_small_dag(rng)
            pairs = frozenset((u, v) for u, v, _ in g.edges)
            active = frozenset(v for e in pairs for v in e)
            S, T, _ = classify_subgraph_vertices(g, SubgraphRef(frozenset(range(g.n)), pairs))
            assert S == g.sources & active
            assert T == g.terminals & active


class TestEnumerate:
    def test_chain(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        assert enumerate_st_paths(g) == [(0, 1, 2)]

    def test_diamond(self):
        g = parse_graph("4 4\n1 2 uniform 1\n1 3 uniform 1\n2 4 uniform 1\n3 4 uniform 1\n")
        assert enumerate_st_paths(g) == [(0, 1, 3), (0, 2, 3)]

    def test_ladder_exceeds_limit(self):
        from stochlp.generate import gen_diamond_ladder

        g = gen_diamond_ladder(4, dist="uniform").dag
        with pytest.raises(PathLimitExceeded):
            enumerate_st_paths(g, limit=10)
        assert len(enumerate_st_paths(g, limit=16)) == 16

    def test_lexicographic_order(self):
        g = parse_graph("4 4\n1 2 uniform 1\n1 3 uniform 1\n2 4 uniform 1\n3 4 uniform 1\n")
        paths = enumerate_st_paths(g)
        assert paths == sorted(paths)
