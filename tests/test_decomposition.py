import gc
import random
import time
import tracemalloc
import weakref
from array import array

import pytest

from stochlp import (
    Budget,
    Dag,
    DistKind,
    DistSpec,
    InputError,
    InvariantViolation,
    SolveReport,
    TdFormatError,
    TreeDecomposition,
    binarize_td,
    build_context,
    heuristic_td,
    parse_graph,
    parse_td,
    separate,
    static_longest_path,
    validate_td,
)
from stochlp.decomposition import format_td, prepare_context, sweep
from stochlp.generate import gen_chain, gen_diamond_ladder, gen_random_tw, generate


class TestParseTd:
    def test_single_bag(self):
        td = parse_td("s td 1 2 2\nb 1 1 2\n")
        assert td.b == 1 and td.bags[0] == frozenset({1, 2}) and td.width == 1

    def test_two_bags(self):
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert td.b == 2 and td.tree_edges == ((0, 1),)

    def test_comments(self):
        td = parse_td("c a comment\ns td 1 1 1\nb 1 1\n")
        assert td.bags == (frozenset({1}),)

    @pytest.mark.parametrize(
        "text",
        [
            "b 1 1 2\n",  # bag before header
            "s td 2 2 3\nb 1 1 2\nb 5 2 3\n1 2\n",  # index out of range
            "s td 2 2 3\nb 1 1 2\nb 2 2 3\n",  # disconnected (no tree edge)
            "s td 1 2\n",  # malformed header
            "s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n",  # duplicate bag
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(TdFormatError):
            parse_td(text)

    def test_roundtrip(self):
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert parse_td(format_td(td, 3)) == td


class TestValidate:
    def setup_method(self):
        self.g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        self.map = {label: i for i, label in enumerate(self.g.labels)}

    def test_ok(self):
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n").relabel(self.map)
        assert validate_td(self.g, td).valid

    def test_uncovered_edge(self):
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n").relabel(self.map)
        rep = validate_td(self.g, td)
        assert not rep.valid and rep.condition == "condition2" and rep.witness == (1, 2)

    def test_disconnected_occurrence(self):
        g = parse_graph("4 3\n1 2 uniform 1\n2 3 uniform 1\n1 4 uniform 1\n")
        mp = {label: i for i, label in enumerate(g.labels)}
        td = parse_td("s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 1 4\n1 2\n2 3\n").relabel(mp)
        rep = validate_td(g, td)
        assert not rep.valid and rep.condition == "condition3" and rep.witness == mp[1]

    def test_missing_vertex(self):
        g = parse_graph("3 1\n1 2 uniform 1\n")
        mp = {label: i for i, label in enumerate(g.labels)}
        td = parse_td("s td 1 2 3\nb 1 1 2\n").relabel(mp)
        rep = validate_td(g, td)
        assert not rep.valid and rep.condition == "condition1"


def _dag(n, pairs):
    return Dag(n=n, edges=tuple((u, v, DistSpec.uniform(1)) for u, v in sorted(pairs)))


def _td(bags, tree):
    return TreeDecomposition(tuple(frozenset(b) for b in bags), tuple(tree))


class TestValidateFirstViolation:
    """Each input breaks several conditions; the report names the first one
    in the order tree, vertices, condition1, condition2, condition3, with
    the first witness in bag, vertex or edge order."""

    @pytest.mark.parametrize(
        "n,pairs,bags,tree,expected",
        [
            # 3 bags, 1 tree edge; also a vertex out of range and one missing
            (4, [(0, 1), (1, 2), (2, 3)], [{0, 1}, {5}, {2}], [(0, 1)],
             ("tree", None, "bag graph is not a connected tree")),
            # vertices 7 (bag 1) and 9 (bag 2) out of range; vertex 3 missing
            (4, [(0, 1), (1, 2)], [{0, 1, 2}, {1, 7}, {9}], [(0, 1), (1, 2)],
             ("vertices", 7, "bag vertex 7 outside graph")),
            # vertices 2 and 3 in no bag; edges (1,2), (2,3) uncovered
            (4, [(0, 1), (1, 2), (2, 3)], [{0, 1}, {1}], [(0, 1)],
             ("condition1", 2, "vertex 2 in no bag")),
            # edges (0,2) and (0,4) uncovered; vertex 3 disconnected
            (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3)],
             [{0, 1, 3}, {1, 2, 4}, {2, 3}], [(0, 1), (1, 2)],
             ("condition2", (0, 2), "edge (0,2) uncovered")),
            # vertices 0 and 2 both skip the middle bag
            (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
             [{0, 1, 2}, {1, 3}, {0, 2, 3}], [(0, 1), (1, 2)],
             ("condition3", 0, "occurrence set of vertex 0 disconnected")),
        ],
        ids=["tree", "vertices", "condition1", "condition2", "condition3"],
    )
    def test_first_violation(self, n, pairs, bags, tree, expected):
        rep = validate_td(_dag(n, pairs), _td(bags, tree))
        assert not rep.valid
        assert (rep.condition, rep.witness, rep.message) == expected

    @pytest.mark.parametrize(
        "n,pairs,bags,tree,message",
        [
            # vertex 0 sits in two sibling bags, not in their parent
            (3, [(0, 1), (0, 2)], [{1, 2}, {0, 1}, {0, 2}], [(0, 1), (0, 2)],
             "occurrence set of vertex 0 is disconnected"),
            (3, [(0, 1)], [{0, 1}], [],
             "vertex 2 missing from every bag; validate the decomposition first"),
            (2, [(0, 1)], [{0, 1, 5}], [], "bag vertex 5 outside graph"),
        ],
        ids=["disconnected", "missing", "out-of-range"],
    )
    def test_separate_rejects(self, n, pairs, bags, tree, message):
        with pytest.raises(InputError) as err:
            separate(_dag(n, pairs), _td(bags, tree))
        assert str(err.value) == message


def _scan_heuristic_td(g):
    """Reference min-degree elimination: a full scan of the remaining
    vertices picks each next one (quadratic); tree built as heuristic_td."""
    adj = {v: set() for v in range(g.n)}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(g.n))
    elim_bags, elim_pos = [], {}
    while remaining:
        v = min(remaining, key=lambda w: (len(adj[w]), w))
        nbrs = frozenset(adj[v])
        elim_pos[v] = len(elim_bags)
        elim_bags.append((v, frozenset({v}) | nbrs))
        for a in nbrs:
            adj[a].discard(v)
        for a in nbrs:
            for b in nbrs:
                if a < b:
                    adj[a].add(b)
                    adj[b].add(a)
        remaining.discard(v)
    b = len(elim_bags)
    edges = []
    for i, (v, bag) in enumerate(elim_bags):
        later = bag - {v}
        if later:
            edges.append((i, min(elim_pos[w] for w in later)))
        elif i != b - 1:
            edges.append((i, b - 1))
    order = [b - 1] + list(range(b - 1))
    newpos = {old: new for new, old in enumerate(order)}
    return TreeDecomposition(tuple(elim_bags[old][1] for old in order),
                             tuple((newpos[i], newpos[j]) for i, j in edges))


class TestHeuristic:
    def test_chain_of_five_width_one(self):
        g = parse_graph("5 4\n" + "".join(f"{i} {i+1} uniform 1\n" for i in range(1, 5)))
        td = heuristic_td(g)
        assert td.width == 1 and validate_td(g, td).valid

    def test_single_edge(self):
        g = parse_graph("2 1\n1 2 exp\n")
        assert heuristic_td(g).width == 1

    def test_clique_forces_width_three(self):
        g = parse_graph(
            "4 6\n1 2 exp\n1 3 exp\n1 4 exp\n2 3 exp\n2 4 exp\n3 4 exp\n"
        )
        td = heuristic_td(g)
        assert td.width == 3 and validate_td(g, td).valid

    def test_random_graphs_always_valid(self):
        rng = random.Random(5)
        from conftest import random_small_dag

        for _ in range(50):
            g = random_small_dag(rng, max_n=8)
            td = heuristic_td(g)
            assert validate_td(g, td).valid

    def test_heap_order_matches_full_scan(self):
        rng = random.Random(11)
        from conftest import random_small_dag

        graphs = [gen_random_tw(k, n, seed=seed).dag
                  for k in (1, 2, 3) for n in (k + 2, 9, 16) for seed in range(4)]
        graphs += [gen_chain(n).dag for n in (2, 3, 17, 64)]
        graphs += [gen_diamond_ladder(d).dag for d in (1, 2, 5)]
        graphs += [random_small_dag(rng, max_n=8) for _ in range(30)]
        for g in graphs:
            td, ref = heuristic_td(g), _scan_heuristic_td(g)
            assert td.bags == ref.bags
            assert td.tree_edges == ref.tree_edges

    def test_scales_nearly_linearly(self):
        # a heap gives a little over 4 per quadrupling of the chain length,
        # a scan of every remaining vertex per elimination about 16; the
        # sizes alternate so that a slow phase of the machine hits both, and
        # CPU time leaves out the time other processes hold the core
        dags = {n: gen_chain(n).dag for n in (1000, 4000)}
        best = dict.fromkeys(dags, float("inf"))
        for _ in range(5):
            for n, g in dags.items():
                t0 = time.process_time()
                heuristic_td(g)
                best[n] = min(best[n], time.process_time() - t0)
        ratio = best[4000] / best[1000]
        assert ratio < 8, f"heuristic_td n=4000 over n=1000 took {ratio:.1f}x"


class TestBinarize:
    def test_star_five_children(self):
        n = 6
        bags = (frozenset({0, 1}),) + tuple(frozenset({0, i}) for i in range(1, 6))
        td = TreeDecomposition(bags, tuple((0, i) for i in range(1, 6)))
        out = binarize_td(td)
        _, children, _ = out.rooted()
        assert all(len(c) <= 2 for c in children)
        assert out.b <= 4 * n
        assert out.width == td.width

    def test_idempotent_on_binary(self):
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert binarize_td(td) is td

    def test_validity_preserved(self):
        g = gen_random_tw(2, 8, seed=2).dag
        td = heuristic_td(g)
        out = binarize_td(td)
        assert validate_td(g, out).valid


class TestSeparate:
    def test_single_edge_shape(self):
        g = parse_graph("2 1\n1 2 uniform 1\n")
        td = TreeDecomposition((frozenset({0, 1}),), ())
        gs, tds = separate(g, td)
        assert gs.n == 6 and gs.m == 5
        assert sum(1 for _, _, d in gs.edges if d.kind is DistKind.ZERO) == 4
        assert tds.bags[0] == frozenset(range(6))
        assert tds.width == 5

    def test_chain_bags_separated(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n").relabel(
            {label: i for i, label in enumerate(g.labels)}
        )
        ctx = prepare_context(g, td)
        assert ctx.td.width <= 5
        for i in range(ctx.b):
            assert not ctx.S[i] & ctx.T[i]

    def test_zero_edges_additive_identity(self):
        rng = random.Random(9)
        g = parse_graph("4 4\n1 2 uniform 2\n1 3 uniform 1\n2 4 uniform 3\n3 4 uniform 1\n")
        td = heuristic_td(g)
        gs, tds = separate(g, binarize_td(td))
        for _ in range(25):
            lengths = {(u, v): rng.uniform(0, d.scale) for u, v, d in g.edges}
            star_lengths = []
            for u, v, d in gs.edges:
                if d.kind is DistKind.ZERO:
                    star_lengths.append(0.0)
                else:
                    # recover the original edge: the copies of v are 3v, 3v+1, 3v+2
                    orig_u = u // 3
                    orig_v = v // 3
                    star_lengths.append(lengths[(orig_u, orig_v)])
            assert static_longest_path(gs, star_lengths) == pytest.approx(
                static_longest_path(g, [lengths[(u, v)] for u, v, _ in g.edges])
            )

    def test_width_bound(self):
        for seed in range(5):
            inst = gen_random_tw(2, 7, seed=seed)
            k = inst.td.width
            _, tds = separate(inst.dag, binarize_td(inst.td))
            assert tds.width <= 3 * k + 2


def _context_corpus():
    """(graph, decomposition) pairs: random partial k-trees for k = 1-4,
    diamond ladders and chains, each with its given decomposition and with
    the heuristic one."""
    insts = [gen_random_tw(k, k + 2 + seed % 4, seed=seed, max_edges=None if seed % 2 else 2 * k + 1)
             for k in range(1, 5) for seed in range(6)]
    insts += [gen_diamond_ladder(d) for d in (1, 2, 3)] + [gen_chain(n) for n in (2, 5, 9)]
    for inst in insts:
        yield inst.dag, inst.td
        yield inst.dag, heuristic_td(inst.dag)


class TestContextFacts:
    def test_k_is_width_before_separation(self):
        for g, td in _context_corpus():
            assert prepare_context(g, td).k == td.width

    def test_rooted_once_per_decomposition(self):
        td = gen_diamond_ladder(2).td
        assert td.rooted() is td.rooted()
        # a disconnected decomposition raises on every call
        split = TreeDecomposition((frozenset({0}), frozenset({1}), frozenset({2})), ((0, 1),))
        for _ in range(2):
            with pytest.raises(TdFormatError, match="disconnected"):
                split.rooted()

    def test_merge_roles_need_no_operand_axes(self):
        # the two facts that let every merge take its plan from the context
        # alone: glue is never a subtree source or terminal, and at the root
        # every subtree source is a source of the bag itself
        for g, td in _context_corpus():
            ctx = prepare_context(g, td)
            for i in range(ctx.b):
                assert not ctx.J[i] & (ctx.S_D[i] | ctx.T_D[i])
                plan = (ctx.kept[i], ctx.frozen_S[i], ctx.frozen_T[i])
                assert not ctx.J[i] & frozenset().union(*plan)
            root = ctx.td.root
            assert ctx.S_D[root] <= ctx.S[root]
            assert not ctx.kept[root] and ctx.frozen_S[root] == ctx.S_D[root]

    def test_frozen_variables_belong_to_their_bag(self):
        # a variable frozen at bag i is not in the parent bag, so its one edge
        # is owned by bag i: it is a source or terminal of the bag itself and
        # no child subtree gives it a role; the grid merge freezes a subset
        # (none of the root's sources), so this holds for it too
        for g, td in _context_corpus():
            ctx = prepare_context(g, td)
            for i in range(ctx.b):
                frozen_src, frozen_term = ctx.frozen_S[i], ctx.frozen_T[i]
                assert frozen_src <= ctx.S[i]
                assert frozen_term <= ctx.T[i]
                assert not (frozen_src | frozen_term) & (ctx.S_U[i] | ctx.T_U[i])


class TestContext:
    def test_leaf_bag_has_empty_glue(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        ctx = prepare_context(g, None)
        for i in ctx.post_order:
            if not ctx.children[i]:
                assert ctx.J[i] == frozenset()
                assert ctx.S_prime[i] == ctx.T_prime[i] == frozenset()

    def test_edge_partition_and_checks_on_corpus(self):
        # build_context runs the full invariant battery internally
        for seed in range(30):
            inst = gen_random_tw(2, 4 + seed % 4, seed=seed, max_edges=8)
            ctx = prepare_context(inst.dag, inst.td)
            owned = [e for i in range(ctx.b) for e in ctx.bag_edges[i]]
            assert len(owned) == ctx.dag.m
            assert len(set(owned)) == ctx.dag.m

    def test_ancestor_first_takes_topmost(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n").relabel(
            {label: i for i, label in enumerate(g.labels)}
        )
        ctx = prepare_context(g, td)
        # vertex 1's zero edges live in the root's bag-subgraph, not the child's
        root = ctx.td.root
        root_owned = ctx.bag_edges[root]
        assert (3 * 0, 3 * 0 + 1) in root_owned

    def test_rejects_unbinarized(self):
        bags = (frozenset({0, 1}),) + tuple(frozenset({0, 1}) for _ in range(3))
        td = TreeDecomposition(bags, tuple((0, i) for i in range(1, 4)))
        g = parse_graph("2 1\n1 2 uniform 1\n")
        with pytest.raises(InputError):
            build_context(g, td)

    def test_glue_set_matches_new_internals(self):
        # J is computed from the S'/T' definition; the context verifier
        # compares it against the new-internal-vertex characterization
        for seed in (1, 4, 7):
            inst = generate("random-tw", 6, seed=seed, k=2, max_edges=7)
            ctx = prepare_context(inst.dag, inst.td)
            for i in range(ctx.b):
                assert ctx.J[i] == ctx.S_prime[i] | ctx.T_prime[i]

    def test_validates_each_decomposition_once(self, monkeypatch):
        # a given td is checked before binarizing, the separated one in
        # build_context; a synthesized td is checked by heuristic_td itself
        from stochlp import decomposition

        calls = []
        original = decomposition.validate_td
        monkeypatch.setattr(decomposition, "validate_td",
                            lambda g, td: calls.append(td) or original(g, td))
        inst = gen_diamond_ladder(2, dist="uniform")
        prepare_context(inst.dag, None)
        heuristic_calls = len(calls)
        prepare_context(inst.dag, inst.td)
        assert (heuristic_calls, len(calls) - heuristic_calls) == (2, 2)


class TestSweep:
    def test_leaves_to_root(self):
        inst = gen_random_tw(2, 10, seed=4)
        ctx = prepare_context(inst.dag, inst.td)
        assert any(len(kids) == 2 for kids in ctx.children)

        class Result:
            def __init__(self, i):
                self.i = i

        visited, refs = [], {}

        def solve_bag(i, kids):
            # every result already handed to its parent has been released
            for j in visited:
                if ctx.parent[j] in visited:
                    assert refs[j]() is None
            assert [k.i for k in kids] == list(ctx.children[i])
            visited.append(i)
            out = Result(i)
            refs[i] = weakref.ref(out)
            return out

        def describe(i, out):
            return {"result": out.i, "kids": len(ctx.children[i])}

        root, per_bag = sweep(ctx, solve_bag, describe)
        assert visited == list(ctx.post_order)
        assert root.i == ctx.td.root
        assert len(per_bag) == ctx.b
        assert [r["bag"] for r in per_bag] == list(ctx.post_order)
        for r in per_bag:
            assert list(r) == ["bag", "result", "kids", "elapsed_ms"]
            assert r["result"] == r["bag"] and r["elapsed_ms"] >= 0


def _typed(records):
    return [[(k, type(v), v) for k, v in r.items()] for r in records]


class TestCompactReports:
    """A report keeps its per-bag records as one array per field and gives
    back the records ``sweep`` built, value and type alike."""

    @pytest.mark.parametrize("solver", ["approx", "exact-exp", "taylor"])
    def test_per_bag_is_what_sweep_built(self, monkeypatch, solver):
        from stochlp import decomposition, exactexp, staircase, taylor

        dist, run = {
            "approx": ("uniform-mixed",
                       lambda g, td: staircase.approx_dag(g, td, 2.3, m_override=6)),
            "exact-exp": ("exp", lambda g, td: exactexp.exact_exp(g, td, 2)),
            "taylor": ("oracle:expcdf", lambda g, td: taylor.approx_taylor(g, td, 1, tau=4)),
        }[solver]
        inst = gen_diamond_ladder(2, dist)
        built = []
        # every solver sweeps through the driver ``decomposition.solve``
        real = decomposition.sweep

        def sweep(*args):
            root, per_bag = real(*args)
            built.append(per_bag)
            return root, per_bag

        monkeypatch.setattr(decomposition, "sweep", sweep)
        _, rep = run(inst.dag, inst.td)
        assert len(built) == 1 and built[0]
        assert _typed(rep.per_bag) == _typed(built[0])
        assert rep.bag_fields == list(built[0][0])
        assert all(isinstance(c, array) for c in rep.bag_columns)

    def test_no_sweep_no_records(self):
        from stochlp import approx_taylor, exact_exp

        exp = parse_graph("2 1\n1 2 exp\n")
        oracle = parse_graph("2 1\n1 2 oracle expcdf\n")
        for _, rep in (exact_exp(exp, None, -1), approx_taylor(oracle, None, -1, tau=2)):
            assert rep.per_bag == [] and rep.bag_fields == [] and rep.bag_columns == []

    def test_records_must_share_fields_and_types(self):
        ctx = prepare_context(parse_graph("2 1\n1 2 uniform 1\n"), None)
        t0 = time.perf_counter()
        for per_bag in ([{"bag": 0, "n": 1}, {"bag": 1}],
                        [{"bag": 0, "n": 1}, {"n": 1, "bag": 1}],
                        [{"bag": 0, "n": 1}, {"bag": 1, "n": 1.0}],
                        [{"bag": 0, "n": True}],
                        [{"bag": 0, "n": "one"}]):
            with pytest.raises(InvariantViolation):
                SolveReport.of(ctx, t0, Budget(), value=0.0, per_bag=per_bag)

    def test_approx_report_retains_a_third_of_the_record_dicts(self):
        from stochlp import approx_dag

        # a list of record dicts retained 65,080 bytes here (tracemalloc,
        # CPython 3.11); the columns hold 8 bytes per bag and field
        inst = gen_chain(300)
        gc.collect()
        tracemalloc.start()
        try:
            _, rep = approx_dag(inst.dag, inst.td, 150.3, m_override=6)
            assert len(rep.per_bag) == 299
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del rep
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 65_080 // 3, f"the report retained {retained} bytes"


class TestSolveClock:
    """``elapsed_ms`` spans the solver's ``prepare_context`` call, whether
    the answer comes from the sweep or from x < 0."""

    SLEEP_S = 0.05

    @pytest.mark.parametrize("x", [-1, 2])
    @pytest.mark.parametrize("solver", ["approx", "exact-exp", "taylor"])
    def test_elapsed_ms_includes_prepare_context(self, monkeypatch, solver, x):
        from stochlp import exactexp, staircase, taylor

        module, dist, run = {
            "approx": (staircase, "uniform-mixed",
                       lambda g, td: staircase.approx_dag(g, td, x, m_override=6)),
            "exact-exp": (exactexp, "exp", lambda g, td: exactexp.exact_exp(g, td, x)),
            "taylor": (taylor, "oracle:expcdf",
                       lambda g, td: taylor.approx_taylor(g, td, x / 2, tau=4)),
        }[solver]
        real = module.prepare_context

        def slow(*args):
            time.sleep(self.SLEEP_S)
            return real(*args)

        monkeypatch.setattr(module, "prepare_context", slow)
        inst = gen_diamond_ladder(2, dist)
        _, rep = run(inst.dag, inst.td)
        assert (rep.per_bag == []) == (x < 0)
        assert rep.elapsed_ms >= self.SLEEP_S * 1000.0


class TestGenerators:
    def test_diamond_ladder_counts(self):
        from reference import enumerate_st_paths
        from stochlp.generate import gen_diamond_ladder

        inst = gen_diamond_ladder(3, dist="uniform")
        assert inst.td.width == 2
        assert len(enumerate_st_paths(inst.dag, limit=16)) == 8
        assert validate_td(inst.dag, inst.td).valid

    def test_chain_instance(self):
        from stochlp.generate import gen_chain

        inst = gen_chain(5, dist="uniform")
        assert inst.td.width == 1
        assert validate_td(inst.dag, inst.td).valid

    def test_generated_pairs_always_validate(self):
        for seed in range(10):
            inst = gen_random_tw(2, 6, seed=seed, max_edges=8)
            assert validate_td(inst.dag, inst.td).valid
            assert inst.td.width <= 2


class TestAncestorFirstRealEdges:
    def test_real_edge_owned_by_topmost_bag(self):
        # both endpoints of the edge sit in two nested bags; the bag-subgraph
        # of the shallower one must own it
        g = parse_graph("3 2\n1 2 uniform 1\n1 3 uniform 1\n")
        mp = {label: i for i, label in enumerate(g.labels)}
        td = parse_td("s td 2 3 3\nb 1 1 2 3\nb 2 1 2\n1 2\n").relabel(mp)
        assert validate_td(g, td).valid
        ctx = prepare_context(g, td)
        edge = (3 * mp[1] + 1, 3 * mp[2])
        assert edge in ctx.bag_edges[ctx.td.root]
