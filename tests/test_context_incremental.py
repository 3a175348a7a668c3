"""The bottom-up decomposition context against the from-scratch reference in
``context_oracle``: every field a solver reads must be equal (the role sets
restricted to their bag, which is all the context keeps of them), the
whole-subtree invariant battery must pass on it, and the bag-local battery
must still catch a corrupted context."""

import dataclasses
import time

import pytest

from context_oracle import ROLE_FIELDS, SOLVER_FIELDS, reference_context, reference_internals, reference_verify
from stochlp import InvariantViolation, TreeDecomposition, parse_graph
from stochlp.decomposition import _verify_context, prepare_context
from stochlp.generate import gen_chain, gen_diamond_ladder, gen_random_tw


def _many_source_sink(spine: int):
    """A path a_0 -> ... -> a_spine with a private source s_j -> a_j and a
    private sink a_j -> t_j at every spine vertex, and a decomposition with a
    pendant bag per source and sink: the global sources are forgotten in
    leaf bags, far below the root."""
    a = lambda j: j + 1  # noqa: E731
    s = lambda j: spine + 2 + j  # noqa: E731
    t = lambda j: 2 * spine + 3 + j  # noqa: E731
    n = 3 * (spine + 1)
    edges = [(a(j), a(j + 1)) for j in range(spine)]
    edges += [(s(j), a(j)) for j in range(spine + 1)]
    edges += [(a(j), t(j)) for j in range(spine + 1)]
    g = parse_graph(f"{n} {len(edges)}\n" + "".join(f"{u} {v} uniform 1\n" for u, v in edges))
    mp = {label: i for i, label in enumerate(g.labels)}
    bags = [frozenset({mp[a(j)], mp[a(j + 1)]}) for j in range(spine)]
    tree = [(j, j + 1) for j in range(spine - 1)]
    for j in range(spine + 1):
        host = min(j, spine - 1)  # a spine bag holding a_j
        for leaf in (s(j), t(j)):
            bags.append(frozenset({mp[a(j)], mp[leaf]}))
            tree.append((host, len(bags) - 1))
    return g, TreeDecomposition(tuple(bags), tuple(tree))


def _cases():
    for k in (1, 2, 3):
        for seed in range(6):
            inst = gen_random_tw(k, k + 2 + seed % 4, seed=seed, max_edges=3 * k + 2)
            yield f"random-tw-k{k}-s{seed}", inst.dag, inst.td
    for n in (2, 5, 9):
        inst = gen_chain(n)
        yield f"chain-{n}", inst.dag, inst.td
    for d in (1, 2, 4):
        inst = gen_diamond_ladder(d, dist="exp")
        yield f"ladder-{d}", inst.dag, inst.td
    g, td = _many_source_sink(5)
    yield "many-source-sink", g, td


CASES = [
    pytest.param(g, td, id=f"{name}-{'heuristic' if heur else 'given'}")
    for name, g, given in _cases()
    for heur, td in ((False, given), (True, None))
]


@pytest.mark.parametrize("g,td", CASES)
def test_fields_match_reference(g, td):
    ctx, _, _ = prepare_context(g, td)
    ref = reference_context(ctx.dag, ctx.td)
    for name in SOLVER_FIELDS:
        want = ref[name]
        if name in ROLE_FIELDS:
            want = tuple(r & bag for r, bag in zip(want, ctx.td.bags))
        assert getattr(ctx, name) == want, name
    reference_verify(ctx.dag, ctx.td, ref)


@pytest.mark.parametrize("case", ["chain-800-heuristic", "many-source-sink-200"])
def test_role_sets_are_bag_local(case):
    # global sources and terminals forgotten deep below a bag must not ride
    # along in its role sets, or their total size grows quadratically
    g, td = (gen_chain(800).dag, None) if case.startswith("chain") else _many_source_sink(200)
    ctx, _, _ = prepare_context(g, td)
    bags = ctx.td.bags
    total = 0
    for name in ROLE_FIELDS:
        sets = getattr(ctx, name)
        assert all(r <= bag for r, bag in zip(sets, bags)), name
        total += sum(map(len, sets))
    assert total <= 4 * sum(map(len, bags)), f"{total} role-set entries"


def _corrupt_cases(ctx):
    """(description, corrupted context) pairs the verifier must reject."""
    # a bag vertex that does not become internal at this merge
    i = next(i for i in range(ctx.b) if ctx.td.bags[i] - ctx.J[i])
    J = list(ctx.J)
    J[i] = J[i] | {min(ctx.td.bags[i] - J[i])}
    yield "J", dataclasses.replace(ctx, J=tuple(J))

    def move(edge, src, dst):
        moved = list(ctx.bag_edges)
        moved[src] = moved[src] - {edge}
        moved[dst] = moved[dst] | {edge}
        return dataclasses.replace(ctx, bag_edges=tuple(moved))

    def holds(j, e):
        return j is not None and set(e) <= ctx.td.bags[j]

    # an edge moved below its topmost common bag
    owner = next(i for i in range(ctx.b) if ctx.children[i] and ctx.bag_edges[i])
    edge = min(ctx.bag_edges[owner])
    yield "ownership", move(edge, owner, ctx.children[owner][0])
    # an edge moved to a bag missing an endpoint, under a parent that
    # misses one too
    far, edge = next((j, e) for e in sorted(ctx.bag_edges[owner]) for j in range(ctx.b)
                     if not holds(j, e) and not holds(ctx.parent[j], e))
    yield "separation", move(edge, owner, far)

    # give a bag vertex both subtree roles
    i = next(i for i in range(ctx.b) if ctx.S_D[i] & ctx.td.bags[i])
    T_D = list(ctx.T_D)
    T_D[i] = T_D[i] | (ctx.S_D[i] & ctx.td.bags[i])
    yield "subtree roles", dataclasses.replace(ctx, T_D=tuple(T_D))

    # a source shared by the root bag and its uncapped subtree: it has no
    # parent bag to stay alive in
    root = ctx.td.root
    S_U = list(ctx.S_U)
    S_U[root] = S_U[root] | {min(ctx.S[root] & ctx.S_D[root])}
    yield "root shared source", dataclasses.replace(ctx, S_U=tuple(S_U))


def test_bag_local_battery_rejects_corrupted_context():
    inst = gen_random_tw(2, 7, seed=3)
    ctx, _, _ = prepare_context(inst.dag, inst.td)
    internal_D, internal_U = reference_internals(reference_context(ctx.dag, ctx.td), ctx.td, ctx.dag)
    _verify_context(ctx, internal_D, internal_U)
    for what, bad in _corrupt_cases(ctx):
        with pytest.raises(InvariantViolation):
            _verify_context(bad, internal_D, internal_U)
            pytest.fail(f"corrupted {what} passed the battery")


def test_prepare_context_scales_linearly():
    # a linear front end gives about 4 per quadrupling of the chain length,
    # whole-subtree unions about 16; the bound leaves room for timing noise,
    # the sizes alternate so that a slow phase of the machine hits both, and
    # CPU time leaves out the time other processes hold the core
    chains = {n: gen_chain(n) for n in (400, 1600)}
    best = dict.fromkeys(chains, float("inf"))
    for _ in range(5):
        for n, inst in chains.items():
            t0 = time.process_time()
            prepare_context(inst.dag, inst.td)
            best[n] = min(best[n], time.process_time() - t0)
    ratio = best[1600] / best[400]
    assert ratio < 8, f"prepare_context n=1600 over n=400 took {ratio:.1f}x"
