import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from stochlp import (
    Budget,
    BudgetExceeded,
    Dag,
    DistSpec,
    InputError,
    TreeDecomposition,
    heuristic_td,
    monte_carlo,
    parse_graph,
    series_parallel_exact,
)
from stochlp import density, exactexp, taylor
from stochlp.decomposition import prepare_context
from stochlp.exactexp import bag_density_exp, exact_exp
from stochlp.generate import gen_chain, gen_diamond_ladder, gen_random_tw
from stochlp import symbolic as sy
from conftest import assert_shared_report, single_bag_context
from reference import (bag_shape, build_bag_density_two_pass, exact_exp_unshared,
                       merge_bag_product_first)


class TestBagDensity:
    def test_single_exponential_edge(self):
        g = Dag(n=2, edges=((0, 1, DistSpec.exponential()),))
        ctx = single_bag_context(g)
        den = bag_density_exp(ctx, 0)
        ((pend, s),) = den.parts
        assert pend == frozenset()
        expect = sy.multiply(
            sy.SymbolicSum.guard(sy.var_atom(1), sy.var_atom(0)),
            sy.SymbolicSum.term(1, exps={0: -1, 1: 1}),
        )
        assert s.canonical_text() == expect.canonical_text()

    def test_internal_vertex_gives_erlang(self):
        # path u -> v -> w in one bag: integrating v yields the Erlang-2
        # density of the difference
        g = Dag(n=3, edges=((0, 1, DistSpec.exponential()), (1, 2, DistSpec.exponential())))
        ctx = single_bag_context(g)
        den = bag_density_exp(ctx, 0)
        ((pend, s),) = den.parts
        assert pend == frozenset()
        for zu, zw in ((F(2), F(0)), (F(3), F(1)), (F(1, 2), F(0))):
            val, _ = sy.evaluate(s, {0: zu, 2: zw})
            t = float(zu - zw)
            assert val == pytest.approx(t * math.exp(-t), abs=1e-13)

    def test_region_count_factorial_bound(self):
        for seed in range(4):
            inst = gen_random_tw(2, 5, seed=seed, dist="exp", max_edges=7)
            from stochlp.decomposition import prepare_context

            ctx = prepare_context(inst.dag, inst.td)
            for i in ctx.post_order:
                den = bag_density_exp(ctx, i)
                w1 = ctx.td.width + 1
                for _, s in den.parts:
                    assert len(s.regions) <= math.factorial(w1)


class TestExactExp:
    def test_per_bag_records(self):
        inst = gen_diamond_ladder(2, dist="exp")
        b = Budget()
        _, rep = exact_exp(inst.dag, inst.td, 2, budget=b)
        assert_shared_report(rep, inst.dag, inst.td, b)
        assert sorted(r["bag"] for r in rep.per_bag) == list(range(rep.bag_count))
        for r in rep.per_bag:
            assert list(r) == ["bag", "regions", "terms", "elapsed_ms"]
            assert r["regions"] >= 1 and r["terms"] >= r["regions"]

    def test_single_edge(self):
        g = parse_graph("2 1\n1 2 exp\n")
        v, rep = exact_exp(g, None, 1, emit_symbolic=True)
        assert v == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert "e^(-1)" in rep.symbolic

    def test_chain_two(self):
        g = parse_graph("3 2\n1 2 exp\n2 3 exp\n")
        v, _ = exact_exp(g, None, 2)
        assert v == pytest.approx(1 - 3 * math.exp(-2), abs=1e-12)

    def test_diamond(self, diamond_exp):
        v, _ = exact_exp(diamond_exp, None, 2)
        assert v == pytest.approx((1 - 3 * math.exp(-2)) ** 2, abs=1e-12)

    def test_cdf_axioms(self, diamond_exp):
        v0, _ = exact_exp(diamond_exp, None, 0)
        assert v0 == 0.0
        grid = [0.25, 0.5, 1.0, 1.5, 2.5, 4.0]
        vals = [exact_exp(diamond_exp, None, F(x))[0] for x in grid]
        assert vals == sorted(vals)
        v_far, _ = exact_exp(diamond_exp, None, 50)
        assert abs(v_far - 1.0) <= 1e-15

    def test_negative_x(self, diamond_exp):
        assert exact_exp(diamond_exp, None, -1)[0] == 0.0

    def test_negative_x_still_validates_decomposition(self):
        g = parse_graph("3 2\n1 2 exp\n2 3 exp\n")
        td = TreeDecomposition((frozenset({0, 1}),), ())  # vertex 2 in no bag
        with pytest.raises(InputError, match="condition1"):
            exact_exp(g, td, -1)
        b = Budget()
        v, rep = exact_exp(g, None, -1, budget=b)
        assert v == 0.0 and rep.separated_n >= g.n and rep.bag_count >= 1
        assert_shared_report(rep, g, None, b)
        assert rep.per_bag == []

    def test_negative_x_symbolic_only_when_requested(self, diamond_exp):
        assert exact_exp(diamond_exp, None, -1)[1].symbolic == ""
        assert exact_exp(diamond_exp, None, 1)[1].symbolic == ""
        assert exact_exp(diamond_exp, None, -1, emit_symbolic=True)[1].symbolic == "0"

    def test_budget_counters(self):
        # terms_peak, regions_peak and work_used since the bag density
        # eliminates each internal vertex right after its own tail group
        # (80, 80, 694 when it integrated them after every group was in; 354,
        # 80, 1497 when the merge substituted on the product; c5092d2 read
        # 1800, 80, 2020)
        inst = gen_diamond_ladder(2, dist="exp")
        b = Budget()
        exact_exp(inst.dag, inst.td, 2, budget=b)
        assert (b.terms_peak, b.regions_peak, b.work_used) == (36, 8, 326)

    @pytest.mark.parametrize("x", [4, 10])
    def test_budget_counters_four_diamonds(self, x):
        # recorded as above, and since a shared source is cumulated on the
        # child density that names it, before the children's product (1444
        # work when the product was cumulated; 168, 80, 1916 with the
        # internals integrated after every group; 1652, 80, 6785 with the
        # merge product first; c5092d2 read 8400, 80, 9416): the horizon
        # moves no counter
        inst = gen_diamond_ladder(4, dist="exp")
        b = Budget()
        exact_exp(inst.dag, inst.td, x, budget=b)
        assert (b.terms_peak, b.regions_peak, b.work_used) == (168, 8, 1334)

    def test_symbolic_text_mixed_e_const(self):
        # integral and fractional constant exponents in one sum; its terms
        # keep the order recorded when every e_const was a Fraction
        inst = gen_diamond_ladder(3, dist="exp")
        _, rep = exact_exp(inst.dag, inst.td, F(7, 16), emit_symbolic=True)
        assert rep.symbolic == ("[0 < 7/16] 9242619913/15728640*e^(-7/16) + "
                                "-141095542514485/154618822656*e^(-7/8) + 1")

    # both limits sit below the peaks test_budget_counters pins (36 terms,
    # 326 work)
    @pytest.mark.parametrize("limit", [{"max_terms": 30}, {"max_work": 100}])
    def test_budget_abort(self, limit):
        inst = gen_diamond_ladder(2, dist="exp")
        with pytest.raises(BudgetExceeded):
            exact_exp(inst.dag, inst.td, 2, budget=Budget(**limit))

    @pytest.mark.parametrize("n, seed", [(5, 1), (5, 3), (6, 3), (6, 5), (7, 2)])
    def test_values_bit_identical_across_merge_orders(self, n, seed):
        # exact arithmetic gives the same bits whatever order the merge
        # eliminates in, on either decomposition; the 1e-12 tests beside this
        # one stay
        inst = gen_random_tw(2, n, seed=seed, dist="exp", max_edges=9)
        tds = (inst.td, heuristic_td(inst.dag))
        for x in (F(1), F(5, 2)):
            vals = {exact_exp(inst.dag, td, x, _shuffle_seed=s)[0] for td in tds for s in range(3)}
            assert len(vals) == 1, (x, vals)

    def test_values_bit_identical_across_roots(self):
        # any root of either decomposition computes the same exact groups, so
        # the correctly rounded value has one bit pattern (0x1.4146d032dd9cbp-11)
        inst = gen_diamond_ladder(4, dist="exp")
        tds = (inst.td, heuristic_td(inst.dag))
        assert [td.b for td in tds] == [8, 13]
        vals = {exact_exp(inst.dag, dataclasses.replace(td, root=r), F(4))[0]
                for td in tds for r in range(td.b)}
        assert len(vals) == 1, vals

    def test_pair_denominators_stay_small(self, monkeypatch):
        # sums of unreduced pairs multiply denominators until the operation
        # reduces them; integrating each polynomial group at once, rather
        # than each term, keeps the largest below 16,384 bits on this query
        # (208,962 bits with one antiderivative per term)
        widest = 0
        add = sy._add

        def recording_add(bucket, key, c):
            nonlocal widest
            add(bucket, key, c)
            if type(bucket[key]) is tuple:
                widest = max(widest, bucket[key][1].bit_length())

        monkeypatch.setattr(sy, "_add", recording_add)
        inst = gen_diamond_ladder(16, dist="exp")
        exact_exp(inst.dag, inst.td, F(16))
        assert 0 < widest <= 16_384

    def test_decomposition_independence(self):
        for seed in (0, 2, 5):
            inst = gen_random_tw(2, 5, seed=seed, dist="exp", max_edges=7)
            v1, _ = exact_exp(inst.dag, inst.td, F(3, 2))
            v2, _ = exact_exp(inst.dag, heuristic_td(inst.dag), F(3, 2))
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_merge_order_invariance(self):
        inst = gen_random_tw(2, 5, seed=3, dist="exp", max_edges=7)
        base, _ = exact_exp(inst.dag, inst.td, 1)
        for seed in (1, 2):
            shuffled, _ = exact_exp(inst.dag, inst.td, 1, _shuffle_seed=seed)
            assert shuffled == pytest.approx(base, abs=1e-12)

    def test_against_series_parallel(self):
        g = gen_diamond_ladder(2, dist="exp").dag
        v, _ = exact_exp(g, None, F(2))
        sp = series_parallel_exact(g, F(2))
        assert v == pytest.approx(sp, abs=1e-9)

    def test_against_monte_carlo(self):
        rng = random.Random(0)
        for seed in (1, 4):
            inst = gen_random_tw(2, 5, seed=seed, dist="exp", max_edges=6)
            v, _ = exact_exp(inst.dag, inst.td, 2)
            est, se = monte_carlo(inst.dag, 2.0, 200_000, seed=seed)
            assert abs(v - est) <= 3.5 * max(se, 1e-9)

    def test_rejects_uniform(self, chain2):
        with pytest.raises(InputError):
            exact_exp(chain2, None, 1)

    def test_chain_symbolic_is_erlang(self):
        g = parse_graph("3 2\n1 2 exp\n2 3 exp\n")
        vals = {}
        for x in (F(1, 2), F(1), F(2), F(7, 2)):
            v, _ = exact_exp(g, None, x)
            xf = float(x)
            vals[x] = (v, 1 - math.exp(-xf) * (1 + xf))
        for v, want in vals.values():
            assert v == pytest.approx(want, abs=1e-12)


class TestMonotone:
    """Properties of a distribution function that need no reference value:
    F is nondecreasing in the horizon, and an extra edge only adds paths, so
    it never raises F.  Values are correctly rounded and rounding is
    monotone, so both hold bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_horizon_and_extra_edge(self, seed):
        rng = random.Random(seed)
        inst = gen_random_tw(2, rng.randint(4, 6), seed=seed, dist="exp", max_edges=6)
        g = inst.dag
        xs = sorted({F(rng.randint(1, 96), 16) for _ in range(5)} | {F(1, 64)})
        vals = [exact_exp(g, inst.td, x)[0] for x in xs]
        assert vals == sorted(vals), xs
        u, v = rng.choice([(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                           if (u, v) not in g.dist_of])
        more = Dag(g.n, g.edges + ((u, v, DistSpec.exponential()),))
        for x, val in zip(xs, vals):
            assert exact_exp(more, None, x)[0] <= val, (u, v, x)


def _exp_shape_corpus():
    """(name, dag, decomposition, horizon): the exp ladders with 4 and 8
    diamonds on their given and heuristic decompositions, and random partial
    2-trees on 6 vertices, seeds 0-3, on their given ones."""
    for d in (4, 8):
        inst = gen_diamond_ladder(d, dist="exp")
        yield f"ladder-{d}", inst.dag, inst.td, F(d)
        yield f"ladder-{d}/heuristic", inst.dag, heuristic_td(inst.dag), F(d)
    for seed in range(4):
        inst = gen_random_tw(2, 6, seed=seed, dist="exp")
        yield f"random-tw-6/seed={seed}", inst.dag, inst.td, F(2)


def _timeless(rep) -> dict:
    """A report's fields and bag records without their timings."""
    out = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)
           if f.name not in ("elapsed_ms", "bag_columns")}
    out["per_bag"] = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rep.per_bag]
    return out


class TestSharedBagDensities:
    """``exact_exp`` builds one bag density per bag shape and hands every
    later bag of that shape a renamed copy, with no bit, term order or
    budget counter moved."""

    def test_each_bag_gets_what_its_own_build_gives(self, monkeypatch):
        handed, built = [], []
        merge, build = exactexp.merge_bag, exactexp.bag_density_exp

        def recording_merge(ctx, i, density, *args, **kwargs):
            handed.append((ctx, i, density))
            return merge(ctx, i, density, *args, **kwargs)

        def recording_build(ctx, i, *args, **kwargs):
            built.append(i)
            return build(ctx, i, *args, **kwargs)

        monkeypatch.setattr(exactexp, "merge_bag", recording_merge)
        monkeypatch.setattr(exactexp, "bag_density_exp", recording_build)

        def listed(density):
            return [(pend, list(s.regions.items())) for pend, s in density.parts]

        counts = {}
        for name, g, td, x in _exp_shape_corpus():
            handed.clear()
            built.clear()
            exact_exp(g, td, x)
            ctx = handed[0][0]
            assert [i for _, i, _ in handed] == list(ctx.post_order)
            for _, i, density in handed:
                assert listed(density) == listed(build(ctx, i)), (name, i)
            counts[name] = len(built), ctx.b
        assert counts == {
            "ladder-4": (3, 8), "ladder-4/heuristic": (3, 13),
            "ladder-8": (3, 16), "ladder-8/heuristic": (3, 25),
            "random-tw-6/seed=0": (2, 4), "random-tw-6/seed=1": (3, 5),
            "random-tw-6/seed=2": (3, 5), "random-tw-6/seed=3": (2, 4),
        }

    def test_matches_sweep_that_builds_every_bag(self):
        for name, g, td, x in _exp_shape_corpus():
            want_budget, budget = Budget(), Budget()
            want, want_rep = exact_exp_unshared(g, td, x, want_budget)
            got, rep = exact_exp(g, td, x, budget=budget, emit_symbolic=True)
            assert got.hex() == want.hex(), name
            assert _timeless(rep) == _timeless(want_rep), name
            assert (budget.work_used, budget.terms_peak, budget.regions_peak) == \
                (want_budget.work_used, want_budget.terms_peak, want_budget.regions_peak), name


def _taylor_shape_corpus():
    """(name, dag, decomposition, horizon, truncation order): the Taylor
    ladders with 2 and 4 diamonds on their given and heuristic
    decompositions, and random partial 2-trees on 6 vertices, seeds 0-3, on
    their given ones (at order 3, which halves their cost)."""
    for d in (2, 4):
        inst = gen_diamond_ladder(d, dist="oracle:expcdf")
        yield f"ladder-{d}", inst.dag, inst.td, F(1, 2), 4
        yield f"ladder-{d}/heuristic", inst.dag, heuristic_td(inst.dag), F(1), 4
    for seed in range(4):
        inst = gen_random_tw(2, 6, seed=seed, dist="oracle:expcdf")
        yield f"random-tw-6/seed={seed}", inst.dag, inst.td, F(1), 3


class TestSharedTaylorDensities:
    """``approx_taylor`` builds one truncated bag density per bag shape and
    hands every later bag of that shape a renamed copy, as ``exact_exp``
    does, with no bit, term order or budget counter moved."""

    def test_each_bag_gets_what_its_own_build_gives(self, monkeypatch):
        handed, built = [], []
        merge, build = taylor.merge_bag, taylor.bag_taylor

        def recording_merge(ctx, i, density, *args, **kwargs):
            handed.append((ctx, i, density))
            return merge(ctx, i, density, *args, **kwargs)

        def recording_build(ctx, i, *args, **kwargs):
            built.append(i)
            return build(ctx, i, *args, **kwargs)

        monkeypatch.setattr(taylor, "merge_bag", recording_merge)
        monkeypatch.setattr(taylor, "bag_taylor", recording_build)

        def listed(density):
            return [(pend, list(s.regions.items())) for pend, s in density.parts]

        counts = {}
        for name, g, td, x, tau in _taylor_shape_corpus():
            handed.clear()
            built.clear()
            taylor.approx_taylor(g, td, x, tau=tau)
            ctx = handed[0][0]
            assert [i for _, i, _ in handed] == list(ctx.post_order)
            for _, i, density in handed:
                fresh = build(ctx, i, taylor.resolve_oracle, tau, x)
                assert listed(density) == listed(fresh), (name, i)
            # the first bag of each shape is the one built
            shapes = [bag_shape(ctx, i)[:3] for i in ctx.post_order]
            assert [bag_shape(ctx, i)[:3] for i in built] == list(dict.fromkeys(shapes)), name
            counts[name] = len(built), ctx.b
        assert counts == {
            "ladder-2": (3, 4), "ladder-2/heuristic": (3, 7),
            "ladder-4": (3, 8), "ladder-4/heuristic": (3, 13),
            "random-tw-6/seed=0": (2, 4), "random-tw-6/seed=1": (3, 5),
            "random-tw-6/seed=2": (3, 5), "random-tw-6/seed=3": (2, 4),
        }

    def test_matches_sweep_that_builds_every_bag(self, monkeypatch):
        def run(g, td, x, tau):
            budget = Budget()
            v, rep = taylor.approx_taylor(g, td, x, tau=tau, budget=budget)
            return v.hex(), _timeless(rep), \
                (budget.work_used, budget.terms_peak, budget.regions_peak)

        for name, g, td, x, tau in _taylor_shape_corpus():
            got = run(g, td, x, tau)
            with monkeypatch.context() as m:
                # every bag calls bag_taylor: no result is shared
                m.setattr(taylor, "by_shape", lambda ctx, budget, build, rename: build)
                want = run(g, td, x, tau)
            assert got == want, name


class TestMergeAgainstProductFirst:
    """The merge substitutes point masses and frozen terminals on each factor
    before their product, and cumulates a shared source on the child density
    that names it; the product-first merge of tests/reference.py must give
    the same bits and the same symbolic text, from a peak no lower."""

    @staticmethod
    def both(monkeypatch, solver, merge_owner, *args, **kwargs):
        def run():
            b = Budget()
            v, rep = solver(*args, budget=b, **kwargs)
            return v.hex(), getattr(rep, "symbolic", ""), b.terms_peak

        new = run()
        with monkeypatch.context() as m:
            m.setattr(merge_owner, "merge_bag", merge_bag_product_first)
            old = run()
        return new, old

    def same_exact_exp(self, monkeypatch, g, tds, xs):
        for td in tds:
            for x in xs:
                for order in (None, 1):
                    new, old = self.both(monkeypatch, exact_exp, exactexp, g, td, x,
                                         emit_symbolic=True, _shuffle_seed=order)
                    assert new[:2] == old[:2], (td, x, order)
                    assert new[2] <= old[2], (td, x, order)

    @pytest.mark.parametrize("n, seed", [(4, 0), (5, 1), (5, 3), (6, 3), (6, 5), (7, 2), (7, 4)])
    def test_exact_exp(self, monkeypatch, n, seed):
        inst = gen_random_tw(2, n, seed=seed, dist="exp", max_edges=9)
        self.same_exact_exp(monkeypatch, inst.dag, (inst.td, heuristic_td(inst.dag)),
                            (F(1), F(5, 2)))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_exact_exp_ladder(self, monkeypatch, d):
        # from three diamonds on, the given decomposition has a merge whose
        # two children have disjoint variables and a source shared with the
        # bag, which only one child names
        inst = gen_diamond_ladder(d, dist="exp")
        self.same_exact_exp(monkeypatch, inst.dag, (inst.td,),
                            (F(0), F(d, 2), F(d), F(5 * d, 2)))

    def test_exact_exp_overlapping_children_share_a_source(self, monkeypatch):
        # random-tw-6/seed=0 on its heuristic decomposition: one merge whose
        # two children share a variable has a source shared with the bag,
        # which the children's product is no longer differentiated in
        inst = gen_random_tw(2, 6, seed=0, dist="exp", max_edges=9)
        td = heuristic_td(inst.dag)
        seen = []
        phi_union = density._phi_union

        def spy(ctx, i, child_sums, budget):
            if len(child_sums) == 2 and child_sums[0].free_vars() & child_sums[1].free_vars():
                seen.append(bool(ctx.S[i] & ctx.S_U[i]))
            return phi_union(ctx, i, child_sums, budget)

        with monkeypatch.context() as m:
            m.setattr(density, "_phi_union", spy)
            exact_exp(inst.dag, td, F(1))
        assert True in seen
        self.same_exact_exp(monkeypatch, inst.dag, (td,), (F(1), F(5, 2)))

    def test_cumulates_take_no_product(self, monkeypatch):
        # a shared source is cumulated on one operand of the merge, before
        # any product: at bag i no cumulate takes a sum with more terms than
        # the largest child sum or bag density part of bag i.  Cumulating the
        # children's product instead took 348 terms at the last merge below
        # the root, against 29 in the largest child sum and 6 in the bag
        inst = gen_diamond_ladder(8, dist="exp")
        bound, seen = [0], []
        merge, cumulate = exactexp.merge_bag, density.cumulate

        def spy_merge(ctx, i, bag_density, child_sums, *args, **kwargs):
            bound[0] = max(s.term_count() for s in [*child_sums, *(p for _, p in bag_density.parts)])
            return merge(ctx, i, bag_density, child_sums, *args, **kwargs)

        def spy_cumulate(s, *args, **kwargs):
            seen.append((s.term_count(), bound[0]))
            return cumulate(s, *args, **kwargs)

        monkeypatch.setattr(exactexp, "merge_bag", spy_merge)
        monkeypatch.setattr(density, "cumulate", spy_cumulate)
        exact_exp(inst.dag, inst.td, F(8))
        assert len(seen) == 14
        assert all(terms <= most for terms, most in seen), seen

    def test_taylor(self, monkeypatch):
        # the product-first merge still adds the Taylor support guards at the
        # merge; the edge factors carry that support, so no bit may move.
        # The random partial 2-trees are test_exact_exp's, at order 3
        cases = [("ladder-2", gen_diamond_ladder(2, dist="oracle:expcdf"), 4)]
        cases += [(f"random-tw-{n}/seed={seed}",
                   gen_random_tw(2, n, seed=seed, dist="oracle:expcdf", max_edges=9), 3)
                  for n, seed in [(4, 0), (5, 1), (5, 3), (6, 3), (6, 5), (7, 2), (7, 4)]]
        for name, inst, tau in cases:
            for td in (inst.td, heuristic_td(inst.dag)):
                for x in (F(1, 2), F(1)):
                    new, old = self.both(monkeypatch, taylor.approx_taylor, taylor, inst.dag, td,
                                         x, tau=tau)
                    assert new[0] == old[0], (name, td, x)


class TestBuildAgainstTwoPass:
    """The bag density eliminates each internal vertex right after its own
    tail group; the two-pass build of tests/reference.py, which eliminates
    only after every group is in, must give the same pending-pair keys, parts
    of equal value, the same bits and symbolic text, and peaks no lower."""

    @staticmethod
    def both(monkeypatch, run):
        new = run()
        with monkeypatch.context() as m:
            m.setattr(exactexp, "build_bag_density", build_bag_density_two_pass)
            m.setattr(taylor, "build_bag_density", build_bag_density_two_pass)
            old = run()
        return new, old

    def solve(self, monkeypatch, solver, *args, **kwargs):
        def run():
            b = Budget()
            v, rep = solver(*args, budget=b, **kwargs)
            return v.hex(), getattr(rep, "symbolic", ""), b.terms_peak, b.work_used

        new, old = self.both(monkeypatch, run)
        assert new[:2] == old[:2]
        assert new[2] <= old[2] and new[3] <= old[3]

    def bags(self, monkeypatch, ctx, bag_density, rng):
        for i in ctx.post_order:
            new, old = self.both(monkeypatch, lambda: bag_density(ctx, i).parts)
            assert [pend for pend, _ in new] == [pend for pend, _ in old], i
            for (_, a), (_, b) in zip(new, old):
                free = sorted(a.free_vars() | b.free_vars())
                for k in range(3):
                    vals = [F(rng.randint(1, 10**6), 10**5) for _ in free]
                    if k:  # decreasing in id, so that every edge guard holds
                        vals.sort(reverse=True)
                    point = dict(zip(free, vals))
                    assert sy.evaluate(a, point)[0] == sy.evaluate(b, point)[0], (i, point)

    @pytest.mark.parametrize("n, seed", [(4, 0), (5, 1), (5, 3), (6, 3), (6, 5), (7, 2), (7, 4)])
    def test_exact_exp(self, monkeypatch, n, seed):
        inst = gen_random_tw(2, n, seed=seed, dist="exp", max_edges=9)
        rng = random.Random(seed)
        for td in (inst.td, heuristic_td(inst.dag)):
            self.bags(monkeypatch, prepare_context(inst.dag, td), bag_density_exp, rng)
            for x in (F(1), F(5, 2)):
                self.solve(monkeypatch, exact_exp, inst.dag, td, x, emit_symbolic=True)

    def test_taylor(self, monkeypatch):
        inst = gen_diamond_ladder(2, dist="oracle:expcdf")
        rng = random.Random(0)
        for td in (inst.td, None):
            self.bags(monkeypatch, prepare_context(inst.dag, td),
                      # the bags are compared at points up to 10, inside the support
                      lambda ctx, i: taylor.bag_taylor(ctx, i, taylor.resolve_oracle, 4, F(11)),
                      rng)
            for x in (F(1, 2), F(1)):
                self.solve(monkeypatch, taylor.approx_taylor, inst.dag, td, x, tau=4)


class TestPublicMergeOps:
    def test_merge_density_two_bag_chain(self):
        from fractions import Fraction as F
        from stochlp import parse_td
        from stochlp.decomposition import prepare_context
        from stochlp.density import merge_bag
        from stochlp import symbolic as sy

        g = parse_graph("3 2\n1 2 exp\n2 3 exp\n")
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n").relabel(
            {label: i for i, label in enumerate(g.labels)}
        )
        ctx = prepare_context(g, td)
        sums = {}
        for i in ctx.post_order:
            den = bag_density_exp(ctx, i)
            kids = [sums.pop(c) for c in ctx.children[i]]
            sums[i] = merge_bag(ctx, i, den, kids, F(2), Budget.default())
        final = sums[ctx.td.root]
        assert final.free_vars() == frozenset()
        val, _ = sy.evaluate(final)
        assert val == pytest.approx(1 - 3 * math.exp(-2), abs=1e-12)


class TestDegenerateShapes:
    def test_isolated_vertex_contributes_unit_factor(self):
        # vertex 4 has no edges; its zero-length chain must not perturb the
        # distribution of the remaining 2-chain
        g = parse_graph("4 2\n1 2 exp\n2 3 exp\n")
        v, _ = exact_exp(g, None, 2)
        assert v == pytest.approx(1 - 3 * math.exp(-2), abs=1e-12)

    def test_single_vertex_graph(self):
        # no random edges at all: the probability is 1 for any positive
        # horizon (boundary queries report open-region limits)
        g = parse_graph("1 0\n")
        assert exact_exp(g, None, F(1, 2))[0] == 1.0
        assert exact_exp(g, None, F(1, 1000))[0] == 1.0
