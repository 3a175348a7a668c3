import math
from fractions import Fraction as F

import pytest

from stochlp import Budget, Dag, DistSpec, InputError, TreeDecomposition, parse_graph
from stochlp.exactexp import exact_exp
from stochlp.taylor import (
    BUILTIN_ORACLES,
    DistributionOracle,
    approx_taylor,
    bag_taylor,
    check_oracle,
    choose_tau,
    total_error_bound,
)
from stochlp import symbolic as sy
from conftest import assert_shared_report, single_bag_context


class TestChooseTau:
    def test_spec_spot_value(self):
        assert choose_tau(1, 1.0, 16, 0.1) == 60

    def test_all_addends_vanish(self):
        assert choose_tau(1, 0.0, 1, 1.0) == 1

    def test_doubling_bags_adds_at_most_two(self):
        for b in (1, 4, 16, 64):
            assert choose_tau(1, 1.0, 2 * b, 0.5) - choose_tau(1, 1.0, b, 0.5) <= 2

    def test_bad_epsilon(self):
        with pytest.raises(InputError):
            choose_tau(1, 1.0, 4, 0.0)

    @pytest.mark.parametrize("tau", [-1, -2])
    @pytest.mark.parametrize("x", [1, -1])
    def test_negative_tau_rejected(self, tau, x):
        # rejected with the other input checks, before the answer for x < 0
        g = parse_graph("2 1\n1 2 oracle expcdf\n")
        with pytest.raises(InputError, match="truncation order"):
            approx_taylor(g, None, x, tau=tau)


class TestOracles:
    def test_exp_taylor_coeffs(self):
        orc = BUILTIN_ORACLES["expcdf"]
        # 1 - e^{-t} = t - t^2/2 + t^3/6 - ...
        assert orc.taylor_poly(3) == [F(0), F(1), F(-1, 2), F(1, 6)]

    def test_unitslab_is_linear(self):
        orc = BUILTIN_ORACLES["unitslab"]
        assert orc.taylor_poly(5) == [F(0), F(1), F(0), F(0), F(0), F(0)]

    def test_unitslab_horizon_guard(self):
        g = parse_graph("2 1\n1 2 oracle unitslab\n")
        with pytest.raises(InputError):
            approx_taylor(g, None, 2, tau=4)
        v, _ = approx_taylor(g, None, F(1, 2), tau=4)
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_derivative_magnitude_guard(self):
        bad = DistributionOracle(
            name="bad",
            taylor_coeff=lambda d: F(2) if d == 1 else F(0),
            deriv_at=lambda d, t: 2.0 if d == 1 else 0.0,
            sample=lambda gen, size: gen.random(size),
        )
        with pytest.raises(InputError):
            check_oracle(bad, 1.0, 4)

    def test_prop8_single_factor_remainder(self):
        # |taylor(F) - F| <= t^(tau+1)/(tau+1)! for the exponential CDF
        orc = BUILTIN_ORACLES["expcdf"]
        for tau in (2, 4, 7):
            coeffs = orc.taylor_poly(tau)
            for j in range(100):
                t = 2.0 * (j + 1) / 100.0
                approx = sum(float(c) * t**k for k, c in enumerate(coeffs))
                exact = 1 - math.exp(-t)
                bound = t ** (tau + 1) / math.factorial(tau + 1)
                assert abs(approx - exact) <= bound + 1e-15


class TestBagTaylor:
    def test_single_edge_payload(self):
        g = Dag(n=2, edges=((0, 1, DistSpec.oracle("expcdf")),))
        ctx = single_bag_context(g)
        from stochlp.taylor import resolve_oracle

        den = bag_taylor(ctx, 0, resolve_oracle, tau=3)
        ((pend, s),) = den.parts
        assert pend == frozenset()
        # density = 1 - t + t^2/2 on the guarded region, t = z0 - z1
        for zu in (F(1, 4), F(1), F(3, 2)):
            val, _ = sy.evaluate(s, {0: zu, 1: F(0)})
            t = float(zu)
            assert val == pytest.approx(1 - t + t * t / 2, abs=1e-13)

    def test_truncation_identity_for_polynomial_cdf(self):
        g = Dag(n=2, edges=((0, 1, DistSpec.oracle("unitslab")),))
        ctx = single_bag_context(g)
        from stochlp.taylor import resolve_oracle

        d_small = bag_taylor(ctx, 0, resolve_oracle, tau=2)
        d_large = bag_taylor(ctx, 0, resolve_oracle, tau=9)
        assert d_small.parts[0][1].canonical_text() == d_large.parts[0][1].canonical_text()


class TestApproxTaylor:
    def test_per_bag_records(self):
        g = parse_graph("4 4\n1 2 oracle expcdf\n1 3 oracle expcdf\n"
                        "2 4 oracle expcdf\n3 4 oracle expcdf\n")
        b = Budget()
        _, rep = approx_taylor(g, None, 1, tau=4, budget=b)
        assert_shared_report(rep, g, None, b)
        assert sorted(r["bag"] for r in rep.per_bag) == list(range(rep.bag_count))
        for r in rep.per_bag:
            assert list(r) == ["bag", "regions", "terms", "elapsed_ms"]
            assert r["regions"] >= 1 and r["terms"] >= r["regions"]

    def test_single_edge_accuracy(self):
        g = parse_graph("2 1\n1 2 oracle expcdf\n")
        v, rep = approx_taylor(g, None, 1, tau=10)
        err = abs(v - (1 - math.exp(-1)))
        assert err <= 1e-6
        assert err <= rep.theoretical_bound

    def test_tau_one_is_linear_cdf(self):
        g = parse_graph("2 1\n1 2 oracle expcdf\n")
        v, rep = approx_taylor(g, None, 1, tau=1)
        assert v == pytest.approx(1.0, abs=1e-12)  # integral of density 1 over [0,1]
        assert abs(v - (1 - math.exp(-1))) <= rep.theoretical_bound

    def test_additive_soundness_small(self):
        g = parse_graph("3 2\n1 2 oracle expcdf\n2 3 oracle expcdf\n")
        ge = parse_graph("3 2\n1 2 exp\n2 3 exp\n")
        for tau in (4, 8):
            for x in (F(1, 2), F(1)):
                v, rep = approx_taylor(g, None, x, tau=tau)
                ve, _ = exact_exp(ge, None, x)
                assert abs(v - ve) <= rep.theoretical_bound

    def test_error_decreases_with_tau(self):
        g = parse_graph("3 2\n1 2 oracle expcdf\n2 3 oracle expcdf\n")
        ge = parse_graph("3 2\n1 2 exp\n2 3 exp\n")
        ve, _ = exact_exp(ge, None, 1)
        errs = [abs(approx_taylor(g, None, 1, tau=tau)[0] - ve) for tau in (6, 8, 10, 12)]
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    def test_bound_monotone_beyond_threshold(self):
        b1 = total_error_bound(5, 20, 1.0, 4)
        b2 = total_error_bound(5, 21, 1.0, 4)
        assert b2 <= b1

    def test_formula_tau_infeasible_message(self):
        g = parse_graph("3 2\n1 2 oracle expcdf\n2 3 oracle expcdf\n")
        with pytest.raises(InputError, match="supply --tau"):
            approx_taylor(g, None, 1, eps_additive=0.5)

    def test_oracle_override(self):
        g = parse_graph("2 1\n1 2 oracle unitslab\n")
        v, _ = approx_taylor(g, None, F(1, 2), tau=6, oracle="expcdf")
        assert v == pytest.approx(1 - math.exp(-0.5), abs=1e-4)

    def test_merge_order_invariance(self):
        from stochlp.generate import gen_chain

        inst = gen_chain(4, dist="oracle:expcdf")
        base, _ = approx_taylor(inst.dag, inst.td, 1, tau=6)
        for seed in (1, 5):
            v, _ = approx_taylor(inst.dag, inst.td, 1, tau=6, _shuffle_seed=seed)
            assert v == pytest.approx(base, abs=1e-12)

    def test_negative_x_still_validates_inputs(self):
        g = parse_graph("3 2\n1 2 oracle expcdf\n2 3 oracle expcdf\n")
        td = TreeDecomposition((frozenset({0, 1}),), ())  # vertex 2 in no bag
        with pytest.raises(InputError, match="condition1"):
            approx_taylor(g, td, -1, tau=4)
        with pytest.raises(InputError, match="unknown oracle"):
            approx_taylor(g, None, -1, tau=4, oracle="bogus")
        for eps in (0, 5, float("nan")):
            with pytest.raises(InputError, match="additive error target"):
                approx_taylor(g, None, -1, eps_additive=eps)
        b = Budget()
        v, rep = approx_taylor(g, None, -1, eps_additive=0.1, budget=b)
        assert v == 0.0 and rep.separated_n >= g.n and rep.bag_count >= 1
        assert_shared_report(rep, g, None, b)
        assert rep.per_bag == []

    def test_budget_counters(self):
        # terms_peak, regions_peak and work_used as recorded in the child of
        # c5092d2 that sets frozen terminals to 0 on the bag factor before the
        # product (c5092d2 read 3600, 40, 10688)
        g = parse_graph("4 4\n1 2 oracle expcdf\n1 3 oracle expcdf\n"
                        "2 4 oracle expcdf\n3 4 oracle expcdf\n")
        b = Budget()
        _, rep = approx_taylor(g, None, 1, tau=4, budget=b)
        assert (b.terms_peak, b.regions_peak, b.work_used) == (1440, 12, 10688)
        assert rep.terms_peak == b.terms_peak

    def test_rejects_exp_edges(self):
        g = parse_graph("2 1\n1 2 exp\n")
        with pytest.raises(InputError):
            approx_taylor(g, None, 1, tau=4)


class TestPublicMergeOps:
    def test_merge_taylor_leaf_and_root(self):
        from stochlp import parse_td
        from stochlp.decomposition import prepare_context
        from stochlp.density import merge_bag
        from stochlp.taylor import resolve_oracle
        from stochlp import symbolic as sy

        g = parse_graph("3 2\n1 2 oracle expcdf\n2 3 oracle expcdf\n")
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n").relabel(
            {label: i for i, label in enumerate(g.labels)}
        )
        ctx = prepare_context(g, td)
        tau = 8
        sums = {}
        for i in ctx.post_order:
            den = bag_taylor(ctx, i, resolve_oracle, tau)
            kids = [sums.pop(c) for c in ctx.children[i]]
            sums[i] = merge_bag(ctx, i, den, kids, F(1), Budget.default(), taylor_tau=tau)
        val, _ = sy.evaluate(sums[ctx.td.root])
        assert val == pytest.approx(1 - 2 * math.exp(-1), abs=1e-5)


class TestTreewidthTwo:
    def test_diamond_converges_to_exact(self):
        gd = parse_graph(
            "4 4\n1 2 oracle expcdf\n1 3 oracle expcdf\n"
            "2 4 oracle expcdf\n3 4 oracle expcdf\n"
        )
        ge = parse_graph("4 4\n1 2 exp\n1 3 exp\n2 4 exp\n3 4 exp\n")
        ve, _ = exact_exp(ge, None, 1)
        errs = []
        for tau in (4, 6, 8):
            v, rep = approx_taylor(gd, None, 1, tau=tau)
            assert abs(v - ve) <= rep.theoretical_bound
            errs.append(abs(v - ve))
        assert errs[-1] <= 1e-4
        assert errs == sorted(errs, reverse=True)
