import math
import random
from fractions import Fraction as F

import pytest

from stochlp import (
    Dag,
    DistSpec,
    InputError,
    NotSeriesParallelError,
    approx_dag,
    approx_taylor,
    exact_exp,
    irwin_hall,
    monte_carlo,
    parse_graph,
    riemann_bracket,
    series_parallel_exact,
)
from stochlp.errors import Budget, BudgetExceeded
from stochlp.generate import gen_chain, gen_diamond_ladder
from stochlp.oracles import (
    PiecewisePoly,
    convolve_density_cdf,
    uniform_cdf_poly,
)
from reference import mass


class TestMonteCarlo:
    def test_single_uniform_edge(self):
        g = parse_graph("2 1\n1 2 uniform 1\n")
        est, se = monte_carlo(g, 0.5, 10**6, seed=11)
        assert abs(est - 0.5) <= 4 * se

    def test_x_zero_continuous(self):
        g = parse_graph("2 1\n1 2 exp\n")
        est, _ = monte_carlo(g, 0.0, 10**5, seed=0)
        assert est == 0.0

    def test_bit_identical(self):
        g = parse_graph("3 2\n1 2 exp\n2 3 exp\n")
        a = monte_carlo(g, 1.0, 300_000, seed=5)
        b = monte_carlo(g, 1.0, 300_000, seed=5)
        assert a == b

    def test_oracle_edges_samplable(self):
        g = parse_graph("2 1\n1 2 oracle expcdf\n")
        est, se = monte_carlo(g, 1.0, 10**5, seed=2)
        assert abs(est - (1 - math.exp(-1))) <= 4 * se

    def test_edges_out_of_tail_order(self):
        # Dag keeps u < v per edge but not tail order across edges
        u1 = DistSpec.uniform(1)
        shuffled = Dag(n=3, edges=((1, 2, u1), (0, 1, u1)))
        ordered = Dag(n=3, edges=((0, 1, u1), (1, 2, u1)))
        est, se = monte_carlo(shuffled, 0.5, 10**5, seed=4)
        assert (est, se) == monte_carlo(ordered, 0.5, 10**5, seed=4)
        assert abs(est - 1 / 8) <= 4 * se

    def test_edgeless_graph(self):
        g = parse_graph("2 0\n")
        assert monte_carlo(g, 0.5, 10**5) == (1.0, 0.0)
        assert monte_carlo(g, 0.0, 10**5) == (1.0, 0.0)
        assert monte_carlo(g, -0.5, 10**5) == (0.0, 0.0)


class TestRiemannBracket:
    def test_single_edge(self):
        g = parse_graph("2 1\n1 2 uniform 1\n")
        br = riemann_bracket(g, 0.5, 10)
        assert (br.lower, br.upper) == (F(1, 2), F(3, 5))

    def test_saturated(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 2\n")
        br = riemann_bracket(g, 3.0, 7)
        assert (br.lower, br.upper) == (F(1), F(1))

    def test_chain_brackets_exact_value(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        br = riemann_bracket(g, 1.0, 100)
        assert br.lower <= F(1, 2) <= br.upper
        assert br.upper - br.lower <= F(2 * 2, 100)

    def test_nesting(self):
        g = parse_graph("3 2\n1 2 uniform 2\n2 3 uniform 1\n")
        for x in (0.9, 1.7, 2.4):
            coarse = riemann_bracket(g, x, 6)
            fine = riemann_bracket(g, x, 12)
            assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper

    def test_edges_out_of_tail_order(self):
        u1 = DistSpec.uniform(1)
        shuffled = Dag(n=3, edges=((1, 2, u1), (0, 1, u1)))
        ordered = Dag(n=3, edges=((0, 1, u1), (1, 2, u1)))
        br = riemann_bracket(shuffled, 0.5, 12)
        assert br == riemann_bracket(ordered, 0.5, 12)
        assert br.lower <= F(1, 8) <= br.upper

    def test_budget(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        with pytest.raises(BudgetExceeded):
            riemann_bracket(g, 1.0, 100, Budget(max_cells=100))

    def test_rejects_exponential(self):
        g = parse_graph("2 1\n1 2 exp\n")
        with pytest.raises(InputError):
            riemann_bracket(g, 1.0, 4)


class TestIrwinHall:
    def test_values(self):
        assert irwin_hall(2, 1) == F(1, 2)
        assert irwin_hall(3, F(3, 2)) == F(1, 2)
        assert irwin_hall(1, F(3, 10)) == F(3, 10)
        assert irwin_hall(2, 0) == 0 and irwin_hall(2, 5) == 1

    def test_symmetry(self):
        for m in (2, 3, 4, 5):
            for num in range(0, 2 * m + 1):
                x = F(num, 2)
                assert irwin_hall(m, x) + irwin_hall(m, m - x) == 1


class TestPiecewisePoly:
    def test_uniform_cdf(self):
        cdf = uniform_cdf_poly(2)
        assert cdf(F(0)) == 0 and cdf(F(1)) == F(1, 2) and cdf(F(3)) == 1

    def test_convolution_matches_irwin_hall(self):
        cdf = uniform_cdf_poly(1)
        for m in (2, 3, 4):
            acc = uniform_cdf_poly(1)
            for _ in range(m - 1):
                acc = convolve_density_cdf(uniform_cdf_poly(1).derivative(), acc)
            for num in range(0, 2 * m + 1):
                x = F(num, 2)
                assert acc(x) == irwin_hall(m, x)

    def test_mass_preserved(self):
        acc = uniform_cdf_poly(1)
        for scale in (1, 2, 3):
            acc = convolve_density_cdf(uniform_cdf_poly(scale).derivative(), acc)
        assert mass(acc.derivative()) == 1

    def test_product_is_parallel_composition(self):
        a = uniform_cdf_poly(1)
        b = uniform_cdf_poly(2)
        prod = a.product(b)
        for num in range(0, 5):
            x = F(num, 2)
            assert prod(x) == a(x) * b(x)


class TestSeriesParallel:
    def test_chain_uniform_exact(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        assert series_parallel_exact(g, 1) == F(1, 2)

    def test_matches_irwin_hall_on_chains(self):
        for m in (2, 3, 5):
            g = gen_chain(m + 1, dist="uniform").dag
            for num in (1, 2, m):
                assert series_parallel_exact(g, F(num, 2)) == irwin_hall(m, F(num, 2))

    def test_exponential_diamond(self, diamond_exp):
        v = series_parallel_exact(diamond_exp, 2)
        assert v == pytest.approx((1 - 3 * math.exp(-2)) ** 2, abs=1e-12)

    def test_not_series_parallel(self):
        g = parse_graph(
            "4 6\n1 2 uniform 1\n1 3 uniform 1\n1 4 uniform 1\n"
            "2 3 uniform 1\n2 4 uniform 1\n3 4 uniform 1\n"
        )
        with pytest.raises(NotSeriesParallelError):
            series_parallel_exact(g, 1)

    def test_against_monte_carlo(self):
        g = gen_diamond_ladder(2, dist="uniform").dag
        x = 2.3
        exact = float(series_parallel_exact(g, F(23, 10)))
        est, se = monte_carlo(g, x, 400_000, seed=9)
        assert abs(exact - est) <= 3.5 * max(se, 1e-9)

    def test_mixed_rejected(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 exp\n")
        with pytest.raises(InputError):
            series_parallel_exact(g, 1)


_UNIFORM = "3 2\n1 2 uniform 1\n2 3 uniform 1\n"
_NON_FINITE_ENTRY_POINTS = {
    "exact_exp": lambda x: exact_exp(parse_graph("2 1\n1 2 exp\n"), None, x),
    "approx_taylor": lambda x: approx_taylor(parse_graph("2 1\n1 2 oracle expcdf\n"), None, x,
                                             tau=2),
    "approx_dag": lambda x: approx_dag(parse_graph(_UNIFORM), None, x, m_override=4),
    "series_parallel_exact": lambda x: series_parallel_exact(parse_graph(_UNIFORM), x),
    "irwin_hall": lambda x: irwin_hall(2, x),
    "monte_carlo": lambda x: monte_carlo(parse_graph(_UNIFORM), x, 10),
    "riemann_bracket": lambda x: riemann_bracket(parse_graph(_UNIFORM), x, 2),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_NON_FINITE_ENTRY_POINTS))
def test_non_finite_horizon_rejected(entry, x):
    # no solver or oracle has a value at a NaN or infinite horizon: each
    # raises InputError, never a bare conversion error or a made-up result
    with pytest.raises(InputError, match="horizon must be finite"):
        _NON_FINITE_ENTRY_POINTS[entry](x)
