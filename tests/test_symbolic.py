import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from stochlp.errors import Budget, BudgetExceeded, DivergentIntegral, InputError
from stochlp import symbolic as sy
from reference import (
    fraction_add,
    fraction_integrate_out,
    fraction_multiply,
    fraction_q,
    fraction_scale,
    fraction_substitute,
    max_total_degree,
)


def H(lo, hi):
    return sy.SymbolicSum.guard(lo, hi)


def v(i):
    return sy.var_atom(i)


ZERO = sy.ZERO_ATOM


class TestMultiply:
    def test_identity(self):
        s = sy.multiply(H(ZERO, v(1)), sy.SymbolicSum.term(2, exps={1: -1}))
        assert sy.multiply(sy.SymbolicSum.one(), s).regions == s.regions

    def test_guard_idempotence(self):
        a = sy.multiply(H(ZERO, v(1)), sy.SymbolicSum.term(1, exps={1: -1}))
        b = sy.multiply(H(ZERO, v(1)), sy.SymbolicSum.term(1, powers={1: 1}))
        prod = sy.multiply(a, b)
        assert set(prod.regions) == {(ZERO, v(1))}
        ((key, coeff),) = list(prod.regions[(ZERO, v(1))].items())
        assert key == (((1, 1),), ((1, -1),), F(0)) and coeff == 1

    def test_linear_extensions(self):
        prod = sy.multiply(H(ZERO, v(1)), H(ZERO, v(2)))
        assert set(prod.regions) == {(ZERO, v(1), v(2)), (ZERO, v(2), v(1))}

    def test_constant_chain_pruning(self):
        bad = sy.multiply(H(sy.const_atom(1), v(1)), H(v(1), sy.const_atom(F(1, 2))))
        assert bad.is_zero()  # 1 < z < 1/2 impossible

    def test_zero_coefficient_cancellation(self):
        s = sy.SymbolicSum.term(1, powers={1: 1})
        t = sy.SymbolicSum.term(-1, powers={1: 1})
        assert (s + t).is_zero()


class TestConstructor:
    def test_drops_zero_coefficients(self):
        key = ((), (), F(0))
        s = sy.SymbolicSum({(ZERO, v(1)): {key: F(0), (((1, 1),), (), F(0)): F(2)}})
        assert s.regions == {(ZERO, v(1)): {(((1, 1),), (), F(0)): F(2)}}

    def test_drops_regions_left_empty(self):
        s = sy.SymbolicSum({(ZERO, v(1)): {((), (), F(0)): F(0)}, (): {((), (), F(0)): F(3)}})
        assert list(s.regions) == [()]
        assert sy.SymbolicSum.const(0).is_zero()
        assert sy.SymbolicSum.term(2, powers={1: 1}).scale(0).is_zero()

    def test_drops_inconsistent_chains(self):
        assert sy.SymbolicSum.term(1, chain=(sy.const_atom(2), sy.const_atom(1))).is_zero()
        assert sy.SymbolicSum.term(1, chain=(v(1), v(1))).is_zero()
        kept = sy.SymbolicSum.term(1, chain=(sy.const_atom(1), v(1), sy.const_atom(2)))
        assert list(kept.regions) == [(sy.const_atom(1), v(1), sy.const_atom(2))]

    def test_copies_input_mapping(self):
        key = (((1, 1),), (), 0)
        bucket = {key: F(2)}
        regions = {(ZERO, v(1)): bucket}
        s = sy.SymbolicSum(regions)
        bucket[key] = F(5)
        bucket[((), (), 0)] = F(1)
        regions[()] = {((), (), 0): F(7)}
        assert s.regions == {(ZERO, v(1)): {key: F(2)}}

    def test_integral_e_const_is_an_int(self):
        ((key,),) = [list(t) for t in sy.SymbolicSum.term(1, e_const=F(4, 2)).regions.values()]
        assert key == ((), (), 2) and type(key[2]) is int
        ((key,),) = [list(t) for t in sy.SymbolicSum.term(1, e_const=F(3, 2)).regions.values()]
        assert type(key[2]) is F
        half = sy.SymbolicSum.term(1, e_const=F(1, 2))
        ((key,),) = [list(t) for t in sy.multiply(half, half).regions.values()]
        assert key == ((), (), 1) and type(key[2]) is int


class TestDifferentiate:
    def test_product_rule(self):
        s = sy.SymbolicSum.term(1, powers={3: 2}, exps={3: 1})
        d = sy.differentiate(s, 3)
        val, _ = sy.evaluate(d, {3: F(2)})
        assert val == pytest.approx(8 * math.exp(2))

    def test_absent_variable(self):
        s = sy.SymbolicSum.term(5, powers={1: 2})
        assert sy.differentiate(s, 2).is_zero()

    def test_ae_derivative_of_exponential_cdf(self):
        # d/dz1 H(z1-z2)(1 - e^{-(z1-z2)}) = H(z1-z2) e^{-(z1-z2)}
        f = sy.multiply(
            H(v(2), v(1)),
            sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, exps={1: -1, 2: 1}),
        )
        d = sy.differentiate(f, 1)
        expect = sy.multiply(H(v(2), v(1)), sy.SymbolicSum.term(1, exps={1: -1, 2: 1}))
        assert d.canonical_text() == expect.canonical_text()


class TestIntegrate:
    def test_convolution_step(self):
        f = sy.multiply(
            sy.multiply(H(ZERO, v(0)), H(v(0), v(1))),
            sy.SymbolicSum.term(1, exps={0: -1}),
        )
        res = sy.integrate_out(f, 0)
        val, _ = sy.evaluate(res, {1: F(1)})
        assert val == pytest.approx(1 - math.exp(-1))

    def test_unit_mass(self):
        g = sy.multiply(H(ZERO, v(0)), sy.SymbolicSum.term(1, exps={0: -1}))
        assert sy.evaluate(sy.integrate_out(g, 0))[0] == pytest.approx(1.0)

    def test_bounded_poly_exp(self):
        h = sy.multiply(
            sy.multiply(H(ZERO, v(5)), H(v(5), sy.const_atom(1))),
            sy.SymbolicSum.term(1, powers={5: 1}, exps={5: 1}),
        )
        assert sy.evaluate(sy.integrate_out(h, 5))[0] == pytest.approx(1.0)

    def test_divergent_tail(self):
        g = sy.multiply(H(ZERO, v(0)), sy.SymbolicSum.term(1, exps={0: 1}))
        with pytest.raises(DivergentIntegral):
            sy.integrate_out(g, 0)

    def test_unbounded_polynomial(self):
        g = sy.multiply(H(ZERO, v(0)), sy.SymbolicSum.term(1, powers={0: 1}))
        with pytest.raises(DivergentIntegral):
            sy.integrate_out(g, 0)

    def test_cumulative_mode(self):
        g = sy.multiply(H(ZERO, v(0)), sy.SymbolicSum.term(1, exps={0: -1}))
        res = sy.integrate_out(g, 0, upper=sy.const_atom(2))
        assert sy.evaluate(res)[0] == pytest.approx(1 - math.exp(-2))


class TestSubstitute:
    def test_boundary_cancellation(self):
        s = sy.multiply(
            H(ZERO, v(7)),
            sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, exps={7: -1}),
        )
        assert sy.substitute(s, 7, F(0)).is_zero()

    def test_symbolic_horizon_carried(self):
        s = sy.SymbolicSum.term(1, exps={7: -1})
        out = sy.substitute(s, 7, F(3, 2))
        ((key, coeff),) = list(out.regions[()].items())
        assert key == ((), (), F(-3, 2)) and coeff == 1

    def test_squeeze_drop(self):
        ch = sy.multiply(H(ZERO, v(1)), H(v(1), v(2)))
        assert sy.substitute(ch, 2, F(0)).is_zero()

    def test_var_for_var_merges_exponents(self):
        s = sy.SymbolicSum.term(1, powers={1: 2, 2: 1}, exps={1: -1})
        out = sy.substitute(s, 1, sy.var_atom(2))
        ((key, coeff),) = list(out.regions[()].items())
        assert key == (((2, 3),), ((2, -1),), F(0))


class TestEvaluate:
    def test_exponential_cdf_value(self):
        s = sy.multiply(
            H(ZERO, v(1)),
            sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, exps={1: -1}),
        )
        val, rad = sy.evaluate(s, {1: F(1)})
        assert val == pytest.approx(0.6321205588285577, abs=1e-14)
        assert rad < 1e-12

    def test_erlang_two(self):
        # 1 - e^{-x}(1+x) at x=2
        s = (
            sy.SymbolicSum.const(1)
            - sy.SymbolicSum.term(1, exps={1: -1})
            - sy.SymbolicSum.term(1, powers={1: 1}, exps={1: -1})
        )
        val, _ = sy.evaluate(s, {1: F(2)})
        assert val == pytest.approx(1 - 3 * math.exp(-2), abs=1e-14)

    def test_exact_cancellation(self):
        t = sy.SymbolicSum.term(F(1, 3), powers={1: 2}, e_const=F(5))
        s = t + t.scale(-1)
        assert s.is_zero() and sy.evaluate(s, {1: F(7)})[0] == 0.0


class TestTruncate:
    def test_partial_series(self):
        s = (
            sy.SymbolicSum.term(1, powers={1: 1})
            + sy.SymbolicSum.term(F(-1, 2), powers={1: 2})
            + sy.SymbolicSum.term(F(1, 6), powers={1: 3})
        )
        out = sy.truncate_total_degree(s, 2)
        assert max_total_degree(out) == 2 and out.term_count() == 2

    def test_identity_when_tau_large(self):
        s = sy.SymbolicSum.term(1, powers={1: 1, 2: 2})
        assert sy.truncate_total_degree(s, 5).regions == s.regions

    def test_drops_everything(self):
        s = sy.SymbolicSum.term(1, powers={1: 2, 2: 1})
        assert sy.truncate_total_degree(s, 2).is_zero()

    def test_rejects_exponentials(self):
        s = sy.SymbolicSum.term(1, exps={1: 1})
        with pytest.raises(InputError):
            sy.truncate_total_degree(s, 3)


def random_sum(rng: random.Random, vars_=(1, 2), max_terms=3) -> sy.SymbolicSum:
    out = sy.SymbolicSum.zero()
    for _ in range(rng.randint(1, max_terms)):
        chain_vars = [w for w in vars_ if rng.random() < 0.7]
        rng.shuffle(chain_vars)
        chain = tuple(sy.var_atom(w) for w in chain_vars)
        if rng.random() < 0.5:
            chain = (ZERO,) + chain
        if not sy._chain_consistent(chain):
            continue
        powers = {w: rng.randint(0, 2) for w in vars_ if rng.random() < 0.5}
        exps = {w: rng.choice([-2, -1, 1]) for w in vars_ if rng.random() < 0.4}
        coeff = F(rng.randint(-3, 3))
        if coeff:
            out = out + sy.SymbolicSum.term(coeff, powers=powers, exps=exps, chain=chain)
    return out


@st.composite
def symbolic_sums(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_sum(random.Random(seed))


GUARD_ATOMS = (ZERO, sy.const_atom(1), v(1), v(2), v(3))


@st.composite
def guards(draw):
    """A single guard chain low < high; low == high gives the unit sum, two
    constants out of order the zero sum."""
    return sy.SymbolicSum.guard(draw(st.sampled_from(GUARD_ATOMS)),
                                draw(st.sampled_from(GUARD_ATOMS)))


class TestAlgebraicProperties:
    @settings(max_examples=60, deadline=None)
    @given(symbolic_sums(), symbolic_sums())
    def test_multiply_commutative(self, a, b):
        assert sy.multiply(a, b).canonical_text() == sy.multiply(b, a).canonical_text()

    @settings(max_examples=40, deadline=None)
    @given(symbolic_sums(), symbolic_sums(), symbolic_sums())
    def test_multiply_associative(self, a, b, c):
        left = sy.multiply(sy.multiply(a, b), c)
        right = sy.multiply(a, sy.multiply(b, c))
        assert left.canonical_text() == right.canonical_text()

    @settings(max_examples=60, deadline=None)
    @given(symbolic_sums(), symbolic_sums())
    def test_addition_distributes(self, a, b):
        c = sy.multiply(sy.SymbolicSum.guard(ZERO, v(1)), sy.SymbolicSum.term(1, powers={2: 1}))
        left = sy.multiply(a + b, c)
        right = sy.multiply(a, c) + sy.multiply(b, c)
        assert left.canonical_text() == right.canonical_text()

    @settings(max_examples=80, deadline=None)
    @given(symbolic_sums(), guards())
    def test_guard_product_matches_general_product(self, a, g):
        # a guard times 1 takes the fast path; times 2 it forms every product
        for fast_args, general_args in (((a, g), (a, g.scale(2))), ((g, a), (g.scale(2), a))):
            b_fast, b_general = Budget(), Budget()
            fast = sy.multiply(*fast_args, budget=b_fast)
            general = sy.multiply(*general_args, budget=b_general).scale(F(1, 2))
            assert fast.regions == general.regions
            assert [list(t.items()) for t in fast.regions.values()] == \
                [list(t.items()) for t in general.regions.values()]
            assert (b_fast.work_used, b_fast.terms_peak, b_fast.regions_peak) == \
                (b_general.work_used, b_general.terms_peak, b_general.regions_peak)

    def test_fundamental_theorem_roundtrip(self):
        # density-like sums on a bounded region: integrate the derivative
        # cumulatively and recover the original (zero at the lower end)
        rng = random.Random(23)
        for _ in range(25):
            payload_terms = []
            for _ in range(rng.randint(1, 3)):
                payload_terms.append(
                    sy.SymbolicSum.term(
                        F(rng.randint(1, 3)),
                        powers={9: rng.randint(1, 3)},
                        exps={9: rng.choice([-1, 0, 1])},
                    )
                )
            f = sy.SymbolicSum.zero()
            for t in payload_terms:
                f = f + t
            f = sy.multiply(f, sy.SymbolicSum.term(1, powers={9: 1}))  # vanishes at 0
            f = sy.multiply(f, H(ZERO, v(9)))
            deriv = sy.differentiate(f, 9)
            back = sy.cumulate(deriv, 9, fresh=99, lower=ZERO)
            for probe in (F(1, 3), F(1), F(7, 4)):
                want, _ = sy.evaluate(f, {9: probe})
                got, _ = sy.evaluate(back, {9: probe})
                assert got == pytest.approx(want, abs=1e-12)

    def test_cumulate_before_the_product(self):
        # the merge cumulates a shared source s = z1 on the factor that names
        # it, before the product: b, which does not name s, comes out of the
        # integral, and d/ds undone by the cumulate it stands for is the
        # identity on a product of distribution functions in s.  The chains
        # interleave (a holds 1/2 < z1 < 4 and z1 < z2, b 1 < z2 < 3), and
        # the points lie on both sides of every chain constant
        c = sy.const_atom
        a = sy.multiply(sy.multiply(H(c(F(1, 2)), v(1)), H(v(1), c(4))), H(v(1), v(2)))
        a = sy.multiply(a, sy.SymbolicSum.term(2, powers={1: 1}, exps={1: -1})
                        + sy.SymbolicSum.term(F(1, 3), powers={2: 1}))
        b = sy.multiply(sy.multiply(H(c(1), v(2)), H(v(2), c(3))),
                        sy.SymbolicSum.term(1, powers={2: 2}) + sy.SymbolicSum.term(1, exps={2: -1}))
        assert 1 in a.free_vars() and 1 not in b.free_vars()
        inside = sy.cumulate(sy.multiply(a, b), 1, fresh=99)
        outside = sy.multiply(sy.cumulate(a, 1, fresh=99), b)
        points = [{1: z1, 2: z2} for z1 in (F(1, 4), F(3, 4), F(5, 2), F(9, 2))
                  for z2 in (F(1, 3), F(7, 8), F(2), F(7, 2), F(5))]
        for p in points:
            assert sy.evaluate(inside, p)[0] == sy.evaluate(outside, p)[0], p
        assert any(sy.evaluate(outside, p)[0] for p in points)

        d1 = sy.multiply(H(v(2), v(1)), sy.SymbolicSum.term(1, exps={1: -1, 2: 1}))
        d2 = sy.multiply(sy.multiply(H(c(F(1, 2)), v(1)), H(v(1), c(2))),
                         sy.SymbolicSum.term(F(8, 15), powers={1: 1}))
        P = sy.multiply(sy.cumulate(d1, 1, fresh=99), sy.cumulate(d2, 1, fresh=99))
        back = sy.cumulate(sy.differentiate(P, 1), 1, fresh=99)
        points = [{1: z1, 2: z2} for z1 in (F(-1), F(1, 4), F(1), F(3, 2), F(5, 2), F(4))
                  for z2 in (F(-1, 3), F(3, 4), F(3))]
        for p in points:
            assert sy.evaluate(back, p)[0] == sy.evaluate(P, p)[0], p
        assert any(sy.evaluate(P, p)[0] for p in points)

    def test_mass_never_exceeds_one(self):
        # integrating a density factor against probability-bounded factors
        rng = random.Random(5)
        for _ in range(25):
            extra = random_sum(rng, vars_=(2,), max_terms=2)
            bounded = sy.multiply(
                H(v(2), v(1)),
                sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, exps={1: -1, 2: 1}),
            )
            dens = sy.multiply(H(ZERO, v(1)), sy.SymbolicSum.term(1, exps={1: -1}))
            prod = sy.multiply(dens, bounded)
            res = sy.integrate_out(prod, 1)
            val, _ = sy.evaluate(res, {2: F(0)})
            assert val <= 1.0 + 1e-12

    def test_canonical_text_golden(self):
        s = sy.multiply(
            H(ZERO, v(1)),
            sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, exps={1: -1}),
        )
        assert s.canonical_text() == "[0 < z1] -1*e^(-1*z1) + 1"

    def test_canonical_text_mixed_e_const_order(self):
        # terms sort as the text of their keys with e_const a Fraction, the
        # order recorded when every e_const was one, integral ones included
        s = (sy.SymbolicSum.term(1, e_const=F(-1, 2)) + sy.SymbolicSum.term(2)
             + sy.SymbolicSum.term(3, e_const=10)
             + sy.SymbolicSum.term(5, e_const=F(3, 2), powers={1: 1}))
        assert s.canonical_text() == "[true] 5*e^(3/2)*z1^1 + 1*e^(-1/2) + 2 + 3*e^(10)"


SCALES = (F(1), F(-1, 3), F(5, 6), F(7, 4), F(-9, 10))
ATOMS = (ZERO, sy.const_atom(F(3, 2)), sy.const_atom(F(-2, 5)), sy.const_atom(2), v(2), v(3))


@st.composite
def mixed_sums(draw):
    """Two symbolic_sums() scaled apart and added, so that the terms of one
    bucket carry different denominators."""
    a, b = draw(symbolic_sums()), draw(symbolic_sums())
    return a.scale(draw(st.sampled_from(SCALES))) + b.scale(draw(st.sampled_from(SCALES)))


def _outcome(op, *args):
    budget = Budget()
    try:
        out = op(*args, budget=budget)
    except DivergentIntegral:
        return None, None
    return out, budget


def _plain(op, *args):
    """``_outcome`` of an operation that takes no budget."""
    return op(*args), Budget()


def assert_same_sum(got, want):
    """Same regions and terms in the same order, with the same key types and
    budget counters, every coefficient a nonzero Fraction in lowest terms and
    no region empty."""
    (g, g_budget), (w, w_budget) = got, want
    if w is None:
        assert g is None
        return
    for s in (g, w):
        assert all(terms and all(terms.values()) for terms in s.regions.values())

    def listed(s):
        return [(chain, [(key, type(key[2]), c) for key, c in terms.items()])
                for chain, terms in s.regions.items()]

    assert listed(g) == listed(w)
    assert (g_budget.work_used, g_budget.terms_peak, g_budget.regions_peak) == \
        (w_budget.work_used, w_budget.terms_peak, w_budget.regions_peak)
    for terms in g.regions.values():
        for c in terms.values():
            assert type(c) is F and c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


# two terms on 0 < z1 and two unguarded
TWO_REGIONS = sy.SymbolicSum({
    (ZERO, v(1)): {(((1, 1),), (), 0): F(2, 3), ((), ((1, -1),), 0): F(-1, 4)},
    (): {((), (), 0): F(5), (((2, 1),), (), 0): F(1, 6)},
})
# the negation of TWO_REGIONS's region 0 < z1
GUARDED_NEGATED = sy.SymbolicSum({
    (ZERO, v(1)): {(((1, 1),), (), 0): F(-2, 3), ((), ((1, -1),), 0): F(1, 4)},
})


class TestReduceOnce:
    """Unreduced integer pairs, reduced once per operation, give exactly what
    one reduced Fraction per step gives."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_sums(), mixed_sums())
    # everything cancels; one region empties while the other survives; a
    # bucket keeps one of its three terms
    @example(TWO_REGIONS, TWO_REGIONS.scale(-1))
    @example(TWO_REGIONS, GUARDED_NEGATED)
    @example(GUARDED_NEGATED + sy.SymbolicSum.term(F(3, 4), powers={1: 2}, chain=(ZERO, v(1))),
             TWO_REGIONS)
    def test_add(self, a, b):
        for x, y in ((a, b), (b, a), (a, a.scale(-1))):
            assert_same_sum(_plain(sy.SymbolicSum.__add__, x, y), _plain(fraction_add, x, y))

    @settings(max_examples=60, deadline=None)
    @given(mixed_sums(), st.sampled_from(SCALES + (F(0), F(-1), 3)))
    # a zero scale cancels every term
    @example(TWO_REGIONS, 0)
    def test_scale(self, a, c):
        assert_same_sum(_plain(sy.SymbolicSum.scale, a, c), _plain(fraction_scale, a, c))

    @settings(max_examples=60, deadline=None)
    @given(mixed_sums(), mixed_sums(), guards())
    def test_multiply(self, a, b, g):
        for x, y in ((a, b), (a, g), (g, a)):
            assert_same_sum(_outcome(sy.multiply, x, y), _outcome(fraction_multiply, x, y))

    @settings(max_examples=60, deadline=None)
    @given(mixed_sums())
    def test_substitute(self, a):
        for target in ATOMS:
            assert_same_sum(_outcome(sy.substitute, a, 1, target),
                            _outcome(fraction_substitute, a, 1, target))

    @settings(max_examples=60, deadline=None)
    @given(mixed_sums())
    # on 0 < z1 < z2, terms that differ only in z1's power: z1^0, z1^1 and
    # z1^3 times e^(-z1 + 2 z2), then z1^2 and z1^1 with no exponential, then
    # z2 e^(-z1); emitting each group's terms together would reorder them
    @example(sy.SymbolicSum({(ZERO, v(1), v(2)): {
        ((), ((1, -1), (2, 2)), 0): F(1, 2),
        (((1, 1),), ((1, -1), (2, 2)), 0): F(-2, 3),
        (((1, 3),), ((1, -1), (2, 2)), 0): F(5, 4),
        (((1, 2),), (), 0): F(3, 7),
        (((1, 1),), (), 0): F(-1, 5),
        (((2, 1),), ((1, -1),), 0): F(2),
    }}))
    def test_integrate_out(self, a):
        for upper in (None,) + ATOMS:
            for w in (1, 2):
                assert_same_sum(_outcome(sy.integrate_out, a, w, upper),
                                _outcome(fraction_integrate_out, a, w, upper))


class TestQPairs:
    """``integrate_out``'s q_j as reduced integer pairs, one gcd each, are
    the numerators and denominators of the ``Fraction`` recurrence."""

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(0, 7), st.fractions(max_denominator=60), min_size=1),
           st.integers(-5, 5))
    # a zero coefficient, gaps below it and above it, both signs of beta
    @example({0: F(1, 3), 2: F(0), 5: F(-7, 4)}, -3)
    @example({0: F(1, 3), 2: F(0), 5: F(-7, 4)}, 2)
    @example({1: F(0), 4: F(9, 2)}, 0)
    def test_pairs_match_fraction_recurrence(self, p, beta):
        want = {j: (q.numerator, q.denominator) for j, q in fraction_q(p, beta).items()}
        assert sy._q_pairs(p, beta) == want


class TestRename:
    @settings(max_examples=60, deadline=None)
    @given(mixed_sums())
    def test_order_keeping_map_changes_only_names(self, a):
        free = sorted(a.free_vars())
        names = {w: 10 + 3 * r for r, w in enumerate(free)}
        renamed = sy.rename(a, names)
        assert renamed.free_vars() == frozenset(names.values())
        back = sy.rename(renamed, {n: w for w, n in names.items()})
        assert list(back.regions.items()) == list(a.regions.items())
        assert [list(t) for t in renamed.regions.values()] == \
            [[(tuple((names[w], n) for w, n in pw), tuple((names[w], n) for w, n in ex), q)
              for pw, ex, q in t] for t in a.regions.values()]
        point = {w: F(r + 1, 4) for r, w in enumerate(free)}
        assert sy.evaluate(renamed, {names[w]: q for w, q in point.items()}) == \
            sy.evaluate(a, point)

    def test_rejects_map_that_reorders(self):
        s = sy.multiply(H(v(1), v(2)), sy.SymbolicSum.term(1, powers={1: 1}))
        with pytest.raises(InputError):
            sy.rename(s, {1: 5, 2: 4})


class TestRegionBudgets:
    def test_region_budget_enforced(self):
        from stochlp.errors import Budget, BudgetExceeded

        b = Budget(max_regions=1)
        with pytest.raises(BudgetExceeded):
            sy.multiply(H(ZERO, v(1)), H(ZERO, v(2)), budget=b)


# sparse variable ids with one far above the rest, as the solvers' fresh n+1
WIDE_IDS = (0, 3, 4, 9, 17, 30, 31, 1000)
WIDE_E_CONSTS = (0, 3, -2, F(1, 2), F(-1, 2), F(7, 3))
WIDE_COEFFS = (F(1), F(-1), F(2, 3), F(-5, 7), F(11, 4))


@st.composite
def wide_sums(draw, ids=None):
    """Sums over 3-8 sparse variable ids with powers up to 12, exps in
    [-20, 20] and int or Fraction e_const; about half the terms repeat an
    earlier term's exps negated, so that products cancel exps to 0."""
    if ids is None:
        ids = draw(st.lists(st.sampled_from(WIDE_IDS), min_size=3, max_size=8, unique=True))
    out = sy.SymbolicSum.zero()
    exps_seen = []
    for _ in range(draw(st.integers(1, 6))):
        chain_ids = draw(st.lists(st.sampled_from(ids), max_size=3, unique=True))
        chain = tuple(v(i) for i in chain_ids)
        if draw(st.booleans()):
            chain = (ZERO,) + chain
        powers = {i: draw(st.integers(0, 12)) for i in draw(st.lists(st.sampled_from(ids), unique=True))}
        if exps_seen and draw(st.booleans()):
            exps = {i: -n for i, n in draw(st.sampled_from(exps_seen)).items()}
        else:
            exps = {i: draw(st.integers(-20, 20)) for i in draw(st.lists(st.sampled_from(ids), unique=True))}
        exps_seen.append(exps)
        out = out + sy.SymbolicSum.term(draw(st.sampled_from(WIDE_COEFFS)), powers=powers, exps=exps,
                                        e_const=draw(st.sampled_from(WIDE_E_CONSTS)), chain=chain)
    return out


class TestPackedKeys:
    """Products, substitutions and integrals built on packed monomials and
    tuple inserts give, term for term, what the dict-and-sort reference gives."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_multiply(self, data):
        ids = data.draw(st.lists(st.sampled_from(WIDE_IDS), min_size=3, max_size=8, unique=True))
        a, b = data.draw(wide_sums(ids)), data.draw(wide_sums(ids))
        g = H(v(ids[0]), v(ids[-1]))
        for x, y in ((a, b), (a, a), (b, a), (a, g), (g, b)):
            assert_same_sum(_outcome(sy.multiply, x, y), _outcome(fraction_multiply, x, y))

    @settings(max_examples=80, deadline=None)
    @given(wide_sums(), st.data())
    def test_substitute(self, a, data):
        w = data.draw(st.sampled_from(WIDE_IDS))
        for target in (ZERO, sy.const_atom(F(-3, 2)), v(data.draw(st.sampled_from(WIDE_IDS)))):
            assert_same_sum(_outcome(sy.substitute, a, w, target),
                            _outcome(fraction_substitute, a, w, target))

    @settings(max_examples=80, deadline=None)
    @given(wide_sums(), st.data())
    def test_integrate_out(self, a, data):
        # w bounded below by 0 in every region, so that an upper bound makes
        # each integral finite
        w = data.draw(st.sampled_from(WIDE_IDS))
        bounded = sy.multiply(a, H(ZERO, v(w)))
        cases = [(a, None), (bounded, sy.const_atom(F(3, 2))),
                 (bounded, v(data.draw(st.sampled_from(WIDE_IDS))))]
        for s, upper in cases:
            assert_same_sum(_outcome(sy.integrate_out, s, w, upper),
                            _outcome(fraction_integrate_out, s, w, upper))

    def test_exps_cancel_and_e_const_turns_integral(self):
        a = sy.SymbolicSum.term(F(2, 3), powers={1000: 12}, exps={3: 20, 1000: -20}, e_const=F(1, 2))
        b = sy.SymbolicSum.term(F(3, 4), powers={3: 1}, exps={3: -20, 1000: 20}, e_const=F(1, 2))
        (key, c), = sy.multiply(a, b).regions[()].items()
        assert key == (((3, 1), (1000, 12)), (), 1) and type(key[2]) is int and c == F(1, 2)

    @pytest.mark.parametrize("top", [63, 64, 100, 127, 128, 5000])
    def test_wide_exponents(self, top):
        # a field of one byte holds a sum of two exponents offset by 2m only
        # while m < 64
        a = sy.SymbolicSum.term(1, powers={2: top}, exps={1: -top})
        b = sy.SymbolicSum.term(1, exps={1: top, 5: -1}) + sy.SymbolicSum.term(1, powers={2: top})
        assert_same_sum(_outcome(sy.multiply, a, b), _outcome(fraction_multiply, a, b))
        assert sy.multiply(a, b).regions[()] == {(((2, top),), ((5, -1),), 0): 1,
                                                 (((2, 2 * top),), ((1, -top),), 0): 1}

    def test_substitute_variable_cancels_exps(self):
        s = sy.SymbolicSum.term(F(3, 5), powers={3: 2, 1000: 1}, exps={3: 5, 1000: -5, 30: 1})
        for w, target in ((1000, v(3)), (3, v(1000))):
            got = _outcome(sy.substitute, s, w, target)
            assert_same_sum(got, _outcome(fraction_substitute, s, w, target))
            (key,) = got[0].regions[()]
            assert key[1] == ((30, 1),)


def _extensions_brute(c1, c2):
    """Every ordering of the two chains' atoms that keeps each chain's order
    and has its constants strictly increasing."""
    atoms = list(dict.fromkeys(c1 + c2))
    out = []
    for perm in itertools.permutations(atoms):
        pos = {a: i for i, a in enumerate(perm)}
        if any(pos[c[i]] > pos[c[i + 1]] for c in (c1, c2) for i in range(len(c) - 1)):
            continue
        consts = [a[1] for a in perm if a[0] == "c"]
        if all(p < q for p, q in zip(consts, consts[1:])):
            out.append(perm)
    return out


CHAIN_ATOMS = (ZERO, sy.const_atom(F(1, 2)), sy.const_atom(2), v(1), v(2), v(3), v(4))


@st.composite
def chains(draw):
    """A consistent chain, possibly empty: distinct atoms, constants in
    increasing order wherever they fall."""
    atoms = draw(st.lists(st.sampled_from(CHAIN_ATOMS), max_size=4, unique=True))
    consts = iter(sorted((a for a in atoms if a[0] == "c"), key=lambda a: a[1]))
    return tuple(next(consts) if a[0] == "c" else a for a in atoms)


@settings(max_examples=200, deadline=None)
@given(chains(), chains())
def test_interleavings_are_all_linear_extensions(c1, c2):
    got = list(sy._interleavings(c1, c2))
    assert sorted(got) == sorted(_extensions_brute(c1, c2))


def test_interleavings_of_an_empty_chain():
    c = (ZERO, v(2), sy.const_atom(2))
    assert list(sy._interleavings((), c)) == [c]
    assert list(sy._interleavings(c, ())) == [c]
    assert list(sy._interleavings((), ())) == [()]


class TestEvaluatePrecision:
    def test_cancellation_below_the_first_precision(self):
        # e^q - 1 - q at q = 10^-30 is about 5e-61; the groups cancel past
        # 40 digits
        q = F(1, 10**30)
        s = sy.SymbolicSum.term(1, e_const=q) - sy.SymbolicSum.const(1 + q)
        value, radius = sy.evaluate(s)
        with mpmath.workdps(300):
            want = mpmath.e ** (mpmath.mpf(1) / 10**30) - 1 - mpmath.mpf(1) / 10**30
            assert value == float(want)
            assert abs(mpmath.mpf(value) - want) <= radius

    def test_first_precision_radius_is_unchanged(self):
        # at 40 digits: the groups' absolute sum times 10^(8-40), plus 2^-52
        # of the total
        s = sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, e_const=-1)
        with mpmath.workdps(40):
            total = -mpmath.e ** -1 + 1
            magnitude = mpmath.e ** -1 + 1
            want = float(magnitude * mpmath.mpf(10) ** -32 + mpmath.mpf(2) ** -52 * total)
            assert sy.evaluate(s) == (float(total), want)

    def test_underflow_rounds_to_zero(self):
        # 1 - e^-q at q = 10^-10300 is about 1e-10300, which is 0.0 as a
        # float; its groups cancel over 10,300 digits, past the ceiling
        q = F(1, 10**10300)
        s = sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, e_const=-q)
        value, radius = sy.evaluate(s)
        assert value == 0.0
        assert radius < 1e-300

    def test_ceiling_raises_budget_exceeded(self):
        # c e^q - c (1 + q) at c = 10^12000, q = 10^-6000 is about 1/2, and
        # its groups cancel over 12,000 digits
        c, q = 10**12000, F(1, 10**6000)
        s = (sy.SymbolicSum.term(c, e_const=q)
             - sy.SymbolicSum.const(c * (1 + q)))
        with pytest.raises(BudgetExceeded):
            sy.evaluate(s)
