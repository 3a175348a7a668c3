"""Left-tail values of exponential diamond ladders, where the exact groups of
the final sum cancel almost completely, pinned against a power series
computed independently of the symbolic engine."""

import math
from fractions import Fraction as F

import mpmath
import pytest

from stochlp.exactexp import exact_exp
from stochlp.generate import gen_diamond_ladder
from stochlp.oracles import series_parallel_exact


def ladder_cdf_series(diamonds: int, x: F, dps: int = 300) -> mpmath.mpf:
    """Pr[longest path <= x] on a ladder of standard-exponential diamonds, as
    the Taylor series of the CDF at 0, to ``dps`` digits.

    One diamond's longest path is the larger of two Erlang-2 lengths, with
    density 2 t e^-t - 2 t e^-2t - 2 t^2 e^-2t.  In the basis t^k / k! its
    coefficients are integers, and the convolution of t^a / a! with t^b / b!
    is t^(a+b+1) / (a+b+1)!, so the ladder's density is an exact integer
    series; one more shift integrates it.  Every coefficient up to degree
    4n + 420 is exact; beyond it, for x <= 1 and n <= 16, each term
    |coefficient| x^k / k! is below 8^k / k!, far below 10^-dps of the
    value."""
    top = 4 * diamonds + 420
    one = [0] + [2 * ((-1) ** (k - 1) * k - (-2) ** (k - 1) * k
                      - (k * (k - 1) * (-2) ** (k - 2) if k >= 2 else 0))
                 for k in range(1, top + 1)]
    density = one
    for _ in range(diamonds - 1):
        nxt = [0] * (top + 1)
        for i, a in enumerate(density):
            if a:
                for j in range(top - i):
                    nxt[i + j + 1] += a * one[j]
        density = nxt
    total = sum((F(c) * x ** (k + 1) / math.factorial(k + 1)
                 for k, c in enumerate(density[:top]) if c), F(0))
    with mpmath.workdps(dps):
        return mpmath.mpf(total.numerator) / total.denominator


# the three tail queries: 16 diamonds at x=1 returned 0.0 (raw -1.69e-21)
# and 4 diamonds at x=1/8 was wrong after its 12th digit at 40 digits
TAIL_QUERIES = [(8, F(1, 2), 6.63e-40), (16, F(1), 4.32e-78), (4, F(1, 8), 1.8091239099780212e-25)]


@pytest.mark.parametrize("diamonds,x,approx", TAIL_QUERIES)
def test_tail_is_correctly_rounded(diamonds, x, approx):
    want = ladder_cdf_series(diamonds, x)
    assert float(want) == pytest.approx(approx, rel=1e-2)
    inst = gen_diamond_ladder(diamonds, dist="exp")
    value, report = exact_exp(inst.dag, inst.td, x)
    assert value == float(want)
    with mpmath.workdps(300):
        assert abs(mpmath.mpf(value) - want) <= report.error_radius
    assert series_parallel_exact(inst.dag, x) == float(want)


@pytest.mark.parametrize("diamonds,x", [(1, F(1, 10**10300)), (2, F(1, 10**160))])
def test_underflow_returns_positive_zero(diamonds, x):
    # the value is below the smallest float, and the groups cancel over
    # 10,300 and 640 digits
    inst = gen_diamond_ladder(diamonds, dist="exp")
    value, _ = exact_exp(inst.dag, inst.td, x)
    assert value == 0.0 and math.copysign(1, value) == 1
