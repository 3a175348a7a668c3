"""Additive approximation of the longest-path distribution for abstract edge
length distributions accessed through a derivative oracle, by truncating to a
fixed total degree after every integration."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from .decomposition import (DecompositionContext, SolveReport, TreeDecomposition,
                            prepare_context, solve)
from .density import BagDensity, build_bag_density, describe_sum, merge_bag, poly_edge_factor
from .errors import Budget, InputError, finite_horizon
from .graph import Dag, DistKind
from .symbolic import SymbolicSum, evaluate


@dataclass(frozen=True)
class DistributionOracle:
    """Evaluator of one edge-length distribution function and its derivatives.

    ``taylor_coeff(d)`` returns the exact rational F^(d)(0); ``deriv_at(d, t)``
    evaluates F^(d) at a point of [0, x] for the |F^(d)| <= 1 spot checks;
    ``sample`` draws edge lengths for the Monte Carlo oracle.  ``max_horizon``
    bounds the x for which the declared Taylor convergence holds (None for
    unlimited).
    """

    name: str
    taylor_coeff: Callable[[int], Fraction]
    deriv_at: Callable[[int, float], float]
    sample: Callable[[np.random.Generator, int], np.ndarray]
    max_horizon: float | None = None

    def taylor_poly(self, tau: int) -> list[Fraction]:
        """Coefficients of t^j, j = 0..tau, of the order-tau expansion at 0."""
        fact = Fraction(1)
        out = []
        for j in range(tau + 1):
            if j:
                fact *= j
            out.append(self.taylor_coeff(j) / fact)
        return out


def _exp_coeff(d: int) -> Fraction:
    return Fraction(0) if d == 0 else Fraction((-1) ** (d + 1))


def _exp_deriv(d: int, t: float) -> float:
    if d == 0:
        return 1.0 - math.exp(-t) if t >= 0 else 0.0
    return ((-1) ** (d + 1)) * math.exp(-t) if t >= 0 else 0.0


def _slab_coeff(d: int) -> Fraction:
    return Fraction(1) if d == 1 else Fraction(0)


def _slab_deriv(d: int, t: float) -> float:
    if d == 0:
        return min(max(t, 0.0), 1.0)
    if d == 1:
        return 1.0 if 0.0 <= t <= 1.0 else 0.0
    return 0.0


BUILTIN_ORACLES: dict[str, DistributionOracle] = {
    "expcdf": DistributionOracle(
        name="expcdf",
        taylor_coeff=_exp_coeff,
        deriv_at=_exp_deriv,
        sample=lambda gen, size: -np.log1p(-gen.random(size)),
    ),
    "unitslab": DistributionOracle(
        name="unitslab",
        taylor_coeff=_slab_coeff,
        deriv_at=_slab_deriv,
        sample=lambda gen, size: gen.random(size),
        max_horizon=1.0,
    ),
}


def resolve_oracle(name: str) -> DistributionOracle:
    if name not in BUILTIN_ORACLES:
        raise InputError(f"unknown oracle {name!r}; built-ins: {sorted(BUILTIN_ORACLES)}")
    return BUILTIN_ORACLES[name]


def check_oracle(oracle: DistributionOracle, x: float, tau: int) -> None:
    """Spot-check the oracle conditions: nonnegative support and derivative
    magnitudes at most 1 on [0, x]."""
    if oracle.max_horizon is not None and x > oracle.max_horizon + 1e-12:
        raise InputError(
            f"oracle {oracle.name} is valid only for x <= {oracle.max_horizon}, got {x}"
        )
    pts = [x * j / 10.0 for j in range(11)] if x > 0 else [0.0]
    for d in range(0, min(tau, 8) + 1):
        for t in pts:
            val = oracle.deriv_at(d, t)
            if abs(val) > 1.0 + 1e-12:
                raise InputError(
                    f"oracle {oracle.name} violates |F^({d})({t})| <= 1 (got {val})"
                )


def choose_tau(k: int, x: float, b: int, eps_additive: float) -> int:
    """Truncation order from the fixed-parameter formula (extended-precision
    arithmetic for the ceiling)."""
    if not (0 < eps_additive <= 1):
        raise InputError(f"additive error target must lie in (0, 1], got {eps_additive}")
    if b < 1 or x < 0:
        raise InputError("need b >= 1 and x >= 0")
    with mpmath.workdps(60):
        val = (mpmath.e ** 2 + 1) * (3 * k + 3) * mpmath.mpf(repr(x)) \
            + 2 * mpmath.log(b) + mpmath.log(1 / mpmath.mpf(repr(eps_additive)))
        return int(mpmath.ceil(val)) + 1


def total_error_bound(width: int, tau: int, x: float, bags: int) -> float:
    """Compounded additive bound b^2 (4 x^(w+1) + 1) ((w+1) x)^(tau+1)/(tau+1)!
    instantiated at the separated width."""
    with mpmath.workdps(60):
        xm = mpmath.mpf(repr(float(x)))
        r = ((width + 1) * xm) ** (tau + 1) / mpmath.factorial(tau + 1)
        return float(bags**2 * (4 * xm ** (width + 1) + 1) * r)


def bag_taylor(
    ctx: DecompositionContext, i: int, oracle_of, tau: int, budget: Budget | None = None
) -> BagDensity:
    """Truncated density of bag i: every distribution factor replaced by its
    order-tau expansion at 0 (guards retained), internals integrated exactly,
    then total degree cut back to tau."""
    budget = budget or Budget.default()
    polys: dict[str, list[Fraction]] = {}

    def factor(u: int, v: int) -> SymbolicSum:
        spec = ctx.dag.dist_of[(u, v)]
        if spec.kind is not DistKind.ORACLE:
            raise InputError(f"taylor solver needs oracle edges, found {spec.kind.value}")
        orc = oracle_of(spec.name)
        if orc.name not in polys:
            polys[orc.name] = orc.taylor_poly(tau)
        return poly_edge_factor(u, v, polys[orc.name])

    den = build_bag_density(ctx, i, factor, budget)
    from .symbolic import truncate_total_degree

    parts = tuple((pend, truncate_total_degree(s, tau)) for pend, s in den.parts)
    return BagDensity(parts)


@dataclass(kw_only=True)
class TaylorReport(SolveReport):
    tau: int
    theoretical_bound: float
    eps_additive: float | None

    @property
    def guarantee(self) -> dict:
        return {"kind": "additive", "bound": self.theoretical_bound}


def approx_taylor(
    g: Dag,
    td: TreeDecomposition | None,
    x,
    eps_additive: float | None = None,
    tau: int | None = None,
    oracle: str | None = None,
    budget: Budget | None = None,
    _shuffle_seed: int | None = None,
) -> tuple[float, TaylorReport]:
    """Taylor-truncation pipeline: returns the approximate probability and a
    report with the compounded theoretical additive bound.  For x < 0 the
    answer is 0, after the same input checks, which read x as 0."""
    g.require_homogeneous(DistKind.ORACLE)
    if eps_additive is None and tau is None:
        raise InputError("need either eps_additive or an explicit truncation order tau")
    if tau is not None and tau < 0:
        raise InputError(f"truncation order must be >= 0, got {tau}")
    xq = Fraction(finite_horizon(x))
    try:
        xf = float(max(xq, 0))
    except OverflowError:
        raise InputError("horizon x is outside the floating-point range") from None
    t0 = time.perf_counter()
    budget = budget or Budget.default()

    def oracle_of(name: str) -> DistributionOracle:
        return resolve_oracle(oracle if oracle is not None else name)

    ctx = prepare_context(g, td)
    width = ctx.td.width
    names = sorted({d.name for _, _, d in g.edges if d.kind is DistKind.ORACLE})
    oracles = [oracle_of(name) for name in names]
    if tau is None:
        # formula order; instantiated with the original treewidth per the
        # (3k+3) factor, so pass the pre-separation width
        tau = choose_tau(ctx.k, xf, ctx.b, float(eps_additive))
        est = math.comb(tau + width + 1, width + 1)
        if est > budget.max_terms:
            raise InputError(
                f"formula tau={tau} is infeasible (about {est} monomials); supply --tau"
            )
    for orc in oracles:
        check_oracle(orc, xf, tau)

    rng = random.Random(_shuffle_seed) if _shuffle_seed is not None else None

    def solve_bag(i: int, kids: list[SymbolicSum]) -> SymbolicSum:
        return merge_bag(ctx, i, bag_taylor(ctx, i, oracle_of, tau, budget), kids, xq, budget,
                         taylor_tau=tau, order_rng=rng)

    def finish(final: SymbolicSum) -> dict:
        return {"value": evaluate(final)[0],
                "theoretical_bound": total_error_bound(width, tau, xf, ctx.b)}

    return solve(TaylorReport, ctx, t0, budget, xq, solve_bag, describe_sum, finish,
                 tau=tau, theoretical_bound=0.0, eps_additive=eps_additive)
