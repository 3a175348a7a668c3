"""Independent ground-truth generators: Monte Carlo estimation, rigorous
Riemann volume brackets for the uniform case, exact series-parallel
composition, and the closed form for unit-uniform chains.

These paths deliberately share no code with the tree-decomposition solvers:
the bracket evaluates whole-graph longest paths per grid corner, and the
series-parallel composer works by graph reduction over its own algebra of
exact terms c (t - a)_+^j e^(-q (t - a)): parallel edges multiply their
distribution functions, series edges convolve one's density with the other's
distribution function in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import mpmath
import numpy as np
from mpmath.ctx_iv import MPIntervalContext

from .errors import (Budget, BudgetExceeded, InputError, InvariantViolation,
                     NotSeriesParallelError, finite_horizon)
from .graph import Dag, DistKind, static_longest_path

# ---------------------------------------------------------------------------
# Monte Carlo


_MC_CHUNK = 1 << 16


def _sampler_for(dist) -> Callable[[np.random.Generator, int], np.ndarray]:
    from .taylor import resolve_oracle

    if dist.kind is DistKind.UNIFORM:
        a = dist.scale
        return lambda gen, size: a * gen.random(size)
    if dist.kind is DistKind.EXPONENTIAL:
        return lambda gen, size: -np.log1p(-gen.random(size))
    if dist.kind is DistKind.ZERO:
        return lambda gen, size: np.zeros(size)
    if dist.kind is DistKind.ORACLE:
        return resolve_oracle(dist.name).sample
    raise InputError(f"cannot sample distribution {dist}")


def _count_at_most(best, x: float, size: int) -> int:
    """Samples of ``best`` at most ``x``; an edgeless graph gives one float
    for all ``size`` samples."""
    return int(np.count_nonzero(np.broadcast_to(best <= x, size)))


def monte_carlo(g: Dag, x: float, samples: int, seed: int = 0,
                budget: Budget | None = None) -> tuple[float, float]:
    """Estimate Pr[longest path length <= x] by direct simulation.

    Deterministic given the seed: a counter-based generator is keyed by
    (seed, chunk index) over fixed-size chunks, so the result is independent
    of any surrounding parallelism.  With a ``budget``, each sample is charged
    as one cell before any is drawn.
    """
    finite_horizon(x)
    if samples < 1:
        raise InputError("need at least one sample")
    if budget is not None:
        budget.charge_cells(samples)
    samplers = [_sampler_for(d) for _, _, d in g.edges]
    hits = 0
    done = 0
    chunk_idx = 0
    seed_word = seed & 0xFFFFFFFFFFFFFFFF
    while done < samples:
        size = min(_MC_CHUNK, samples - done)
        gen = np.random.Generator(np.random.Philox(key=(seed_word << 64) + chunk_idx))
        # held until the next chunk's are drawn, so the allocator reuses these
        # pages; freed at once, they were returned and faulted in again
        lengths = [sampler(gen, size) for sampler in samplers]
        hits += _count_at_most(static_longest_path(g, lengths), x, size)
        done += size
        chunk_idx += 1
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr


# ---------------------------------------------------------------------------
# Riemann volume brackets


@dataclass(frozen=True)
class VolumeBracket:
    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.lower <= self.upper <= 1):
            raise InputError("bracket out of order")

    @property
    def lower_float(self) -> float:
        return float(self.lower)

    @property
    def upper_float(self) -> float:
        return float(self.upper)


def riemann_bracket(g: Dag, x: float, resolution: int, budget: Budget | None = None) -> VolumeBracket:
    """Exact cell-count bracket of the constraint-region volume for uniform
    edges: cells whose maximal corner is feasible lie fully inside, cells
    whose minimal corner is feasible may intersect.

    Evaluates whole-graph longest paths per corner; independent of the
    decomposition pipeline.
    """
    g.require_homogeneous(DistKind.UNIFORM)
    finite_horizon(x)
    if resolution < 1:
        raise InputError("resolution must be >= 1")
    budget = budget or Budget.default()
    m = g.m
    total = resolution**m
    budget.charge_cells(total)
    scales = [d.scale for _, _, d in g.edges]

    # counts[offs]: cells whose corner at offset offs is feasible; the
    # minimal corner (0) gives the upper count, the maximal (1) the lower
    counts = [0, 0]
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        size = idx.shape[0]
        corners = np.empty((m, size))
        rem = idx
        for e in range(m - 1, -1, -1):
            corners[e] = rem % resolution
            rem = rem // resolution
        for offs in (0, 1):
            best = static_longest_path(g, [a * (c + offs) for a, c in zip(scales, corners)])
            counts[offs] += _count_at_most(best, x * resolution, size)
    hi_count, lo_count = counts
    return VolumeBracket(Fraction(lo_count, total), Fraction(hi_count, total))


# ---------------------------------------------------------------------------
# Irwin-Hall closed form


def irwin_hall(m: int, x) -> Fraction:
    """Distribution function of the sum of m independent uniform [0,1]
    variables, exact at rational arguments."""
    if m < 1:
        raise InputError("need m >= 1")
    xq = Fraction(finite_horizon(x))
    if xq <= 0:
        return Fraction(0)
    if xq >= m:
        return Fraction(1)
    total = Fraction(0)
    fact_m = math.factorial(m)
    for j in range(int(xq) + 1):
        total += Fraction((-1) ** j * math.comb(m, j)) * (xq - j) ** m
    return total / fact_m


# ---------------------------------------------------------------------------
# Truncated-power terms (series-parallel algebra)


@dataclass(frozen=True)
class PiecewisePoly:
    """A function of t as a sum of exact terms c (t - a)_+^j e^(-q (t - a)),
    held as ``terms[(a, j, q)] = c`` with c a nonzero ``Fraction``.

    A uniform edge of range a is (t)_+/a - (t - a)_+/a, and uniform
    compositions keep q = 0: piecewise polynomials with breaks at the shifts
    a.  An Exp(1) edge is (t)_+^0 - (t)_+^0 e^(-t), and exponential
    compositions keep a = 0.
    """

    terms: Mapping[tuple, Fraction]

    def __call__(self, t) -> Fraction | float:
        """The value at t from the terms with a < t, their rational
        coefficients grouped by the exponent q (t - a): the exact
        ``Fraction`` when every exponent is 0, else the correctly rounded
        float."""
        tq = Fraction(t)
        groups = _collect((q * (tq - a), c * (tq - a) ** j)
                          for (a, j, q), c in self.terms.items() if a < tq)
        if set(groups) <= {0}:
            return Fraction(groups.get(0, 0))
        return _rounded_exp_sum(groups)

    def derivative(self) -> "PiecewisePoly":
        """Termwise derivative; ``InvariantViolation`` when the function
        jumps, i.e. when its j = 0 coefficients at some shift a do not sum
        to 0."""
        jumps = _collect((a, c) for (a, j, _), c in self.terms.items() if not j)
        if jumps:
            raise InvariantViolation(f"a distribution function jumps at {sorted(jumps)}")
        return PiecewisePoly(_collect(
            [((a, j - 1, q), j * c) for (a, j, q), c in self.terms.items() if j]
            + [((a, j, q), -q * c) for (a, j, q), c in self.terms.items() if q]))

    def product(self, other: "PiecewisePoly") -> "PiecewisePoly":
        """Pointwise product: of two terms, the one with the smaller shift a
        is rewritten around the larger b by
        (t - a)^i = sum_l C(i, l) (b - a)^(i - l) (t - b)^l."""
        def pairs():
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    (a, i, p), (b, j, q) = sorted((k1, k2))
                    if p and a != b:
                        raise InvariantViolation("exponential terms at different shifts")
                    for l in range(i + 1) if a != b else (i,):
                        yield (b, j + l, p + q), c1 * c2 * math.comb(i, l) * (b - a) ** (i - l)

        return PiecewisePoly(_collect(pairs()))


def _collect(pairs) -> dict:
    """The sums of the coefficients of (key, coefficient) pairs by key, the
    zero sums dropped."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def uniform_cdf_poly(scale: int) -> PiecewisePoly:
    a = Fraction(scale)
    return PiecewisePoly({(0, 1, 0): 1 / a, (scale, 1, 0): -1 / a})


_EXP_CDF = PiecewisePoly({(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1)})


def convolve_density_cdf(f: PiecewisePoly, G: PiecewisePoly) -> PiecewisePoly:
    """Distribution function of a sum: the convolution of the density ``f``
    with the distribution function ``G``, terms at shifts a and b giving
    terms at a + b."""
    return PiecewisePoly(_collect(((a + b, n, r), c1 * c2 * c)
                                  for (a, i, p), c1 in f.terms.items()
                                  for (b, j, q), c2 in G.terms.items()
                                  for (n, r), c in _convolved(i, p, j, q)))


# exp ladders up to 16 diamonds and uniform-mixed ones up to 6 need about 500
# distinct (i, p, j, q)
@lru_cache(maxsize=4096)
def _convolved(i: int, p, j: int, q) -> tuple[tuple[tuple, Fraction], ...]:
    """u_+^i e^(-p u) convolved with u_+^j e^(-q u), as ((power, rate),
    coefficient) pairs: at T > 0, the integral over [0, T] of
    u^i e^(-p u) (T - u)^j e^(-q (T - u)) du.  (T - u)^j is expanded
    binomially, and with c = p - q the integral of u^n e^(-c u) over [0, T]
    is T^(n+1)/(n+1) when c = 0, else
    n!/c^(n+1) (1 - e^(-c T) sum_(k <= n) (c T)^k/k!)."""
    c = Fraction(p - q)

    def pairs():
        for k in range(j + 1):
            # T^(j-k) e^(-q T) times (-1)^k C(j, k) u^n, n = i + k
            w = Fraction((-1) ** k * math.comb(j, k))
            n = i + k
            if not c:
                yield (j - k + n + 1, q), w / (n + 1)
                continue
            w *= math.factorial(n) / c ** (n + 1)
            yield (j - k, q), w
            for m in range(n + 1):
                yield (j - k + m, p), -w * c**m / math.factorial(m)

    return tuple(_collect(pairs()).items())


# interval sums start at _EXP_PREC bits and double up to _EXP_MAX_PREC
_EXP_PREC = 128
_EXP_MAX_PREC = 1 << 16


def _rounded_exp_sum(groups: Mapping[Fraction, Fraction]) -> float:
    """The sum of c e^(-g) over ``groups`` {g: c}, correctly rounded: the
    groups can cancel almost completely, so the interval sum is repeated at
    twice the precision until both of its ends round to the same float (0.0
    when the value underflows)."""
    iv = MPIntervalContext()
    iv.prec = _EXP_PREC
    while iv.prec <= _EXP_MAX_PREC:
        total = iv.mpf(0)
        for g, c in groups.items():
            e = iv.exp(iv.mpf(-g.numerator) / g.denominator)
            total += iv.mpf(c.numerator) / c.denominator * e
        # float() of an interval end does not round to nearest; an mpf does
        lo, hi = (float(mpmath.mpf(end)) for end in (total.a, total.b))
        if lo == hi:
            return lo or 0.0
        iv.prec *= 2
    raise BudgetExceeded(f"series-parallel value: the groups cancel beyond {_EXP_MAX_PREC} bits")


# ---------------------------------------------------------------------------
# series-parallel reduction


def _sp_reduce(g: Dag, series, parallel, leaf):
    """Two-terminal series-parallel reduction over an abstract edge algebra."""
    sources = sorted(g.sources)
    terminals = sorted(g.terminals)
    if len(sources) != 1 or len(terminals) != 1:
        raise NotSeriesParallelError("graph is not two-terminal")
    s_star, t_star = sources[0], terminals[0]
    edges: list[tuple[int, int, object]] = [(u, v, leaf(d)) for u, v, d in g.edges]
    changed = True
    while changed and len(edges) > 1:
        changed = False
        # parallel: combine duplicate endpoints
        seen: dict[tuple[int, int], int] = {}
        for idx, (u, v, payload) in enumerate(edges):
            if (u, v) in seen:
                j = seen[(u, v)]
                edges[j] = (u, v, parallel(edges[j][2], payload))
                edges.pop(idx)
                changed = True
                break
            seen[(u, v)] = idx
        if changed:
            continue
        # series: an inner vertex with exactly one in and one out edge
        indeg: dict[int, list[int]] = {}
        outdeg: dict[int, list[int]] = {}
        for idx, (u, v, _) in enumerate(edges):
            outdeg.setdefault(u, []).append(idx)
            indeg.setdefault(v, []).append(idx)
        for w in sorted(set(indeg) | set(outdeg)):
            if w in (s_star, t_star):
                continue
            if len(indeg.get(w, [])) == 1 and len(outdeg.get(w, [])) == 1:
                i_in, i_out = indeg[w][0], outdeg[w][0]
                u = edges[i_in][0]
                v = edges[i_out][1]
                combined = series(edges[i_in][2], edges[i_out][2], w)
                edges = [e for k, e in enumerate(edges) if k not in (i_in, i_out)]
                edges.append((u, v, combined))
                changed = True
                break
    if len(edges) != 1 or edges[0][0] != s_star or edges[0][1] != t_star:
        raise NotSeriesParallelError("graph did not reduce to a single edge")
    return edges[0][2]


def series_parallel_exact(g: Dag, x) -> Fraction | float:
    """Exact Pr[longest path length <= x] for two-terminal series-parallel
    graphs with homogeneous uniform or exponential edges, by composing the
    edges' truncated-power distribution functions: a ``Fraction`` for
    uniform edges, the correctly rounded float for exponential ones."""
    finite_horizon(x)
    kinds = g.kinds()
    uniform = kinds <= {DistKind.UNIFORM}
    if not uniform and not kinds <= {DistKind.EXPONENTIAL}:
        raise InputError("series-parallel oracle supports uniform or exponential edges")
    cdf = _sp_reduce(g, lambda F1, F2, _w: convolve_density_cdf(F1.derivative(), F2),
                     PiecewisePoly.product,
                     lambda d: uniform_cdf_poly(d.scale) if uniform else _EXP_CDF)
    value = cdf(Fraction(x))
    return value if uniform else float(value)
