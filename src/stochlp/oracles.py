"""Independent ground-truth generators: Monte Carlo estimation, rigorous
Riemann volume brackets for the uniform case, exact series-parallel
composition (piecewise polynomials for uniform lengths, symbolic
polynomial-exponential sums for exponential lengths), and the closed form for
unit-uniform chains.

These paths deliberately share no code with the tree-decomposition solvers:
the bracket evaluates whole-graph longest paths per grid corner, and the
series-parallel composer works by graph reduction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import Budget, InputError, NotSeriesParallelError, finite_horizon
from .graph import Dag, DistKind, static_longest_path
from . import symbolic as sy

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


def monte_carlo(g: Dag, x: float, samples: int, seed: int = 0) -> tuple[float, float]:
    """Estimate Pr[longest path length <= x] by direct simulation.

    Deterministic given the seed: a counter-based generator is keyed by
    (seed, chunk index) over fixed-size chunks, so the result is independent
    of any surrounding parallelism.
    """
    finite_horizon(x)
    if samples < 1:
        raise InputError("need at least one sample")
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
# Piecewise polynomials (uniform series-parallel algebra)


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on [breaks[0], inf), zero below breaks[0].

    ``polys[i]`` holds coefficients (ascending powers) on
    [breaks[i], breaks[i+1]); the last entry extends to infinity.
    """

    breaks: tuple[Fraction, ...]
    polys: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.breaks) != len(self.polys) or not self.breaks:
            raise InputError("breaks and polys must align")
        if list(self.breaks) != sorted(set(self.breaks)):
            raise InputError("breaks must strictly increase")

    def __call__(self, t) -> Fraction:
        tq = Fraction(t)
        if tq < self.breaks[0]:
            return Fraction(0)
        i = bisect_right(self.breaks, tq) - 1
        return _poly_eval(self.polys[i], tq)

    def support_end(self) -> Fraction:
        """First point after which the function is constant (requires a
        constant tail piece)."""
        tail = _poly_trim(self.polys[-1])
        if len(tail) > 1:
            raise InputError("unbounded final piece")
        return self.breaks[-1]

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, tuple(_poly_deriv(p) for p in self.polys))

    def product(self, other: "PiecewisePoly") -> "PiecewisePoly":
        cuts = sorted(set(self.breaks) | set(other.breaks))
        pieces = []
        kept = []
        for i, b in enumerate(cuts):
            probe = b if i == len(cuts) - 1 else (b + cuts[i + 1]) / 2
            pa = self._piece_at(probe)
            pb = other._piece_at(probe)
            pieces.append(_poly_trim(_poly_mul(pa, pb)))
            kept.append(b)
        return PiecewisePoly(tuple(kept), tuple(tuple(p) for p in pieces))

    def _piece_at(self, t: Fraction) -> tuple[Fraction, ...]:
        if t < self.breaks[0]:
            return (Fraction(0),)
        return self.polys[bisect_right(self.breaks, t) - 1]


def _poly_eval(p: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(tuple(p)):
        acc = acc * t + c
    return acc


def _poly_trim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out) if out else (Fraction(0),)


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_deriv(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _poly_trim(tuple(c * i for i, c in enumerate(p) if i >= 1))


def _poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def uniform_cdf_poly(scale: int) -> PiecewisePoly:
    a = Fraction(scale)
    return PiecewisePoly(
        breaks=(Fraction(0), a),
        polys=((Fraction(0), 1 / a), (Fraction(1),)),
    )


def convolve_density_cdf(f: PiecewisePoly, G: PiecewisePoly) -> PiecewisePoly:
    """CDF of a sum: integral of f(s) G(t - s) ds, exact rationals.

    ``f`` is a density with bounded support; ``G`` any piecewise polynomial
    that is 0 below its first break.
    """
    a = list(f.breaks)
    c = list(G.breaks)
    f.support_end()
    cand = sorted({ai + cj for ai in a for cj in c})
    pieces: list[tuple[Fraction, ...]] = []
    for idx in range(len(cand)):
        lo_t = cand[idx]
        hi_t = cand[idx + 1] if idx + 1 < len(cand) else lo_t + 1
        tm = (lo_t + hi_t) / 2
        total: tuple[Fraction, ...] = (Fraction(0),)
        for i in range(len(a) - 1):
            fi = f.polys[i]
            if _poly_trim(fi) == (Fraction(0),):
                continue
            for j in range(len(c)):
                gj = G.polys[j]
                if _poly_trim(gj) == (Fraction(0),):
                    continue
                # s range where both pieces apply: [a_i, a_{i+1}) and
                # t - s in [c_j, c_{j+1})
                s_lo_c = a[i]
                s_hi_c = a[i + 1]
                # bounds linear in t: s <= t - c_j, s > t - c_{j+1}
                lin_hi = c[j]
                lin_lo = c[j + 1] if j + 1 < len(c) else None
                lo_is_lin = lin_lo is not None and (tm - lin_lo) > s_lo_c
                hi_is_lin = (tm - lin_hi) < s_hi_c
                lo_val = (tm - lin_lo) if lo_is_lin else s_lo_c
                hi_val = (tm - lin_hi) if hi_is_lin else s_hi_c
                if lo_val >= hi_val:
                    continue
                # integrand f_i(s) * g_j(t - s): polynomial in s whose
                # coefficients are polynomials in t
                integrand = _st_mul(
                    [(k, (coeff,)) for k, coeff in enumerate(fi) if coeff != 0],
                    _compose_t_minus_s(gj),
                )
                anti = _st_integ_s(integrand)
                hi_poly = _st_eval_s(anti, (-lin_hi, Fraction(1)) if hi_is_lin else (hi_val,))
                lo_poly = _st_eval_s(anti, (-lin_lo, Fraction(1)) if lo_is_lin else (lo_val,))
                total = _poly_add(total, _poly_add(hi_poly, tuple(-q for q in lo_poly)))
        pieces.append(_poly_trim(total))
    return PiecewisePoly(tuple(cand), tuple(pieces))


# polynomials in s with coefficients polynomial in t: list of (s-power, t-poly)
STPoly = list[tuple[int, tuple[Fraction, ...]]]


def _compose_t_minus_s(g: Sequence[Fraction]) -> STPoly:
    """g(t - s) expanded as a polynomial in s with t-polynomial coefficients."""
    acc: dict[int, tuple[Fraction, ...]] = {}
    # (t - s)^l via iterated multiplication
    cur: dict[int, tuple[Fraction, ...]] = {0: (Fraction(1),)}
    for l, coeff in enumerate(g):
        if l > 0:
            nxt: dict[int, tuple[Fraction, ...]] = {}
            for sp, tp in cur.items():
                # multiply by t
                nxt[sp] = _poly_add(nxt.get(sp, (Fraction(0),)), (Fraction(0),) + tuple(tp))
                # multiply by -s
                nxt[sp + 1] = _poly_add(nxt.get(sp + 1, (Fraction(0),)), tuple(-q for q in tp))
            cur = nxt
        if coeff != 0:
            for sp, tp in cur.items():
                acc[sp] = _poly_add(acc.get(sp, (Fraction(0),)), tuple(coeff * q for q in tp))
    return sorted(acc.items())


def _st_mul(a: STPoly, b: STPoly) -> STPoly:
    acc: dict[int, tuple[Fraction, ...]] = {}
    for pa, ta in a:
        for pb, tb in b:
            acc[pa + pb] = _poly_add(acc.get(pa + pb, (Fraction(0),)), _poly_mul(ta, tb))
    return sorted(acc.items())


def _st_integ_s(a: STPoly) -> STPoly:
    return [(p + 1, tuple(q / (p + 1) for q in tp)) for p, tp in a]


def _st_eval_s(a: STPoly, bound: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Evaluate at s = bound (constant (c,) or linear (alpha, beta) in t)."""
    total: tuple[Fraction, ...] = (Fraction(0),)
    power: tuple[Fraction, ...] = (Fraction(1),)
    by_power = dict(a)
    top = max(by_power) if by_power else 0
    for p in range(top + 1):
        if p:
            power = _poly_mul(power, bound)
        if p in by_power:
            total = _poly_add(total, _poly_mul(by_power[p], power))
    return _poly_trim(total)


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
    graphs with homogeneous uniform or exponential edges.

    Uniform: exact rational (piecewise polynomial composition).
    Exponential: float from the symbolic polynomial-exponential composition.
    """
    finite_horizon(x)
    kinds = g.kinds()
    if kinds <= {DistKind.UNIFORM}:
        def leaf(d):
            return uniform_cdf_poly(d.scale)

        def series(F1, F2, _w):
            return convolve_density_cdf(F1.derivative(), F2)

        def parallel(F1, F2):
            return F1.product(F2)

        cdf = _sp_reduce(g, series, parallel, leaf)
        return cdf(Fraction(x))
    if kinds <= {DistKind.EXPONENTIAL}:
        sources = sorted(g.sources)
        terminals = sorted(g.terminals)

        def leaf(d):
            del d

            def factory(a: int, b: int) -> sy.SymbolicSum:
                return _exp_cdf_sum(a, b)

            return factory

        def series(F1, F2, w):
            def factory(a: int, b: int) -> sy.SymbolicSum:
                left = sy.differentiate(F1(a, w), a)
                prod = sy.multiply(left, F2(w, b))
                return sy.integrate_out(prod, w)

            return factory

        def parallel(F1, F2):
            def factory(a: int, b: int) -> sy.SymbolicSum:
                return sy.multiply(F1(a, b), F2(a, b))

            return factory

        factory = _sp_reduce(g, series, parallel, leaf)
        cdf = factory(sources[0], terminals[0])
        cdf = sy.substitute(cdf, sources[0], Fraction(x))
        cdf = sy.substitute(cdf, terminals[0], Fraction(0))
        return sy.evaluate(cdf)[0]
    raise InputError("series-parallel oracle supports uniform or exponential edges")


def _exp_cdf_sum(a: int, b: int) -> sy.SymbolicSum:
    guard = sy.SymbolicSum.guard(sy.var_atom(b), sy.var_atom(a))
    payload = sy.SymbolicSum.const(1) - sy.SymbolicSum.term(1, exps={a: -1, b: 1})
    return sy.multiply(guard, payload)
