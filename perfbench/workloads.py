"""Seeded workloads of the stochlp benchmark.

Each workload is a list of queries built from ``stochlp.generate`` output.
The program sees only the serialized graph and decomposition text of a query;
``answer`` sends it through the public entry points, and ``check`` compares
the answer with an independent reference that runs outside every timed
region.

Seed 0 is the nominal corpus. Any other seed also moves every horizon by a
seeded multiple of 1/16 in [-1/8, 1/8], and drives the ``random-tw`` draws
and the ``uniform-mixed`` scales. Chain topology is fixed by design.
Horizons are dyadic rationals, so the float the approximate solver receives
is exactly the rational the references are evaluated at.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from stochlp import (
    Budget,
    Dag,
    DistSpec,
    decomposition,
    exactexp,
    generate,
    graph,
    graph_text,
    heuristic_td,
    irwin_hall,
    series_parallel_exact,
    static_longest_path,
    staircase,
    taylor,
    td_text,
)

# Tolerance of the exact references, as pinned by the repository's own
# decomposition-independence tests.
EXACT_TOL = 1e-12
# Slack for the float rounding of the staircase sandwich, as in the tests.
SANDWICH_SLACK = 1e-12


@dataclass(frozen=True)
class Query:
    """One solver call: which solver, its inputs as text, and the check."""

    name: str
    solver: str  # "approx", "exact" or "taylor"
    check: str  # "irwin-hall", "sp-sandwich", "sp-exact", "td-independence", "exp-twin"
    graph: str
    td: str | None  # None: the solver synthesizes a heuristic decomposition
    x: Fraction
    m_res: int = 0
    tau: int = 0
    size: int = 0  # the size a doubling ratio compares (n, M or diamonds)

    def key(self) -> str:
        """Digest of everything the program receives, for recorded values."""
        text = "\0".join([self.solver, self.graph, self.td or "", str(self.x),
                          str(self.m_res), str(self.tau)])
        return hashlib.sha256(text.encode()).hexdigest()[:24]


class _Horizons:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"horizons/{seed}")

    def __call__(self, nominal: Fraction) -> Fraction:
        if self.seed == 0:
            return nominal
        return nominal * (1 + Fraction(self.rng.randint(-2, 2), 16))


def _texts(inst) -> tuple[str, str]:
    return graph_text(inst.dag), td_text(inst.dag, inst.td)


def chain_approx(seed: int) -> list[Query]:
    horizon = _Horizons(seed)
    out = []
    for n in (75, 150, 300):
        gtext, ttext = _texts(generate("chain", n, dist="uniform"))
        x = horizon(Fraction(n - 1, 2))
        for label, td in (("given", ttext), ("heuristic", None)):
            out.append(Query(f"chain-{n}/{label}", "approx", "irwin-hall",
                             gtext, td, x, m_res=8, size=n))
    return out


def ladder_grid(seed: int) -> list[Query]:
    horizon = _Horizons(seed)
    out = []
    # series_parallel_exact takes about 4 s per horizon on a 6-diamond ladder
    # and 11 s on an 8-diamond one, so the ladders stop at 6
    for d in (2, 4, 6):
        inst = generate("diamond-ladder", d, dist="uniform-mixed", seed=seed)
        gtext, ttext = _texts(inst)
        longest = int(static_longest_path(inst.dag, [e.scale for _, _, e in inst.dag.edges]))
        for share in (Fraction(3, 8), Fraction(5, 8)):
            x = horizon(longest * share)
            for m_res in (12, 24):
                out.append(Query(f"ladder-{d}/M={m_res}/x={x}", "approx", "sp-sandwich",
                                 gtext, ttext, x, m_res=m_res, size=m_res))
    return out


def ladder_exact(seed: int) -> list[Query]:
    horizon = _Horizons(seed)
    out = []
    for d in (2, 4, 8):
        gtext, ttext = _texts(generate("diamond-ladder", d, dist="exp"))
        for nominal in (Fraction(d), Fraction(5 * d, 2)):
            x = horizon(nominal)
            out.append(Query(f"ladder-{d}/x={x}", "exact", "sp-exact", gtext, ttext, x, size=d))
    # One small random partial 2-tree: its cost varies with the draw, and a
    # single query of about a ladder-2's cost leaves query_ms.p50 on a ladder.
    x = horizon(Fraction(2))
    gtext, ttext = _texts(generate("random-tw", 6, seed=seed, dist="exp", k=2))
    out.append(Query(f"random-tw-6/x={x}", "exact", "td-independence", gtext, ttext, x))
    return out


def taylor_trunc(seed: int) -> list[Query]:
    horizon = _Horizons(seed)
    gtext, ttext = _texts(generate("diamond-ladder", 2, dist="oracle:expcdf"))
    out = [Query(f"ladder-2/x={x}", "taylor", "exp-twin", gtext, ttext, x, tau=4)
           for x in (horizon(Fraction(1, 2)), horizon(Fraction(1)))]
    gtext, ttext = _texts(generate("random-tw", 6, seed=seed, dist="oracle:expcdf", k=2))
    x = horizon(Fraction(1))
    out.append(Query(f"random-tw-6/x={x}", "taylor", "exp-twin", gtext, ttext, x, tau=4))
    return out


WORKLOADS = {
    "chain-approx": chain_approx,
    "ladder-grid": ladder_grid,
    "ladder-exact": ladder_exact,
    "taylor-trunc": taylor_trunc,
}


def build(workload: str, seed: int) -> list[Query]:
    return WORKLOADS[workload](seed)


def _load(q: Query):
    g = graph.parse_graph(q.graph)
    if q.td is None:
        return g, None
    td = decomposition.parse_td(q.td)
    return g, td.relabel({label: i for i, label in enumerate(g.labels)})


def answer(q: Query) -> tuple[float, object, Budget | None]:
    """Parse and solve one query through the public entry points.

    Calls go through module attributes, so a tracer that rebinds them sees
    them. Returns the value, the solver's report and the symbolic budget.
    """
    g, td = _load(q)
    if q.solver == "approx":
        value, report = staircase.approx_dag(g, td, float(q.x), m_override=q.m_res)
        return value, report, None
    budget = Budget.default()
    if q.solver == "exact":
        value, report = exactexp.exact_exp(g, td, q.x, budget=budget)
    else:
        value, report = taylor.approx_taylor(g, td, q.x, tau=q.tau, budget=budget)
    return value, report, budget


def _sandwich(value: float, report, q: Query, cdf, longest: int) -> str | None:
    """The staircase guarantee F(x) <= v <= F(x (1 + (w+1) n* / M))."""
    low = cdf(q.x)
    if not float(low) <= value + SANDWICH_SLACK:
        return f"below the staircase sandwich: {value!r} < F(x) = {float(low)!r}"
    inflated = q.x * (1 + Fraction(report.separated_width + 1) * report.separated_n / q.m_res)
    # no path is longer than the heaviest path of scales, so F = 1 beyond it
    high = cdf(inflated) if inflated < longest else 1
    if not value <= float(high) + SANDWICH_SLACK:
        return f"above the staircase sandwich: {value!r} > F(x') = {float(high)!r}"
    return None


class Checker:
    """Independent references for each query's answer.

    References are pure functions of the query, so one checker caches them
    across the queries of a run that share a graph and horizon.
    """

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def _ref(self, key: tuple, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, q: Query, value: float, report) -> str | None:
        """Return why the answer fails, or None when it holds."""
        if not math.isfinite(value):
            return f"non-finite probability {value!r}"
        if not 0.0 <= value <= 1.0:
            return f"probability {value!r} outside [0, 1]"
        g, td = _load(q)
        if q.check == "irwin-hall":
            # unit-uniform chain: the longest path is the sum of its m edges
            return _sandwich(value, report, q,
                             lambda y: self._ref(("ih", g.m, y), lambda: irwin_hall(g.m, y)), g.m)
        if q.check == "sp-sandwich":
            longest = int(static_longest_path(g, [e.scale for _, _, e in g.edges]))
            return _sandwich(value, report, q,
                             lambda y: self._ref(("sp", q.graph, y),
                                                 lambda: series_parallel_exact(g, y)), longest)
        if q.check == "sp-exact":
            ref = self._ref(("sp", q.graph, q.x), lambda: series_parallel_exact(g, q.x))
            if abs(value - ref) > EXACT_TOL:
                return f"differs from series_parallel_exact {ref!r} by {abs(value - ref):.3g}"
            return None
        if q.check == "td-independence":
            ref, _ = exactexp.exact_exp(g, heuristic_td(g), q.x)
            if abs(value - ref) > EXACT_TOL:
                return f"differs from the heuristic-decomposition value {ref!r} by {abs(value - ref):.3g}"
            return None
        if q.check == "exp-twin":
            twin = Dag(n=g.n, edges=tuple((u, v, DistSpec.exponential()) for u, v, _ in g.edges),
                       labels=g.labels)
            ref, _ = exactexp.exact_exp(twin, td, q.x)
            if abs(value - ref) > report.theoretical_bound:
                return (f"misses the exp-edge twin {ref!r} by {abs(value - ref):.3g} "
                        f"> theoretical_bound {report.theoretical_bound:.3g}")
            return None
        raise ValueError(f"unknown check {q.check!r}")
