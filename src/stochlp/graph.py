"""DAG data model: parsing, topological order and static longest path.

Vertices are stored 0-based in a topological order (for every edge ``u < v``);
the 1-based labels from the input file are kept in ``Dag.labels``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CycleError,
    DistributionMismatchError,
    GraphFormatError,
    InputError,
)

NEG_INF = float("-inf")


class DistKind(str, Enum):
    UNIFORM = "uniform"
    EXPONENTIAL = "exp"
    ORACLE = "oracle"
    ZERO = "zero"  # internal: deterministic length 0, introduced by separation


@dataclass(frozen=True)
class DistSpec:
    """Edge length distribution tag.

    ``UNIFORM`` carries a positive integer scale ``a`` (length = a * U[0,1]).
    ``ZERO`` is internal only: an exact point mass at 0.
    """

    kind: DistKind
    scale: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind is DistKind.UNIFORM and self.scale < 1:
            raise GraphFormatError(f"uniform scale must be >= 1, got {self.scale}")
        if self.kind is DistKind.ORACLE and not self.name:
            raise GraphFormatError("oracle distribution needs a name")

    @classmethod
    def uniform(cls, a: int) -> "DistSpec":
        return cls(DistKind.UNIFORM, scale=a)

    @classmethod
    def exponential(cls) -> "DistSpec":
        return cls(DistKind.EXPONENTIAL)

    @classmethod
    def oracle(cls, name: str) -> "DistSpec":
        return cls(DistKind.ORACLE, name=name)

    @classmethod
    def zero(cls) -> "DistSpec":
        return cls(DistKind.ZERO)

    def __str__(self) -> str:
        if self.kind is DistKind.UNIFORM:
            return f"uniform {self.scale}"
        if self.kind is DistKind.ORACLE:
            return f"oracle {self.name}"
        return self.kind.value


Edge = tuple[int, int, DistSpec]


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph with per-edge distribution tags.

    Invariants: edges carry distinct (u, v) pairs with u != v, and vertex ids
    are a topological order (u < v for every edge).  The edges themselves need
    not come in tail order.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[int, ...] = ()  # internal id -> label in the source file

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        for u, v, _ in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(f"edge ({u},{v}) out of range")
            if u == v:
                raise GraphFormatError(f"self-loop at {u}")
            if u > v:
                raise GraphFormatError("vertex ids are not topological")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, self.n + 1)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def dist_of(self) -> dict[tuple[int, int], DistSpec]:
        return {(u, v): d for u, v, d in self.edges}

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            out[u].append(v)
        return tuple(tuple(sorted(s)) for s in out)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            inc[v].append(u)
        return tuple(tuple(sorted(p)) for p in inc)

    @cached_property
    def sources(self) -> frozenset[int]:
        """Vertices with no incoming edge (whole-graph rule)."""
        return frozenset(v for v in range(self.n) if not self.predecessors[v])

    @cached_property
    def terminals(self) -> frozenset[int]:
        """Vertices with no outgoing edge (whole-graph rule)."""
        return frozenset(v for v in range(self.n) if not self.successors[v])

    def kinds(self) -> set[DistKind]:
        return {d.kind for _, _, d in self.edges}

    def require_homogeneous(self, kind: DistKind) -> None:
        extra = self.kinds() - {kind, DistKind.ZERO}
        if extra:
            raise DistributionMismatchError(
                f"distribution mismatch: this solver needs {kind.value} edges, "
                f"found {sorted(k.value for k in extra)}"
            )


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_graph(text: str) -> Dag:
    """Parse the external graph format.

    First non-comment line is ``n m``; then ``m`` lines ``u v spec`` with
    spec in {``uniform <a>``, ``exp``, ``oracle <name>``}.  ``#`` starts a
    comment.  Vertices are relabeled into a topological order; the original
    1-based labels are recorded in ``Dag.labels``.
    """
    rows = [t.split() for raw in text.splitlines() if (t := _strip_comment(raw).strip())]
    if not rows:
        raise GraphFormatError("empty graph file")
    head = rows[0]
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {' '.join(head)!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"header must be 'n m', got {' '.join(head)!r}")
    if n < 1 or m < 0:
        raise GraphFormatError(f"invalid header n={n} m={m}")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")

    raw_edges: list[tuple[int, int, DistSpec]] = []
    seen: set[tuple[int, int]] = set()
    for row in rows[1:]:
        if len(row) < 3:
            raise GraphFormatError(f"malformed edge line: {' '.join(row)!r}")
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError:
            raise GraphFormatError(f"malformed edge line: {' '.join(row)!r}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"edge ({u},{v}) out of range 1..{n}")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        tag = row[2]
        if tag == "uniform":
            if len(row) != 4:
                raise GraphFormatError(f"uniform needs one scale argument: {' '.join(row)!r}")
            try:
                a = int(row[3])
            except ValueError:
                raise GraphFormatError(f"non-integer uniform scale: {row[3]!r}")
            if a < 1:
                raise GraphFormatError(f"non-positive uniform scale: {a}")
            dist = DistSpec.uniform(a)
        elif tag == "exp":
            if len(row) != 3:
                raise GraphFormatError(f"exp takes no arguments: {' '.join(row)!r}")
            dist = DistSpec.exponential()
        elif tag == "oracle":
            if len(row) != 4:
                raise GraphFormatError(f"oracle needs a name: {' '.join(row)!r}")
            dist = DistSpec.oracle(row[3])
        else:
            raise GraphFormatError(f"unknown distribution tag: {tag!r}")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        raw_edges.append((u, v, dist))

    order = _topological_order(n, [(u, v) for u, v, _ in raw_edges])
    pos = {label: i for i, label in enumerate(order)}
    edges = tuple(sorted(((pos[u], pos[v], d) for u, v, d in raw_edges), key=lambda e: (e[0], e[1])))
    return Dag(n=n, edges=edges, labels=tuple(order))


def _topological_order(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Deterministic (smallest-label-first) Kahn ordering of labels 1..n."""
    indeg = [0] * (n + 1)
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in pairs:
        indeg[v] += 1
        succ[u].append(v)
    heap = [v for v in range(1, n + 1) if indeg[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != n:
        raise CycleError("cycle detected")
    return order


def static_longest_path(
    g: Dag,
    lengths: Mapping[tuple[int, int], float] | Sequence[float],
) -> float | np.ndarray:
    """Static longest source-terminal path: the max over paths from a
    whole-graph source to a whole-graph terminal of the sum of edge lengths,
    linear time in the graph size.

    ``lengths`` is either a sequence aligned with ``g.edges`` or a mapping
    keyed by (u, v).  Each length is a float, or each is a 1-D array of
    samples of one common size; then the result is an array with one longest
    length per sample.  Edges are relaxed in (tail, head) order, whatever the
    order of ``g.edges``.
    """
    if isinstance(lengths, Mapping):
        raw = [lengths[(u, v)] for u, v, _ in g.edges]
    else:
        if len(lengths) != g.m:
            raise InputError(f"expected {g.m} edge lengths, got {len(lengths)}")
        raw = list(lengths)
    if not any(getattr(w, "ndim", 0) for w in raw):
        wl = [float(w) for w in raw]
        finite = all(map(math.isfinite, wl))
        # builtin max keeps its first argument on ties, as a strict > relaxation does
        dist, best, join = [NEG_INF] * g.n, NEG_INF, max
    else:
        wl = [np.asarray(w, dtype=float) for w in raw]
        shape = wl[0].shape
        if len(shape) != 1 or any(w.shape != shape for w in wl):
            raise InputError("edge lengths must be all floats or all 1-D arrays of one size")
        finite = all(np.isfinite(w).all() for w in wl)
        # rows of one block, maximised in place: no allocation per relaxation
        dist, best = list(np.full((g.n, *shape), NEG_INF)), np.full(shape, NEG_INF)
        join = lambda row, w: np.maximum(row, w, out=row)
    if not finite:
        raise InputError("edge lengths must be finite")
    for s in g.sources:
        dist[s] = join(dist[s], 0.0)
    for i in sorted(range(g.m), key=lambda i: g.edges[i][:2]):
        u, v, _ = g.edges[i]
        dist[v] = join(dist[v], dist[u] + wl[i])
    for t in g.terminals:
        best = join(best, dist[t])
    return best

