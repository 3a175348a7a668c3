"""Tree decompositions: parsing/validation, a min-degree heuristic,
binarization, the vertex-tripling separation transform, and the per-bag
derived sets (bag-subgraph edges, sources/terminals, glue sets) consumed by
all three solvers.
"""

from __future__ import annotations

import heapq
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import Budget, InputError, InvariantViolation, TdFormatError
from .graph import Dag, DistSpec


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 forming a tree; bag 0 is the root."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]
    root: int = 0

    def __post_init__(self) -> None:
        b = len(self.bags)
        if b < 1:
            raise TdFormatError("decomposition needs at least one bag")
        for i, j in self.tree_edges:
            if not (0 <= i < b and 0 <= j < b) or i == j:
                raise TdFormatError(f"bad tree edge ({i},{j})")
        if not (0 <= self.root < b):
            raise TdFormatError("root index out of range")

    @property
    def b(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max(len(bag) for bag in self.bags) - 1

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[set[int]] = [set() for _ in self.bags]
        for i, j in self.tree_edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(tuple(sorted(a)) for a in adj)

    def is_tree(self) -> bool:
        """b - 1 edges, and the cached rooted walk reaches every bag."""
        if len(self.tree_edges) != self.b - 1:
            return False
        try:
            self.rooted()
        except TdFormatError:
            return False
        return True

    def rooted(self) -> tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(parent, children, depth) arrays for the tree rooted at ``root``,
        computed once per decomposition."""
        return self._rooted

    @cached_property
    def _rooted(self) -> tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
        parent: list[int | None] = [None] * self.b
        children: list[list[int]] = [[] for _ in range(self.b)]
        depth = [0] * self.b
        seen = {self.root}
        stack = [self.root]
        while stack:
            i = stack.pop()
            for j in self.adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    parent[j] = i
                    children[i].append(j)
                    depth[j] = depth[i] + 1
                    stack.append(j)
        if len(seen) != self.b:
            raise TdFormatError("disconnected tree decomposition")
        return tuple(parent), tuple(tuple(sorted(c)) for c in children), tuple(depth)

    def relabel(self, mapping: Mapping[int, int]) -> "TreeDecomposition":
        """Map bag contents through ``mapping`` (e.g. file labels to internal ids)."""
        new_bags = []
        for bag in self.bags:
            out = set()
            for v in bag:
                if v not in mapping:
                    raise TdFormatError(f"decomposition mentions unknown vertex {v}")
                out.add(mapping[v])
            new_bags.append(frozenset(out))
        td = TreeDecomposition(tuple(new_bags), self.tree_edges, self.root)
        # same tree and root: the walks already cached on self hold for td
        for name in ("adjacency", "_rooted"):
            if name in self.__dict__:
                td.__dict__[name] = self.__dict__[name]
        return td


def parse_td(text: str) -> TreeDecomposition:
    """Parse a PACE-2017-style .td file.

    Header ``s td <b> <width+1> <n>``, bag lines ``b <i> <v...>`` with 1-based
    bag indices, remaining lines are tree edges ``<i> <j>``; ``c`` starts a
    comment.  Bag contents keep the file's vertex labels; call ``relabel``
    with the graph's label map before validating.
    """
    header: tuple[int, int, int] | None = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise TdFormatError("duplicate 's td' header")
            if len(parts) != 5 or parts[1] != "td":
                raise TdFormatError(f"malformed header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise TdFormatError(f"malformed header: {line!r}")
        elif parts[0] == "b":
            if header is None:
                raise TdFormatError("bag line before 's td' header")
            try:
                idx = int(parts[1])
                verts = frozenset(int(p) for p in parts[2:])
            except ValueError:
                raise TdFormatError(f"malformed bag line: {line!r}")
            if not (1 <= idx <= header[0]):
                raise TdFormatError(f"bag index {idx} out of range 1..{header[0]}")
            if idx in bags:
                raise TdFormatError(f"duplicate bag index {idx}")
            bags[idx] = verts
        else:
            if header is None:
                raise TdFormatError("tree edge before 's td' header")
            if len(parts) != 2:
                raise TdFormatError(f"malformed tree edge line: {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise TdFormatError(f"malformed tree edge line: {line!r}")
            if not (1 <= i <= header[0] and 1 <= j <= header[0]):
                raise TdFormatError(f"bag index out of range in edge {i} {j}")
            edges.append((i - 1, j - 1))
    if header is None:
        raise TdFormatError("missing 's td' header")
    b = header[0]
    bag_list = [bags.get(i + 1, frozenset()) for i in range(b)]
    for i in range(b):
        if (i + 1) not in bags:
            raise TdFormatError(f"bag {i + 1} not declared")
    td = TreeDecomposition(tuple(bag_list), tuple(edges))
    if not td.is_tree():
        raise TdFormatError("bag graph is not a connected tree")
    return td


def format_td(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {td.b} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append("b " + " ".join([str(i + 1)] + [str(v) for v in sorted(bag)]))
    for i, j in td.tree_edges:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TdReport:
    valid: bool
    condition: str | None = None
    witness: object = None
    message: str = "ok"


def _occurrences(td: TreeDecomposition, n: int) -> list[list[int]]:
    """Occurrence lists: ``occ[v]`` holds the indices of the bags containing
    ``v`` in ascending order.  O(sum of bag sizes)."""
    occ: list[list[int]] = [[] for _ in range(n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < n):
                raise InputError(f"bag vertex {v} outside graph")
            occ[v].append(i)
    return occ


def validate_td(g: Dag, td: TreeDecomposition) -> TdReport:
    """Check the three decomposition conditions against the underlying
    undirected graph of ``g``; report the first violation with a witness.

    Runs in O(sum of bag sizes + sum over edges of the shorter endpoint
    occurrence list), using each vertex's occurrence list.
    """
    if not td.is_tree():
        return TdReport(False, "tree", None, "bag graph is not a connected tree")
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return TdReport(False, "vertices", v, f"bag vertex {v} outside graph")
    occ = _occurrences(td, g.n)
    for v in range(g.n):
        if not occ[v]:
            return TdReport(False, "condition1", v, f"vertex {v} in no bag")
    bags = td.bags
    for u, v, _ in g.edges:
        a, b = (u, v) if len(occ[u]) <= len(occ[v]) else (v, u)
        if not any(b in bags[i] for i in occ[a]):
            return TdReport(False, "condition2", (u, v), f"edge ({u},{v}) uncovered")
    # condition 3: the bags holding v form a subtree iff exactly one of them
    # has a parent that does not hold v
    parent, _, _ = td.rooted()
    for v in range(g.n):
        tops = sum(1 for i in occ[v] if parent[i] is None or v not in bags[parent[i]])
        if tops != 1:
            return TdReport(False, "condition3", v, f"occurrence set of vertex {v} disconnected")
    return TdReport(True)


def heuristic_td(g: Dag) -> TreeDecomposition:
    """Min-degree elimination-ordering decomposition of the underlying
    undirected graph.  Always valid; width not guaranteed minimal.

    Ties go to the smaller vertex.  A lazy heap keyed by (degree, vertex)
    finds each next vertex in O(log n): a vertex whose degree changes is
    pushed again, and a popped entry whose vertex is gone or whose degree is
    out of date is skipped, so the elimination order is that of a full scan.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    heap = [(len(adj[v]), v) for v in range(g.n)]
    heapq.heapify(heap)
    elim_bags: list[tuple[int, frozenset[int]]] = []  # (eliminated vertex, bag)
    elim_pos: dict[int, int] = {}
    while heap:
        degree, v = heapq.heappop(heap)
        if v in elim_pos or degree != len(adj[v]):
            continue
        nbrs = frozenset(adj[v])
        elim_pos[v] = len(elim_bags)
        elim_bags.append((v, frozenset({v}) | nbrs))
        for a in nbrs:
            adj[a].discard(v)
        for a in nbrs:
            for b in nbrs:
                if a < b:
                    adj[a].add(b)
                    adj[b].add(a)
        for a in nbrs:
            heapq.heappush(heap, (len(adj[a]), a))
    b = len(elim_bags)
    edges: list[tuple[int, int]] = []
    for i, (v, bag) in enumerate(elim_bags):
        later = [w for w in bag - {v}]
        if later:
            j = min(elim_pos[w] for w in later)
            edges.append((i, j))
        elif i != b - 1:
            edges.append((i, b - 1))  # keep the tree connected for isolated remnants
    # re-root at the last-eliminated bag and renumber so the root is index 0
    order = [b - 1] + [i for i in range(b - 1)]
    newpos = {old: new for new, old in enumerate(order)}
    bags = tuple(elim_bags[old][1] for old in order)
    td = TreeDecomposition(bags, tuple((newpos[i], newpos[j]) for i, j in edges))
    report = validate_td(g, td)
    if not report.valid:
        raise InvariantViolation(f"heuristic decomposition invalid: {report.message}")
    return td


def binarize_td(td: TreeDecomposition) -> TreeDecomposition:
    """Duplicate-bag chain construction: every bag ends up with at most two
    children; width unchanged; idempotent on already-binary input."""
    parent, children, _ = td.rooted()
    if all(len(c) <= 2 for c in children):
        return td
    bags = list(td.bags)
    new_children: dict[int, list[int]] = {i: list(children[i]) for i in range(td.b)}
    for i in range(td.b):
        kids = list(children[i])
        cur = i
        while len(kids) > 2:
            first = kids.pop(0)
            dup = len(bags)
            bags.append(td.bags[i])
            new_children[dup] = []
            new_children[cur] = [first, dup]
            cur = dup
        if cur != i:
            new_children[cur] = kids
    edges = []
    for p, kids in new_children.items():
        for c in kids:
            edges.append((p, c))
    out = TreeDecomposition(tuple(bags), tuple(edges), td.root)
    _, out_children, _ = out.rooted()
    if any(len(c) > 2 for c in out_children):
        raise InvariantViolation("binarize failed to bound children at 2")
    return out


def separate(g: Dag, td: TreeDecomposition) -> tuple[Dag, TreeDecomposition]:
    """Build the separated graph/decomposition pair.

    Every vertex v becomes v- = 3v, v* = 3v+1 and v+ = 3v+2, joined by two
    zero-length edges; the incoming edges of v move to v-; an outgoing edge
    of v leaves from v* when its head lies in v's topmost bag and from v+
    when the head only appears in strictly deeper bags.  Bags are tripled in
    place, so the width grows from w to 3w+2 and the longest path
    distribution is unchanged for x >= 0.
    """
    _, _, depth = td.rooted()
    topmost: list[int] = []
    for v, occ in enumerate(_occurrences(td, g.n)):
        if not occ:
            raise InputError(f"vertex {v} missing from every bag; validate the decomposition first")
        best = min(occ, key=depth.__getitem__)
        if sum(1 for i in occ if depth[i] == depth[best]) != 1:
            raise InputError(f"occurrence set of vertex {v} is disconnected")
        topmost.append(best)

    edges: list[tuple[int, int, DistSpec]] = []
    for v in range(g.n):
        edges.append((3 * v, 3 * v + 1, DistSpec.zero()))
        edges.append((3 * v + 1, 3 * v + 2, DistSpec.zero()))
    for u, v, dist in g.edges:
        tail = 3 * u + 1 if v in td.bags[topmost[u]] else 3 * u + 2
        edges.append((tail, 3 * v, dist))
    edges.sort(key=lambda e: (e[0], e[1]))
    g_star = Dag(n=3 * g.n, edges=tuple(edges))

    bags = tuple(
        frozenset().union(*({3 * v, 3 * v + 1, 3 * v + 2} for v in bag)) if bag else frozenset()
        for bag in td.bags
    )
    td_star = TreeDecomposition(bags, td.tree_edges, td.root)
    return g_star, td_star


def _roles(
    g: Dag, vertices: Iterable[int], n_out: Mapping[int, int], n_in: Mapping[int, int]
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(sources, terminals, internals) among ``vertices`` of a subgraph that
    holds ``n_out[v]`` out-edges and ``n_in[v]`` in-edges of each ``v``.

    The rule of ``classify_subgraph_vertices`` in ``tests/reference.py``,
    read off the counts: a source has an out-edge in the subgraph and misses
    an in-edge of ``g`` (or has none in ``g``); terminals are symmetric; a
    vertex with no edge in the subgraph has no role.
    """
    sources, terminals, internals = [], [], []
    for v in vertices:
        o, n = n_out[v], n_in[v]
        if not o and not n:
            continue
        g_in, g_out = len(g.predecessors[v]), len(g.successors[v])
        is_src = o > 0 and (n < g_in or not g_in)
        is_term = n > 0 and (o < g_out or not g_out)
        if is_src:
            sources.append(v)
        if is_term:
            terminals.append(v)
        if not is_src and not is_term:
            internals.append(v)
    return frozenset(sources), frozenset(terminals), frozenset(internals)


@dataclass(frozen=True)
class DecompositionContext:
    """Binarized, separated decomposition with every per-bag derived set the
    solvers need.  Construction verifies the structural invariants instead
    of assuming them."""

    dag: Dag
    td: TreeDecomposition
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    post_order: tuple[int, ...]
    bag_edges: tuple[frozenset[tuple[int, int]], ...]  # E(G_i)
    S: tuple[frozenset[int], ...]
    T: tuple[frozenset[int], ...]
    I: tuple[frozenset[int], ...]
    # sources and terminals of U_i and D_i among the vertices of B_i
    S_U: tuple[frozenset[int], ...]
    T_U: tuple[frozenset[int], ...]
    S_D: tuple[frozenset[int], ...]
    T_D: tuple[frozenset[int], ...]
    S_prime: tuple[frozenset[int], ...]
    T_prime: tuple[frozenset[int], ...]
    J: tuple[frozenset[int], ...]
    # the merge plan of bag i: subtree roles that stay live into the parent
    # bag, and the subtree sources (at x) and terminals (at 0) frozen there
    kept: tuple[frozenset[int], ...]
    frozen_S: tuple[frozenset[int], ...]
    frozen_T: tuple[frozenset[int], ...]
    subtree_vertices: tuple[int, ...]  # |V(D_i)|
    subtree_edges: tuple[int, ...]  # |E(D_i)|

    @property
    def b(self) -> int:
        return self.td.b

    @property
    def k(self) -> int:
        """Width of the decomposition before separation, which turned width
        k into 3k+2."""
        return (self.td.width - 2) // 3


def _bag_shape(
    ctx: DecompositionContext, i: int, fixed: Mapping[int, int]
) -> tuple[tuple, list[int]]:
    """(shape key, vertices in sorted order) of bag i for ``by_shape``: the
    sorted owned edges with their distributions, the sources, the terminals
    and the ``fixed`` grid indices, each vertex named by its rank among the
    bag's vertices (the edge ends, sources and terminals)."""
    edges = sorted(ctx.bag_edges[i])
    verts = sorted({v for e in edges for v in e} | ctx.S[i] | ctx.T[i])
    rank = {v: r for r, v in enumerate(verts)}
    dist_of = ctx.dag.dist_of
    key = (tuple((rank[u], rank[v], dist_of[(u, v)]) for u, v in edges),
           tuple(sorted(rank[v] for v in ctx.S[i])),
           tuple(sorted(rank[v] for v in ctx.T[i])),
           tuple(sorted((rank[v], g) for v, g in fixed.items())))
    return key, verts


R = TypeVar("R")
Rep = TypeVar("Rep", bound="SolveReport")


def sweep(
    ctx: DecompositionContext,
    solve_bag: Callable[[int, Sequence[R]], R],
    describe: Callable[[int, R], dict],
) -> tuple[R, list[dict]]:
    """Solve every bag from the leaves to the root.

    ``solve_bag(i, kids)`` receives the results of bag i's children in
    ``ctx.children[i]`` order; a child's result is released once its parent
    has it.  Returns the root's result and one record per bag, in post-order:
    ``{"bag": i, **describe(i, result), "elapsed_ms": ...}``.
    """
    results: dict[int, R] = {}
    per_bag: list[dict] = []
    for i in ctx.post_order:
        t0 = time.perf_counter()
        out = results[i] = solve_bag(i, [results.pop(c) for c in ctx.children[i]])
        per_bag.append({"bag": i, **describe(i, out),
                        "elapsed_ms": (time.perf_counter() - t0) * 1000.0})
    return results[ctx.td.root], per_bag


def by_shape(ctx: DecompositionContext, budget: Budget, build: Callable[[int], R],
             rename: Callable[[R, dict[int, int]], R],
             fixed: Callable[[int], Mapping[int, int]] = lambda i: {}) -> Callable[[int], R]:
    """``bag(i)``: bag i's result for ``sweep``, built once per bag shape.

    All three solvers take their bag results from here.  A bag build reads
    only what ``_bag_shape`` keys (with ``fixed(i)`` as the fixed grid
    indices) and follows vertex order only, so bags of one key build the
    same result up to the names of their vertices.  The first bag of a shape
    gets ``build(i)`` and each later bag ``rename(result, names)``, where
    ``names`` maps the first bag's vertices to its own in sorted order: the
    same bits, regions and terms, in the same order.  The ``Budget`` records
    the charges of that first build and makes them again, one at a time, for
    each later bag, so every counter and every budget abort lands where
    building every bag puts it.  A result is held only until the last bag of
    its shape has it.  The shapes are planned on the first call, so a run
    that sweeps no bag (x < 0) plans none.
    """
    plan: dict[int, tuple[int, list[int]]] = {}  # bag -> (shape id, vertices)
    left: Counter = Counter()  # shape id -> bags still to come
    held: dict[int, tuple[list[int], R, list]] = {}  # shape id -> (vertices, result, charges)

    def bag(i: int) -> R:
        if not left:
            ids: dict[tuple, int] = {}  # a key hashes its whole tuple, so hash it once
            for j in ctx.post_order:
                key, verts = _bag_shape(ctx, j, fixed(j))
                plan[j] = ids.setdefault(key, len(ids)), verts
            left.update(sid for sid, _ in plan.values())
        sid, verts = plan.pop(i)
        left[sid] -= 1
        if sid in held:
            first, out, charges = held[sid] if left[sid] else held.pop(sid)
            budget.replay(charges)
            return rename(out, dict(zip(first, verts)))
        if not left[sid]:
            return build(i)
        with budget.recording() as charges:
            out = build(i)
        held[sid] = verts, out, charges
        return out

    return bag


@dataclass(kw_only=True)
class SolveReport:
    """What every solver run reports: its value, the size of the separated
    decomposition it ran on, the ``sweep`` record of each bag (none when the
    answer needed no sweep), the wall time of the whole run and the run's
    ``Budget`` counters (grid cells, peak guard regions, peak symbolic terms,
    term combinations).  Solvers add their own fields in subclasses; a
    report holds no context, table or budget.

    The bag records are kept as columns: ``bag_fields`` names the record
    fields once and ``bag_columns`` holds one ``array.array`` per field, int
    or float, so a report costs 8 bytes per bag and field.  ``per_bag``
    rebuilds the records as ``sweep`` returned them."""

    value: float
    separated_width: int
    separated_n: int
    bag_count: int
    bag_fields: list[str] = field(default_factory=list)
    bag_columns: list[array] = field(default_factory=list)
    elapsed_ms: float
    cells_used: int
    regions_peak: int
    terms_peak: int
    work_used: int

    @property
    def per_bag(self) -> list[dict]:
        return [dict(zip(self.bag_fields, row)) for row in zip(*self.bag_columns)]

    @classmethod
    def of(cls, ctx: DecompositionContext, t0: float, budget: Budget,
           per_bag: Sequence[dict] = (), **fields) -> "SolveReport":
        """Report of a run on ``ctx`` that started at ``time.perf_counter()``
        reading ``t0`` and charged ``budget``, with the ``sweep`` records
        ``per_bag``; ``fields`` are the value and the subclass fields."""
        names = list(per_bag[0]) if per_bag else []
        if any(list(r) != names for r in per_bag):
            raise InvariantViolation("per-bag records do not share one field list")
        return cls(separated_width=ctx.td.width, separated_n=ctx.dag.n, bag_count=ctx.b,
                   bag_fields=names, bag_columns=[_column([r[f] for r in per_bag]) for f in names],
                   elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                   cells_used=budget.cells_used, regions_peak=budget.regions_peak,
                   terms_peak=budget.terms_peak, work_used=budget.work_used, **fields)


def _column(values: list) -> array:
    """One record field as an int64 or float64 array, which gives every value
    back unchanged and of the same type."""
    kinds = {type(v) for v in values}
    if kinds not in ({int}, {float}):
        raise InvariantViolation(f"per-bag field holds {sorted(k.__name__ for k in kinds)}, "
                                 "not ints or floats alone")
    return array("q" if kinds == {int} else "d", values)


def solve(report_cls: type[Rep], ctx: DecompositionContext, t0: float, budget: Budget,
          x, solve_bag: Callable[[int, Sequence[R]], R], describe: Callable[[int, R], dict],
          finish: Callable[[R], dict], **fields) -> tuple[float, Rep]:
    """The part of a solver run that every solver shares, once its inputs
    are checked and ``ctx`` is built: the answer 0 for x < 0, with no sweep
    and no bag records, or else ``sweep`` and ``finish(root result)``, which
    gives the value and the report fields that replace ``fields``.  The
    report times the run from ``time.perf_counter()`` reading ``t0``."""
    if x < 0:
        per_bag, out = (), {"value": 0.0}
    else:
        root, per_bag = sweep(ctx, solve_bag, describe)
        out = finish(root)
    rep = report_cls.of(ctx, t0, budget, per_bag=per_bag, **(fields | out))
    return rep.value, rep


def build_context(g_star: Dag, td_star: TreeDecomposition) -> DecompositionContext:
    """Derive bag-subgraphs by the ancestor-first rule plus all per-bag sets,
    then verify every structural invariant (raises InvariantViolation).

    Notation: G_i is bag i with the edges it owns, D_i the union of G_j over
    the subtree rooted at i, and U_i the union of D_c over the children c of
    i.  Vertex roles in each (sources S, terminals T, internals I) follow
    ``_roles``, which restates ``classify_subgraph_vertices`` in
    ``tests/reference.py``.

    Ownership.  Edge uv belongs to the topmost bag holding both endpoints.
    With top(v) the topmost bag of v's occurrence subtree, that bag is the
    deeper of top(u) and top(v): any bag holding both lies below both tops,
    so the tops are comparable, and the deeper one lies on the tree path
    between the shallower one and a common bag, hence holds both endpoints.

    Bottom-up sets.  A role depends only on the vertex's (out, in) counts of
    subgraph edges against its degrees in ``g_star``.  A vertex v outside B_i
    occurs in one child subtree only (condition 3), and every edge of v is
    owned by a bag holding v, so all of its edges lie in that child's D_c:
    v keeps its D_c role in both D_i and U_i.  Only the vertices of B_i are
    reclassified, in post-order, from their own counts plus the children's
    D_c counts on B_c & B_i.  Likewise |V(D_i)| = |B_i| + sum over children
    of (|V(D_c)| - |B_c & B_i|).  The role sets S_D/T_D/S_U/T_U are
    bag-local: they hold the roles of the vertices of B_i only, since every
    merge at bag i reads variables of B_i only.  As in a nice tree
    decomposition (Kloks, Treewidth, LNCS 842, 1994), a vertex is handled
    only in the bags that hold it, so the cost is O(sum of bag sizes times
    degree).

    Separation.  No edge may join u in B_h - B_i to v in B_j - B_i, for h
    the parent of i and j a strict descendant of i.  Under conditions 2-3
    this reduces to "each edge's owning bag holds both endpoints", which the
    verifier checks per edge: u's bags form a subtree holding h but not i,
    so none lies in the subtree of i; v's bags form a subtree holding j but
    not i, so all lie strictly below i.  No bag then holds both u and v, so
    an edge uv would have no owner.

    Merge plan.  The merge at bag i integrates out J_i, keeps the subtree
    sources and terminals still in the parent bag (``kept``, empty at the
    root) and freezes the other sources at x (``frozen_S``) and terminals
    at 0 (``frozen_T``).  The plan needs no operand's axes: glue becomes
    internal at this merge (the verifier checks that J is that set), so it
    is never in S_D or T_D; and at the root every subtree source is the v-
    of a source of the graph, whose edge v- -> v* the root owns, so S_D
    lies inside S.
    """
    report = validate_td(g_star, td_star)
    if not report.valid:
        raise InputError(f"invalid decomposition: {report.message}")
    parent, children, depth = td_star.rooted()
    if any(len(c) > 2 for c in children):
        raise InputError("decomposition must be binarized first")

    b = td_star.b
    bags = td_star.bags
    top = [min(occ, key=depth.__getitem__) for occ in _occurrences(td_star, g_star.n)]
    bag_edges: list[set[tuple[int, int]]] = [set() for _ in range(b)]
    for u, v, _ in g_star.edges:
        tu, tv = top[u], top[v]
        bag_edges[tu if depth[tu] >= depth[tv] else tv].add((u, v))

    # post-order over the rooted tree (children before parents)
    post: list[int] = []
    stack: list[tuple[int, bool]] = [(td_star.root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            post.append(node)
        else:
            stack.append((node, True))
            for c in reversed(children[node]):
                stack.append((c, False))
    post_order = tuple(post)

    empty: frozenset[int] = frozenset()
    S: list[frozenset[int]] = [empty] * b
    T: list[frozenset[int]] = [empty] * b
    I: list[frozenset[int]] = [empty] * b
    S_U: list[frozenset[int]] = [empty] * b
    T_U: list[frozenset[int]] = [empty] * b
    S_D: list[frozenset[int]] = [empty] * b
    T_D: list[frozenset[int]] = [empty] * b
    S_p: list[frozenset[int]] = [empty] * b
    T_p: list[frozenset[int]] = [empty] * b
    J: list[frozenset[int]] = [empty] * b
    kept: list[frozenset[int]] = [empty] * b
    subtree_vertices: list[int] = [0] * b
    subtree_edges: list[int] = [0] * b
    # internals of D_i and of U_i among the vertices of B_i, for the verifier
    internal_D: list[frozenset[int]] = [empty] * b
    internal_U: list[frozenset[int]] = [empty] * b
    # (out, in) edge counts in D_i of the vertices of B_i
    d_out: list[dict[int, int]] = [{}] * b
    d_in: list[dict[int, int]] = [{}] * b

    for i in post_order:
        bag = bags[i]
        u_out = dict.fromkeys(bag, 0)
        u_in = dict.fromkeys(bag, 0)
        kids = children[i]
        n_vertices, n_edges = len(bag), len(bag_edges[i])
        for c in kids:
            shared = bags[c] & bag
            for v in shared:
                u_out[v] += d_out[c][v]
                u_in[v] += d_in[c][v]
            n_vertices += subtree_vertices[c] - len(shared)
            n_edges += subtree_edges[c]
        own_out = dict.fromkeys(bag, 0)
        own_in = dict.fromkeys(bag, 0)
        for u, v in bag_edges[i]:
            own_out[u] += 1
            own_in[v] += 1
        d_out[i] = {v: u_out[v] + own_out[v] for v in bag}
        d_in[i] = {v: u_in[v] + own_in[v] for v in bag}

        S[i], T[i], I[i] = _roles(g_star, bag, own_out, own_in)
        S_D[i], T_D[i], internal_D[i] = _roles(g_star, bag, d_out[i], d_in[i])
        S_U[i], T_U[i], internal_U[i] = _roles(g_star, bag, u_out, u_in)
        subtree_vertices[i] = n_vertices
        subtree_edges[i] = n_edges

        bag_h = bags[parent[i]] if parent[i] is not None else empty
        S_p[i] = (S[i] & T_U[i]) - bag_h
        T_p[i] = (T[i] & S_U[i]) - bag_h
        J[i] = S_p[i] | T_p[i]
        kept[i] = (S_D[i] | T_D[i]) & bag_h

    ctx = DecompositionContext(
        dag=g_star,
        td=td_star,
        parent=parent,
        children=children,
        post_order=post_order,
        bag_edges=tuple(frozenset(e) for e in bag_edges),
        S=tuple(S),
        T=tuple(T),
        I=tuple(I),
        S_U=tuple(S_U),
        T_U=tuple(T_U),
        S_D=tuple(S_D),
        T_D=tuple(T_D),
        S_prime=tuple(S_p),
        T_prime=tuple(T_p),
        J=tuple(J),
        kept=tuple(kept),
        frozen_S=tuple(s - k for s, k in zip(S_D, kept)),
        frozen_T=tuple(t - k for t, k in zip(T_D, kept)),
        subtree_vertices=tuple(subtree_vertices),
        subtree_edges=tuple(subtree_edges),
    )
    _verify_context(ctx, internal_D, internal_U)
    return ctx


def _verify_context(
    ctx: DecompositionContext,
    internal_D: list[frozenset[int]],
    internal_U: list[frozenset[int]],
) -> None:
    """Check the structural invariants of a context, bag by bag.

    ``internal_D[i]`` and ``internal_U[i]`` are the internals of D_i and U_i
    among the vertices of B_i.  Each check reads only B_i, its parent and
    children bags and their owned edges: a vertex outside B_i has the role
    it had in the one child subtree holding it, where it was checked.
    Separation is checked per edge; ``build_context`` says why that
    suffices.
    """
    g, td = ctx.dag, ctx.td
    bags = td.bags

    # edge partition
    counted = sum(len(e) for e in ctx.bag_edges)
    union = frozenset().union(*ctx.bag_edges)
    if counted != g.m or len(union) != g.m:
        raise InvariantViolation("bag-subgraph edges do not partition E")

    for i in range(td.b):
        bag = bags[i]
        # the root's parent bag counts as empty
        h = ctx.parent[i]
        bag_h = bags[h] if h is not None else frozenset()
        # separation, and ownership by the topmost common bag
        for u, v in ctx.bag_edges[i]:
            if u not in bag or v not in bag:
                raise InvariantViolation(
                    f"separation fails: edge ({u},{v}) owned by bag {i} that misses an endpoint"
                )
            if u in bag_h and v in bag_h:
                raise InvariantViolation(f"edge ({u},{v}) not owned by its topmost common bag")
        if ctx.S[i] & ctx.T[i]:
            raise InvariantViolation(f"bag {i}: S and T intersect (not separated)")
        if ctx.S_D[i] & ctx.T_D[i]:
            raise InvariantViolation(f"bag {i}: subtree S and T intersect")
        # successor condition of the separated decomposition; "outside" is
        # B_i minus V(U_i), and V(U_i) meets B_i in the child bags
        kids = ctx.children[i]
        outside = bag.difference(*(bags[c] for c in kids))
        for u in ctx.T_prime[i]:
            if any(w in outside for w in g.successors[u]):
                raise InvariantViolation(f"bag {i}: T' successor condition fails at {u}")
        # role sharing between the bag and its uncapped subtree: a vertex can
        # be a source (or terminal) of both, but only as a conditioning
        # variable that stays alive into the parent bag and keeps the same
        # role in the subtree-subgraph.  At the root there is none: of a
        # triple in the root bag only v- has in-edges below the root and only
        # v+ out-edges, yet the root owns v-'s one out-edge and none of v+'s
        shared_s = ctx.S[i] & ctx.S_U[i]
        shared_t = ctx.T[i] & ctx.T_U[i]
        if not shared_s <= ctx.S_D[i] or not shared_t <= ctx.T_D[i]:
            raise InvariantViolation(f"bag {i}: shared role changes in the subtree-subgraph")
        if not shared_s <= bag_h or not shared_t <= bag_h:
            raise InvariantViolation(f"bag {i}: shared role variable leaves scope at the merge")
        # glue containment: every opposed shared role is consumed here
        if (ctx.S[i] & ctx.T_U[i]) - ctx.J[i] or (ctx.T[i] & ctx.S_U[i]) - ctx.J[i]:
            raise InvariantViolation(f"bag {i}: glue variable escapes the merge")
        # the glue set must coincide with the vertices that become internal
        # exactly at this merge; such a vertex lies in B_i, because outside
        # B_i a vertex has the same edges in D_i as in U_i
        if ctx.J[i] != internal_D[i] - (ctx.I[i] | internal_U[i]):
            raise InvariantViolation(f"bag {i}: J differs from the new-internal-vertex set")
        # child subtrees may not trade sources for terminals; V(D_l) and
        # V(D_r) meet only in B_l & B_r, where the bag-local role sets hold
        if len(kids) == 2:
            l, r = kids
            if ctx.S_D[l] & ctx.T_D[r] or ctx.T_D[l] & ctx.S_D[r]:
                raise InvariantViolation(f"bag {i}: child subtree roles collide")


def prepare_context(g: Dag, td: TreeDecomposition | None) -> DecompositionContext:
    """Shared solver front end: validate a given decomposition (or
    synthesize one, which ``heuristic_td`` validates itself), binarize,
    separate, and build the merge context."""
    if td is None:
        td = heuristic_td(g)
    else:
        report = validate_td(g, td)
        if not report.valid:
            raise InputError(f"invalid tree decomposition: {report.message} (condition={report.condition})")
    return build_context(*separate(g, binarize_td(td)))
