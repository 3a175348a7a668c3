"""Deterministic instance generators: graph + matching tree decomposition.

Shapes: ``chain``, ``diamond-ladder``, ``random-tw`` (random partial k-tree).
Every emitted pair passes decomposition validation by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decomposition import TreeDecomposition, validate_td
from .errors import InputError, InvariantViolation
from .graph import Dag, DistKind, DistSpec


@dataclass(frozen=True)
class Instance:
    dag: Dag
    td: TreeDecomposition  # over internal 0-based ids


def _dist_maker(dist: str, rng: random.Random):
    if dist == "exp":
        return lambda: DistSpec.exponential()
    if dist == "uniform":
        return lambda: DistSpec.uniform(1)
    if dist == "uniform-mixed":
        return lambda: DistSpec.uniform(rng.randint(1, 3))
    if dist.startswith("oracle:"):
        name = dist.split(":", 1)[1]
        return lambda: DistSpec.oracle(name)
    raise InputError(f"unknown distribution family {dist!r}")


def gen_chain(n: int, dist: str = "uniform", seed: int = 0) -> Instance:
    if n < 2:
        raise InputError("chain needs n >= 2")
    rng = random.Random(seed)
    mk = _dist_maker(dist, rng)
    edges = tuple((i, i + 1, mk()) for i in range(n - 1))
    dag = Dag(n=n, edges=edges)
    bags = tuple(frozenset({i, i + 1}) for i in range(n - 1))
    tree = tuple((i, i + 1) for i in range(n - 2))
    return Instance(dag, TreeDecomposition(bags, tree))


def gen_diamond_ladder(diamonds: int, dist: str = "uniform", seed: int = 0) -> Instance:
    """`diamonds` two-branch rhombi chained junction to junction; treewidth 2."""
    if diamonds < 1:
        raise InputError("need at least one diamond")
    rng = random.Random(seed)
    mk = _dist_maker(dist, rng)
    edges = []
    bags = []
    tree = []
    for d in range(diamonds):
        s = 3 * d
        a, b, t = s + 1, s + 2, s + 3
        edges += [(s, a, mk()), (s, b, mk()), (a, t, mk()), (b, t, mk())]
        top = len(bags)
        bags.append(frozenset({s, a, t}))
        bags.append(frozenset({s, b, t}))
        tree.append((top, top + 1))
        if d > 0:
            tree.append((top - 2, top))  # consecutive diamonds share vertex s
    dag = Dag(n=3 * diamonds + 1, edges=tuple(edges))
    return Instance(dag, TreeDecomposition(tuple(bags), tuple(tree)))


def gen_random_tw(k: int, n: int, seed: int = 0, dist: str = "uniform",
                  max_edges: int | None = None) -> Instance:
    """Random partial k-tree on n vertices, edges oriented low to high.

    The emitted decomposition comes from the k-tree construction, so its
    width is at most k even after edges are dropped.
    """
    if k < 1 or n < k + 1:
        raise InputError("need n >= k+1 and k >= 1")
    if max_edges is not None and max_edges < 0:
        raise InputError(f"max_edges must be >= 0, got {max_edges}")
    rng = random.Random(seed)
    mk = _dist_maker(dist, rng)
    cliques: list[tuple[int, ...]] = [tuple(range(k + 1))]
    pairs = {(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)}
    bags: list[frozenset[int]] = [frozenset(range(k + 1))]
    tree: list[tuple[int, int]] = []
    bag_of_clique = {cliques[0]: 0}
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        drop = rng.randrange(len(base))
        face = tuple(sorted(base[i] for i in range(len(base)) if i != drop))
        for u in face:
            pairs.add((u, v))
        new_clique = tuple(sorted(face + (v,)))
        cliques.append(new_clique)
        parent = bag_of_clique[base]
        bags.append(frozenset(new_clique))
        tree.append((parent, len(bags) - 1))
        bag_of_clique[new_clique] = len(bags) - 1
    ordered = sorted(pairs)
    if max_edges is not None and len(ordered) > max_edges:
        ordered = rng.sample(ordered, max_edges)
        ordered.sort()
    if not ordered:
        ordered = [sorted(pairs)[0]]
    edges = tuple((u, v, mk()) for u, v in ordered)
    dag = Dag(n=n, edges=edges)
    td = TreeDecomposition(tuple(bags), tuple(tree))
    report = validate_td(dag, td)
    if not report.valid:
        raise InvariantViolation(f"generator emitted invalid decomposition: {report.message}")
    return Instance(dag, td)


def generate(shape: str, n: int, seed: int = 0, dist: str = "uniform", k: int = 2,
             max_edges: int | None = None) -> Instance:
    if shape == "chain":
        return gen_chain(n, dist, seed)
    if shape == "diamond-ladder":
        return gen_diamond_ladder(n, dist, seed)
    if shape == "random-tw":
        return gen_random_tw(k, n, seed, dist, max_edges)
    raise InputError(f"unsupported shape {shape!r}")


def graph_text(dag: Dag) -> str:
    lines = [f"{dag.n} {dag.m}"]
    for u, v, d in dag.edges:
        if d.kind is DistKind.ZERO:
            raise InputError("internal zero edges cannot be serialized")
        lines.append(f"{dag.labels[u]} {dag.labels[v]} {d}")
    return "\n".join(lines) + "\n"


def td_text(dag: Dag, td: TreeDecomposition) -> str:
    """Serialize a decomposition over internal ids using the graph's labels."""
    from .decomposition import format_td

    relabeled = td.relabel({i: dag.labels[i] for i in range(dag.n)})
    return format_td(relabeled, dag.n)
