"""From-scratch reference for the decomposition context.

Every per-bag set is recomputed from whole-subtree unions with
``classify_subgraph_vertices``, edges are assigned by scanning every bag, and
the invariant battery runs over those unions.  Quadratic in the bag count;
the tests compare the bottom-up ``build_context`` against it on small inputs.
"""

from __future__ import annotations

from stochlp import InvariantViolation
from stochlp.decomposition import TreeDecomposition
from stochlp.graph import Dag
from reference import SubgraphRef, classify_subgraph_vertices, edge_pairs

# the fields the solvers read, compared field by field
SOLVER_FIELDS = (
    "parent", "children", "post_order", "bag_edges", "S", "T", "I",
    "S_U", "T_U", "S_D", "T_D", "S_prime", "T_prime", "J",
    "kept", "frozen_S", "frozen_T", "subtree_vertices", "subtree_edges",
)
# the role sets the context keeps of the vertices of each bag only
ROLE_FIELDS = ("S_U", "T_U", "S_D", "T_D")


def _classify(g: Dag, vertices, edges):
    return classify_subgraph_vertices(g, SubgraphRef(frozenset(vertices), frozenset(edges)))


def _subtree_indices(children, i: int) -> frozenset[int]:
    out = {i}
    stack = [i]
    while stack:
        for c in children[stack.pop()]:
            out.add(c)
            stack.append(c)
    return frozenset(out)


def reference_context(g: Dag, td: TreeDecomposition) -> dict[str, tuple]:
    """Every context field, plus V_U (vertices of U_i) and I_D (internals of
    D_i), computed from scratch."""
    parent, children, depth = td.rooted()
    b = td.b
    bag_edges: list[set[tuple[int, int]]] = [set() for _ in range(b)]
    for u, v, _ in g.edges:
        occ = [i for i in range(b) if u in td.bags[i] and v in td.bags[i]]
        if not occ:
            raise InvariantViolation(f"edge ({u},{v}) covered by no bag")
        best = min(occ, key=lambda i: depth[i])
        if sum(1 for i in occ if depth[i] == depth[best]) != 1:
            raise InvariantViolation(f"edge ({u},{v}) has no unique topmost bag")
        bag_edges[best].add((u, v))

    post: list[int] = []
    stack: list[tuple[int, bool]] = [(td.root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            post.append(node)
        else:
            stack.append((node, True))
            for c in reversed(children[node]):
                stack.append((c, False))

    empty: frozenset[int] = frozenset()
    out: dict[str, list] = {
        name: [empty] * b
        for name in ("S", "T", "I", "S_U", "T_U", "V_U", "S_D", "T_D", "I_D",
                     "S_prime", "T_prime", "J", "kept", "frozen_S", "frozen_T")
    }
    out["subtree_vertices"] = [0] * b
    out["subtree_edges"] = [0] * b
    for i in range(b):
        out["S"][i], out["T"][i], out["I"][i] = _classify(g, td.bags[i], bag_edges[i])
    for i in range(b):
        sub = _subtree_indices(children, i)
        d_vertices = frozenset().union(*(td.bags[j] for j in sub))
        d_edges = frozenset().union(*(bag_edges[j] for j in sub))
        out["S_D"][i], out["T_D"][i], out["I_D"][i] = _classify(g, d_vertices, d_edges)
        out["subtree_vertices"][i] = len(d_vertices)
        out["subtree_edges"][i] = len(d_edges)
        u_bags = sub - {i}
        if u_bags:
            out["V_U"][i] = frozenset().union(*(td.bags[j] for j in u_bags))
            u_edges = frozenset().union(*(bag_edges[j] for j in u_bags))
            out["S_U"][i], out["T_U"][i], _ = _classify(g, out["V_U"][i], u_edges)
        bag_h = td.bags[parent[i]] if parent[i] is not None else empty
        out["S_prime"][i] = (out["S"][i] & out["T_U"][i]) - bag_h
        out["T_prime"][i] = (out["T"][i] & out["S_U"][i]) - bag_h
        out["J"][i] = out["S_prime"][i] | out["T_prime"][i]
        # the merge plan: subtree roles still in the parent bag stay live,
        # those of the bag's vertices that leave scope here are frozen
        out["kept"][i] = (out["S_D"][i] | out["T_D"][i]) & bag_h
        out["frozen_S"][i] = (out["S_D"][i] & td.bags[i]) - bag_h
        out["frozen_T"][i] = (out["T_D"][i] & td.bags[i]) - bag_h

    ref = {name: tuple(vals) for name, vals in out.items()}
    ref.update(
        parent=parent, children=children, depth=depth, post_order=tuple(post),
        bag_edges=tuple(frozenset(e) for e in bag_edges),
    )
    return ref


def _union_I_children(g: Dag, ref: dict, i: int) -> frozenset[int]:
    """Internals of U_i, classified over the union of the child subtrees."""
    if not ref["children"][i]:
        return frozenset()
    sub_edges = frozenset().union(
        *(ref["bag_edges"][j] for j in _subtree_indices(ref["children"], i) if j != i)
    )
    if not sub_edges and not ref["V_U"][i]:
        return frozenset()
    _, _, internal = _classify(g, ref["V_U"][i], sub_edges)
    return internal


def reference_verify(g: Dag, td: TreeDecomposition, ref: dict) -> None:
    """The invariant battery over whole-subtree unions; raises
    InvariantViolation on the first failure."""
    b = td.b
    counted = sum(len(e) for e in ref["bag_edges"])
    union = frozenset().union(*ref["bag_edges"])
    if counted != g.m or len(union) != g.m:
        raise InvariantViolation("bag-subgraph edges do not partition E")

    S, T, I, J = ref["S"], ref["T"], ref["I"], ref["J"]
    S_U, T_U, S_D, T_D = ref["S_U"], ref["T_U"], ref["S_D"], ref["T_D"]
    for i in range(b):
        if S[i] & T[i]:
            raise InvariantViolation(f"bag {i}: S and T intersect (not separated)")
        if S_D[i] & T_D[i]:
            raise InvariantViolation(f"bag {i}: subtree S and T intersect")
        outside = td.bags[i] - ref["V_U"][i]
        for u in ref["T_prime"][i]:
            if any(w in outside for w in g.successors[u]):
                raise InvariantViolation(f"bag {i}: T' successor condition fails at {u}")
        shared_s = S[i] & S_U[i]
        shared_t = T[i] & T_U[i]
        h = ref["parent"][i]
        bag_h = td.bags[h] if h is not None else None
        if not shared_s <= S_D[i] or not shared_t <= T_D[i]:
            raise InvariantViolation(f"bag {i}: shared role changes in the subtree-subgraph")
        if bag_h is not None and (not shared_s <= bag_h or not shared_t <= bag_h):
            raise InvariantViolation(f"bag {i}: shared role variable leaves scope at the merge")
        if (S[i] & T_U[i]) - J[i] or (T[i] & S_U[i]) - J[i]:
            raise InvariantViolation(f"bag {i}: glue variable escapes the merge")
        if J[i] != ref["I_D"][i] - (I[i] | _union_I_children(g, ref, i)):
            raise InvariantViolation(f"bag {i}: J differs from the new-internal-vertex set")
        kids = ref["children"][i]
        if len(kids) == 2:
            l, r = kids
            if S_D[l] & T_D[r] or T_D[l] & S_D[r]:
                raise InvariantViolation(f"bag {i}: child subtree roles collide")

    # separation: no edge may connect the parent-bag remainder B_h \ B_i to a
    # strict-descendant remainder B_j \ B_i
    pairs = edge_pairs(g)
    for i in range(b):
        h = ref["parent"][i]
        if h is None:
            continue
        upper = td.bags[h] - td.bags[i]
        if not upper:
            continue
        for j in _subtree_indices(ref["children"], i) - {i}:
            lower = td.bags[j] - td.bags[i]
            for u in upper:
                for v in lower:
                    if (u, v) in pairs or (v, u) in pairs:
                        raise InvariantViolation(
                            f"separation fails: edge between {u} (above bag {i}) and {v} (below)"
                        )


def reference_internals(ref: dict, td: TreeDecomposition, g: Dag):
    """Internals of D_i and of U_i restricted to B_i, as the bag-local
    verifier takes them."""
    internal_D = [ref["I_D"][i] & td.bags[i] for i in range(td.b)]
    internal_U = [_union_I_children(g, ref, i) & td.bags[i] for i in range(td.b)]
    return internal_D, internal_U
