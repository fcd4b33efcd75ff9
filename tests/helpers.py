"""Independent oracles used to pin expected values.

Everything here recomputes results by brute force (exhaustive loops,
powerset materialization, Fraction arithmetic) without reusing the
library's indexed or closed-form code paths. The tests are one user;
``scripts/random_audit.py`` is the other, and checks the library against
these same oracles on random networks, so each oracle is defined here
only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hyperforman import TRIANGLE_TERM, NotRanked, Poset, RankFunction, SimplicialComplex
from hyperforman.curvature import FiltrationStep


def brute_less(elements) -> set[tuple[int, int]]:
    """All strict inclusions among the elements, as index pairs."""
    out = set()
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if i != j and a < b:
                out.add((i, j))
    return out


def brute_covers(elements) -> set[tuple[int, int]]:
    """Transitive reduction of inclusion by triple loop."""
    less = brute_less(elements)
    return {
        (i, j)
        for (i, j) in less
        if not any((i, k) in less and (k, j) in less for k in range(len(elements)))
    }


def pairwise_poset(sets) -> tuple[tuple[frozenset, ...], frozenset]:
    """The elements and covers of the inclusion poset, the covers by the
    triple loop of :func:`brute_covers`; elements are in the library's
    canonical order, to compare with ``(p.elements, p.covers)``."""
    elements = tuple(
        sorted({frozenset(s) for s in sets}, key=lambda s: (len(s), sorted(s)))
    )
    return elements, frozenset(brute_covers(elements))


def codim1_face_poset(
    k: SimplicialComplex,
) -> tuple[tuple[frozenset, ...], frozenset]:
    """The elements and covers of the face poset of a complex, with the
    codimension-1 containments as covers, which are the transitive
    reduction because the complex is downward closed; no subset test is
    made. Elements are in the library's canonical order, to compare with
    ``(p.elements, p.covers)``."""
    faces = [f for dim_faces in k.faces_by_dim for f in dim_faces]
    elements = tuple(
        sorted((frozenset(f) for f in faces), key=lambda s: (len(s), sorted(s)))
    )
    index = {e: i for i, e in enumerate(elements)}
    covers = {
        (index[frozenset(sub)], index[frozenset(f)])
        for f in faces
        if len(f) > 1
        for sub in combinations(f, len(f) - 1)
    }
    return elements, frozenset(covers)


def brute_chains(elements, max_length=None) -> set[tuple[int, ...]]:
    """Every subset of pairwise comparable elements, as index tuples."""
    n = len(elements)
    limit = n if max_length is None else min(n, max_length)
    out: set[tuple[int, ...]] = set()
    for size in range(1, limit + 1):
        for combo in combinations(range(n), size):
            if all(
                elements[a] < elements[b] or elements[b] < elements[a]
                for a, b in combinations(combo, 2)
            ):
                out.add(combo)
    return out


def brute_rank_candidates(elements, covers) -> list[set[int]]:
    """All rank values each element receives along any cover path from a
    minimal element. Order independent by construction."""
    n = len(elements)
    parents = [[] for _ in range(n)]
    for q, p in covers:
        parents[p].append(q)
    cand: list[set[int]] = [set() for _ in range(n)]
    # canonical index order is topological for inclusion posets
    for i in range(n):
        if not parents[i]:
            cand[i] = {0}
        else:
            cand[i] = {c + 1 for q in parents[i] for c in cand[q]}
    return cand


def brute_rank_function(elements, covers) -> RankFunction | NotRanked:
    """The ranks when every element has one candidate; otherwise the
    first element in index order with several, and its least and
    greatest candidate."""
    cand = brute_rank_candidates(elements, covers)
    for i, c in enumerate(cand):
        if len(c) > 1:
            return NotRanked(i, elements[i], (min(c), max(c)))
    ranks = tuple(min(c) for c in cand)
    return RankFunction(ranks, max(ranks, default=0))


def brute_triangles_above(k: SimplicialComplex, e) -> int:
    e = set(e)
    return sum(1 for t in k.faces(2) if e <= set(t))


def brute_parallel(k: SimplicialComplex, e) -> set[tuple[int, int]]:
    """Edges sharing a vertex XOR sharing a triangle with e. A triangle
    holding both holds e, so only the triangles on e are scanned."""
    e = tuple(sorted(e))
    on_e = [set(t) for t in k.faces(2) if set(e) <= set(t)]
    out = set()
    for other in k.faces(1):
        if other == e:
            continue
        share_vertex = bool(set(e) & set(other))
        share_triangle = any(set(e) | set(other) <= t for t in on_e)
        if share_vertex != share_triangle:
            out.add(other)
    return out


def brute_ricci(k: SimplicialComplex, e) -> int:
    return brute_triangles_above(k, e) - len(brute_parallel(k, e)) + 2


def brute_filtration(k: SimplicialComplex, ricci) -> list[FiltrationStep]:
    """Curvature sublevel filtration rebuilt threshold by threshold: at each
    distinct edge curvature, rescan every triangle for all-kept edges."""
    n = k.n_vertices
    edges = k.faces(1)
    if not edges:
        return [] if n == 0 else [FiltrationStep(0, (n, 0, 0), n)]
    steps = []
    for threshold in sorted({ricci[e] for e in edges}):
        kept = {e for e in edges if ricci[e] <= threshold}
        tris = [t for t in k.faces(2) if all(p in kept for p in combinations(t, 2))]
        f = (n, len(kept), len(tris))
        steps.append(FiltrationStep(threshold, f, n - len(kept) + len(tris)))
    return steps


def brute_balance_residual(k: SimplicialComplex) -> Fraction:
    """Vertex/edge/triangle balance against chi, in Fraction arithmetic."""
    total = Fraction(0)
    for v in range(k.n_vertices):
        d = sum(1 for e in k.faces(1) if v in e)
        total += 1 + Fraction(3, 2) * d - d * d
    for e in k.faces(1):
        total -= brute_ricci(k, e)
    for _t in k.faces(2):
        total += 1 + 6 * 3 - 3 * 3
    chi = sum((-1) ** d * len(k.faces(d)) for d in range(k.dim + 1))
    return total - chi


def geometric_generators(h) -> set[frozenset]:
    """Node sets spanning the simplex view: hypervertices, hyperedge
    endpoint unions and node singletons."""
    by_id = {hv.id: hv.nodes for hv in h.hypervertices}
    gens = {hv.nodes for hv in h.hypervertices}
    gens.update(by_id[e.tail] | by_id[e.head] for e in h.hyperedges)
    gens.update(frozenset({n}) for n in h.nodes)
    return gens


def brute_geometric_facets(h) -> set[frozenset]:
    """Generators that no generator strictly contains."""
    gens = geometric_generators(h)
    return {g for g in gens if not any(g < other for other in gens)}


def frozenset_geometric_walk(h) -> tuple[int, int]:
    """Geometric chi by the signed intersection walk on node frozensets,
    and the (facet, live intersection) pairs it visits. Facets come by
    size, then by the sum of 2^i over their members' places i in the
    sorted node list."""
    place = {n: i for i, n in enumerate(sorted(h.nodes))}

    def order(s):
        return len(s), sum(1 << place[n] for n in s)

    signed: dict[frozenset, int] = {}
    visited = 0
    for g in sorted(brute_geometric_facets(h), key=order):
        visited += len(signed)
        delta = {g: 1}
        for x, count in signed.items():
            meet = x & g
            if meet:
                delta[meet] = delta.get(meet, 0) - count
        for x, count in delta.items():
            count += signed.get(x, 0)
            if count:
                signed[x] = count
            else:
                signed.pop(x, None)
    return sum(signed.values()), visited


def brute_geometric_faces(h) -> set[frozenset]:
    """Materialized face set of the full simplex view of a hypernetwork."""
    faces: set[frozenset] = set()
    for g in geometric_generators(h):
        members = sorted(g)
        for size in range(1, len(members) + 1):
            faces.update(frozenset(c) for c in combinations(members, size))
    return faces


def geometric_complex(h) -> SimplicialComplex:
    """Simplex view, truncated to dimension 2.

    Each hypervertex spans a full simplex on its nodes and each
    hyperedge a full simplex on the union of its endpoints; the result
    is the 2-skeleton of the union. All nodes appear as vertices.
    """
    labels = sorted(h.nodes)
    idx = {n: i for i, n in enumerate(labels)}
    faces: set[tuple[int, ...]] = set()
    for gen in h.generator_sets():
        members = sorted(idx[n] for n in gen)
        for size in range(1, min(3, len(members)) + 1):
            faces.update(combinations(members, size))
    return SimplicialComplex.from_faces(labels, faces)


def brute_geometric_chi(h) -> int:
    return sum((-1) ** (len(f) - 1) for f in brute_geometric_faces(h))


def brute_neighbour_bits(n: int, arcs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The heads and the tails of the arcs at each of the n vertices, as
    int bitsets, set one arc at a time."""
    out, into = [0] * n, [0] * n
    for tail, head in arcs:
        out[tail] |= 1 << head
        into[head] |= 1 << tail
    return tuple(out), tuple(into)


def brute_orientation(arcs, t) -> str:
    """The orientation of the triangle t from the out-degrees the arcs
    between its vertices give them, each distinct arc once: a cyclic
    triangle gives each vertex one outgoing edge, a transitive one gives
    them 2, 1 and 0."""
    outdeg = {v: 0 for v in t}
    for tail, head in set(arcs):
        if tail in outdeg and head in outdeg:
            outdeg[tail] += 1
    return "cyclic" if sorted(outdeg.values()) == [1, 1, 1] else "transitive"


def brute_directed_triangles(n: int, arcs, mode: str) -> list[tuple[int, ...]]:
    """The 3-cliques of the arcs over n vertices whose orientation is
    ``mode``."""
    return [t for t in brute_cliques(n, arcs) if brute_orientation(arcs, t) == mode]


def brute_directed_formula(
    n: int, arcs, degree_mode: str, triangle_mode: str
) -> Fraction:
    """Direct Fraction evaluation of the directed combination over n
    vertices, edge by edge, with the one-sided degrees counted from the
    distinct arcs and the chosen triangles from :func:`brute_orientation`."""
    end = 1 if degree_mode == "in" else 0
    arcs = set(arcs)
    chosen = [set(t) for t in brute_directed_triangles(n, arcs, triangle_mode)]
    total = Fraction(0)
    for v in range(n):
        d = sum(1 for arc in arcs if arc[end] == v)
        total += 1 + Fraction(3, 2) * d - d * d
    for e in arcs:
        above = sum(1 for t in chosen if set(e) <= t)
        degrees = sum(1 for arc in arcs for v in e if arc[end] == v)
        total -= 4 + 3 * above - degrees
    total += 28 * len(chosen)
    return total


def brute_cliques(n: int, edges) -> list[tuple[int, int, int]]:
    """Every triple of the n vertices whose three pairs are all edges."""
    pairs = {tuple(sorted(e)) for e in edges}
    return [
        t for t in combinations(range(n), 3) if all(p in pairs for p in combinations(t, 2))
    ]


def flag_two_complex(n: int, edges) -> SimplicialComplex:
    """2-skeleton of the clique complex of a graph on n vertices."""
    labels = [f"g{i}" for i in range(n)]
    edge_set = {tuple(sorted(e)) for e in edges}
    neighbours = {i: set() for i in range(n)}
    for u, v in edge_set:
        neighbours[u].add(v)
        neighbours[v].add(u)
    faces = set(edge_set)
    for u, v in sorted(edge_set):
        for w in sorted(neighbours[u] & neighbours[v]):
            if w > v:
                faces.add((u, v, w))
    return SimplicialComplex.from_faces(labels, faces)


def disjoint_union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    labels = tuple(f"L.{x}" for x in a.labels) + tuple(f"R.{x}" for x in b.labels)
    shift = a.n_vertices
    faces = []
    for d in range(a.dim + 1):
        faces.extend(a.faces(d))
    for d in range(b.dim + 1):
        faces.extend(tuple(v + shift for v in f) for f in b.faces(d))
    return SimplicialComplex.from_faces(labels, faces)


def clique_expansion(h) -> SimplicialComplex:
    """Graph view: every hypervertex becomes a clique on its nodes, and
    every hyperedge adds all pairs between the two sides' private nodes."""
    labels = sorted(h.nodes)
    idx = {n: i for i, n in enumerate(labels)}
    by_id = {hv.id: hv.nodes for hv in h.hypervertices}
    edges: set[tuple[int, int]] = set()
    for hv in h.hypervertices:
        edges.update(combinations(sorted(idx[n] for n in hv.nodes), 2))
    for e in h.hyperedges:
        vi, vj = by_id[e.tail], by_id[e.head]
        for u in vi - vj:
            for w in vj - vi:
                a, b = sorted((idx[u], idx[w]))
                edges.add((a, b))
    return SimplicialComplex.from_faces(labels, edges)


def plain_label(s) -> str:
    """A set's label as the reports print it: its sorted members, joined
    by commas, in braces."""
    return "{" + ",".join(sorted(s)) + "}"


def plain_poset_section(p: Poset) -> dict:
    """The report's poset section as plain lists: each element's sorted
    node names, and the cover pairs, found by the triple loop of
    :func:`brute_covers`, in index order."""
    return {
        "elements": [sorted(e) for e in p.elements],
        "covers": [list(c) for c in sorted(brute_covers(p.elements))],
    }


def plain_curvature_section(p: Poset, f, degrees, edges) -> dict:
    """The edge, vertex and triangle arrays of the curvature section of
    ``p`` at the skeleton its counted f-vector ``f`` was counted at, as
    plain dicts, one per row, with every label built and joined per row:
    one per edge row of ``edges`` and per vertex degree of ``degrees``.
    The triangles are the chains x < y < z found by :func:`brute_chains`,
    in index order, when ``f`` reaches dimension 2; each vertex term is
    1 + 3d/2 - d^2 of its degree d."""
    labels = [plain_label(e) for e in p.elements]
    triangles = []
    if len(f) > 2:
        triangles = sorted(c for c in brute_chains(p.elements, 3) if len(c) == 3)
    terms = [Fraction(2 + 3 * d - 2 * d * d, 2) for d in degrees]
    return {
        "edges": [
            {
                "edge": labels[x] + "|" + labels[y],
                "match": r == c,
                "parallel": par,
                "ric": r,
                "ric_closed": c,
                "triangles": t,
            }
            for x, y, t, par, r, c in edges
        ],
        "vertices": [
            {
                "term": term.numerator if term.denominator == 1 else str(term),
                "vertex": label,
            }
            for label, term in zip(labels, terms)
        ],
        "triangles": [
            {"term": TRIANGLE_TERM, "triangle": "|".join(labels[i] for i in t)}
            for t in triangles
        ],
    }
