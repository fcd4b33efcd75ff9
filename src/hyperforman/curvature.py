"""Combinatorial Ricci curvature on 2-complexes and its exact
vertex/edge/triangle accounting against the Euler characteristic.

The edge curvature of e is

    ric(e) = #{triangles above e} - #{edges parallel to e} + 2

where an edge is parallel to e when it shares a vertex with e or lies
in a common triangle with it, but not both. Two distinct edges of one
triangle always share a vertex, so the parallels are the edges meeting
e in exactly one vertex that lie in no triangle on e, and the same
number has the closed form

    ric(e) = 3 * #{triangles above e} + 4 - deg(u) - deg(v)

for e = (u, v). Each vertex carries 1 + (3/2) deg(v) - deg(v)^2 and each
triangle the constant 10 = 1 + 6*3 - 3^2 (a triangle has three edges
below it). These are tuned so that

    sum(vertex terms) - sum(ric) + sum(triangle terms) = chi

holds exactly, which is what :func:`gauss_bonnet` verifies on a complex
and :func:`poset_gauss_bonnet` on the order complex of a poset, from its
counts alone. :func:`poset_curvature_table` and
:func:`poset_curvature_filtration` give the per-edge table, the balance
and the filtration of that order complex from comparability bitsets,
with no triangle listed.

The directed variants work on the clique complex of an arc set, read
from its neighbour bitsets by counting: its transitive or its cyclic
triangles play the role of the chosen triangle set.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, mul, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Mapping, Sequence

from .complexes import Simplex, SimplicialComplex
from .poset import ChainCapExceeded

if TYPE_CHECKING:
    from .poset import Poset

TRIANGLE_TERM = 10  # 1 + 6*3 - 3^2; forced by exactness on a single triangle


def two_skeleton(k: SimplicialComplex) -> SimplicialComplex:
    """The complex curvature operates on: k itself, or its 2-skeleton
    with a warning when higher faces are present."""
    if k.dim > 2:
        warnings.warn(
            f"complex has dimension {k.dim}; curvature ignores faces above "
            "dimension 2 and operates on the 2-skeleton",
            stacklevel=3,
        )
        return k.skeleton(2)
    return k


def forman_ricci(k: SimplicialComplex, e: Iterable[int]) -> int:
    """Edge curvature by its definition: triangles minus parallels plus 2.

    Looks e up in the edge -> triangles index and counts its parallels
    as :func:`gauss_bonnet` does for every edge in one pass, so each
    edge costs O(#triangles on e + 1) and faces above dimension 2 are
    ignored without building the 2-skeleton.
    """
    e, triangles = k._edge_entry(e)
    return _ricci(e, triangles, k._degrees)


def _ricci(e: Simplex, triangles: tuple[Simplex, ...], degrees: Sequence[int]) -> int:
    """ric(e) by its definition, for the edge e = (u, v), the triangles
    on it and the degree table.

    The edges meeting e in one vertex number (deg u - 1) + (deg v - 1);
    the parallels are those left after taking out the other edges of
    the triangles on e. Each distinct third vertex w of those triangles
    gives two of them, (u, w) and (v, w), and the triangles' vertices
    are u, v and the third vertices.
    """
    u, v = e
    thirds = len(set(chain.from_iterable(triangles))) - 2 if triangles else 0
    parallels = degrees[u] - 1 + degrees[v] - 1 - 2 * thirds
    return len(triangles) - parallels + 2


def forman_ricci_closed(k: SimplicialComplex, e: Iterable[int]) -> int:
    """Edge curvature in closed form: 3T + 4 - deg(u) - deg(v).

    Must agree with :func:`forman_ricci` on every edge of every valid
    complex; the test suite enforces this. Like it, it reads only edges
    and triangles.
    """
    (u, v), triangles = k._edge_entry(e)
    degrees = k._degrees
    return _edge_term(len(triangles), degrees[u], degrees[v])


def vertex_curvature(k: SimplicialComplex, v: int) -> Fraction:
    """Vertex term 1 + (3/2) deg(v) - deg(v)^2, exactly."""
    return Fraction(_twice_vertex_term(k.degree(v)), 2)


def _edge_term(triangles: int, deg_u: int, deg_v: int) -> int:
    return 3 * triangles + 4 - deg_u - deg_v


def _twice_vertex_term(degree: int) -> int:
    return 2 + 3 * degree - 2 * degree * degree


@dataclass(frozen=True)
class CurvatureBalance:
    """The summed vertex, edge and triangle terms and their exact balance
    against chi; every triangle carries :data:`TRIANGLE_TERM`.

    ``residual = vertex_sum - ricci_sum + triangle_sum - chi`` and is
    exactly zero for every valid 2-complex.
    """

    vertex_sum: Fraction
    ricci_sum: int
    triangle_sum: int
    chi: int
    residual: Fraction


@dataclass(frozen=True)
class CurvatureReport(CurvatureBalance):
    """The balance together with the curvature of each edge; the vertex
    terms are :func:`vertex_curvature` of each vertex."""

    ricci: dict[Simplex, int]


def gauss_bonnet(k: SimplicialComplex) -> CurvatureReport:
    """Full curvature accounting of a 2-complex.

    Computes every edge term by its definition in one walk of the
    edge -> triangles index, sums the vertex and triangle terms, and
    takes the residual of their alternating sum against the Euler
    characteristic. A nonzero residual would falsify the discrete
    curvature identity; callers treat it as a hard failure, never a
    warning.
    """
    k = two_skeleton(k)
    degrees = k._degrees
    ricci = {e: _ricci(e, ts, degrees) for e, ts in k._edge_triangles.items()}
    return _balanced(
        CurvatureReport, degrees, sum(ricci.values()), k.f_vector(), ricci=ricci
    )


def _balanced(cls, degrees, ricci_sum: int, f: Sequence[int], /, **fields):
    """``cls`` holding the balance of the vertex terms of ``degrees``, the
    edge sum ``ricci_sum`` and the triangle terms and chi of the face
    counts f0..f2, with the given ``fields`` besides."""
    f0, f1, f2 = (*f[:3], 0, 0, 0)[:3]
    # one Fraction: the terms are halves, so sum their doubles
    vertex_sum = Fraction(sum(map(_twice_vertex_term, degrees)), 2)
    triangle_sum = TRIANGLE_TERM * f2
    chi = f0 - f1 + f2
    return cls(
        vertex_sum=vertex_sum,
        ricci_sum=ricci_sum,
        triangle_sum=triangle_sum,
        chi=chi,
        residual=vertex_sum - ricci_sum + triangle_sum - chi,
        **fields,
    )


def _down_up(above: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """|below x| and |above x| for each element x, read from the up sets."""
    up = list(map(len, above))
    down = [0] * len(up)
    for y in chain.from_iterable(above):
        down[y] += 1
    return down, up


def poset_gauss_bonnet(p: "Poset", f: Sequence[int]) -> CurvatureBalance:
    """The balance :func:`gauss_bonnet` gives on the order complex of p,
    read from counts without listing a chain.

    ``f`` is the f-vector of the order complex at the chosen skeleton,
    as :meth:`Poset.chain_counts` counts it; like :func:`gauss_bonnet`,
    this reads the 2-skeleton, so only f0, f1 and f2 are used. They give
    the triangle sum and chi, and say whether the complex has edges and
    triangles at all. The edges are the comparable
    pairs x < y, so deg x = |below x| + |above x|. The triangles on
    x < y are the 3-chains through it, T(x, y) = |below x| + |(x, y)| +
    |above y| of them. Summed over the edges, T counts each 3-chain once
    per edge of it, and the 3-chains with middle z number
    |below z| * |above z|, so sum T = 3 * sum_z |below z| * |above z|.
    Each vertex lies on deg of the edges, so

        sum ric = 3 * sum T + 4 * f1 - sum deg^2.

    The degrees and sum T come from the up and down sizes and f from a
    separate count, so the residual, which works out to
    1.5 * (sum deg - 2 f1) - 3 * (sum T - 3 f2), is zero only when the
    two agree. Time is O(|P| + comparable pairs); the extra memory is
    two int lists of length |P|.
    """
    down, up = _down_up(p._above)
    degrees = list(map(add, down, up)) if len(f) > 1 else [0] * len(up)
    triangles_on_edges = 3 * sum(map(mul, down, up)) if len(f) > 2 else 0
    f1 = f[1] if len(f) > 1 else 0
    ricci_sum = 3 * triangles_on_edges + 4 * f1 - sum(d * d for d in degrees)
    return _balanced(CurvatureBalance, degrees, ricci_sum, f)


# (x, y, triangles, parallels, ric, closed form) for the edge x < y
EdgeRow = tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class CurvatureTable(CurvatureBalance):
    """The balance of the order complex of a poset at a skeleton of
    dimension ``dim`` (2 at most), with the per-edge table it is summed
    from.

    ``degrees[x]`` is the degree of element x in that complex and
    ``edges`` holds one :data:`EdgeRow` per comparable pair x < y, in the
    order :func:`~hyperforman.complexes.order_complex` lists the edges.
    ``ric`` is the definitional value and ``closed`` the closed form,
    each computed on its own.
    """

    degrees: list[int]
    edges: list[EdgeRow]
    dim: int


def _comparability_masks(above: Sequence[Sequence[int]]) -> list[int]:
    """N[x] = (below x) | (above x) as an int bitset, one per element:
    the neighbours of x in the comparability graph."""
    masks = [0] * len(above)
    for x, ups in enumerate(above):
        bit, up = 1 << x, 0
        for y in ups:
            up |= 1 << y
            masks[y] |= bit
        masks[x] |= up
    return masks


def poset_degrees(p: "Poset", f: Sequence[int]) -> list[int]:
    """The degree of each element in the order complex of p at the
    skeleton ``f`` was counted at: deg x = |below x| + |above x|, read
    from the poset's up and down sizes, or 0 without edges (fewer than 2
    entries in ``f``)."""
    if len(f) < 2:
        return [0] * len(p._above)
    return list(map(add, *_down_up(p._above)))


def poset_edge_rows(
    p: "Poset", f: Sequence[int], degrees: Sequence[int]
) -> Iterator[list[EdgeRow]]:
    """The :data:`EdgeRow` of each edge of the order complex of p at the
    skeleton ``f`` was counted at, from comparability bitsets, with no
    chain listed: one list per element x below another, of its edges
    x < y in ascending y, built as it is read, so a caller that reads each row
    once holds one element's rows and the bitsets.

    ``f`` is the counted f-vector, as for :func:`poset_gauss_bonnet`; its
    length says which faces the complex has (no edges below 2 entries,
    no triangles below 3), and ``degrees`` are :func:`poset_degrees`.
    The order complex is the clique complex of the comparability graph,
    since three pairwise comparable elements form a chain. So with N[x]
    the neighbours of x, the triangles on an edge x < y are its common
    neighbours, T = |N[x] & N[y]|. The parallels of x < y are the edges
    meeting it in one vertex that lie in no triangle on it: the
    neighbours of exactly one end, |N[x] ^ N[y]| - 2 (x and y are in
    it), plus, without triangles, two edges per common neighbour. The
    first is |N[x]| + |N[y]| - 2T - 2, so each edge takes one ``&`` of
    two bitsets, and none without triangles. Then ric = T - parallels + 2
    by its definition, and the closed form 3T + 4 - deg x - deg y is
    evaluated from T and ``degrees``, not from the bitsets. The CLI's
    ``match`` column compares the two, so it fails wherever N[x] or N[y]
    disagrees with the store. Time is O(f1 * |P| / 64) word operations.
    """
    if len(f) < 2:
        return
    above = p._above
    masks = _comparability_masks(above)
    sizes = list(map(int.bit_count, masks))
    triangles = len(f) > 2
    for x, ups in enumerate(above):
        if not ups:
            continue
        mx, nx, dx = masks[x], sizes[x] - 2, degrees[x]
        if triangles:
            yield [
                (
                    x,
                    y,
                    t := (mx & masks[y]).bit_count(),
                    q := nx + sizes[y] - 2 * t,
                    t - q + 2,
                    3 * t + 4 - dx - degrees[y],
                )
                for y in ups
            ]
        else:
            yield [
                (x, y, 0, q := nx + sizes[y], 2 - q, 4 - dx - degrees[y])
                for y in ups
            ]


def poset_curvature_table(p: "Poset", f: Sequence[int]) -> CurvatureTable:
    """The per-edge curvature table and the balance of :func:`gauss_bonnet`
    on the order complex of p, from :func:`poset_edge_rows`, for callers
    that read the rows more than once.

    The sums come from the table and chi and the triangle sum from f,
    so the residual is zero only when the bitsets agree with the chain
    counts. Memory is one row per edge and one |P|-bit int per element.
    """
    degrees = poset_degrees(p, f)
    rows = list(chain.from_iterable(poset_edge_rows(p, f, degrees)))
    return _balanced(
        CurvatureTable,
        degrees,
        sum([row[4] for row in rows]),
        f,
        degrees=degrees,
        edges=rows,
        dim=min(len(f), 3) - 1,
    )


@dataclass(frozen=True)
class FiltrationStep:
    threshold: int
    f_vector: tuple[int, ...]
    chi: int


def curvature_filtration(
    k: SimplicialComplex, ricci: Mapping[Simplex, int]
) -> list[FiltrationStep]:
    """Sublevel filtration of the edge curvature ``ricci`` (one value per
    edge of k, as in :attr:`CurvatureReport.ricci`).

    Thresholds are the sorted distinct edge curvature values. The
    subcomplex at threshold t keeps every vertex, the edges with
    curvature <= t, and the triangles all of whose edges are kept, so
    successive steps are nested and the last one is the whole complex.
    Each edge enters at its own curvature and each triangle at the
    largest curvature of its three edges, so one pass and cumulative
    counts give every step. Steps always carry a fixed-width (f0, f1, f2)
    vector. An edgeless nonempty complex yields the single step at
    threshold 0. Only vertices, edges and triangles are read, so faces
    above dimension 2 are ignored without building the 2-skeleton.
    """
    n = k.n_vertices
    if not k.edges:
        if n == 0:
            return []
        return [FiltrationStep(0, (n, 0, 0), n)]
    edges_at = Counter(ricci[e] for e in k.edges)
    triangles_at = Counter(
        max(ricci[(u, v)], ricci[(u, w)], ricci[(v, w)]) for u, v, w in k.triangles
    )
    steps = []
    f1 = f2 = 0
    for threshold in sorted(edges_at):
        f1 += edges_at[threshold]
        f2 += triangles_at[threshold]
        steps.append(FiltrationStep(threshold, (n, f1, f2), n - f1 + f2))
    return steps


def poset_curvature_filtration(table: CurvatureTable) -> list[FiltrationStep]:
    """:func:`curvature_filtration` of the complex ``table`` was read
    from, with no triangle listed.

    The edges enter in ascending order of ric, and ``present[x]`` holds
    the vertices joined to x by an edge already in. In a clique complex,
    the edge x, y closes one triangle per vertex joined to both, so it
    adds |present[x] & present[y]| triangles at its own threshold: each
    triangle is counted when its last edge enters, at the largest
    curvature of its three edges. A step is taken each time ric moves
    on, and one after the last edge.
    """
    n = len(table.degrees)
    if not table.edges:
        return [] if n == 0 else [FiltrationStep(0, (n, 0, 0), n)]
    triangles = table.dim > 1
    present: list[set[int]] = [set() for _ in range(n)]
    edges = sorted(table.edges, key=itemgetter(4))
    steps = []
    threshold, f1, f2 = edges[0][4], 0, 0
    for x, y, _, _, ric, _ in edges:
        if ric != threshold:
            steps.append(FiltrationStep(threshold, (n, f1, f2), n - f1 + f2))
            threshold = ric
        f1 += 1
        if triangles:
            px, py = present[x], present[y]
            f2 += len(px & py)
            px.add(y)
            py.add(x)
    steps.append(FiltrationStep(threshold, (n, f1, f2), n - f1 + f2))
    return steps


# -- directed complexes ------------------------------------------------------


class DirectionError(ValueError):
    """An edge without a usable direction was encountered."""


DegreeMode = Literal["in", "out"]
TriangleMode = Literal["transitive", "cyclic"]


@dataclass(frozen=True, init=False)
class DirectedComplex:
    """The directed clique complex of an arc set: the vertices, one edge
    per arc and every 3-clique of the arcs as a triangle, which is either
    transitive or cyclic. It is kept as int bitsets, the heads ``_out[v]``
    and tails ``_in[v]`` of the arcs at v, and its two triangle counts; it
    equals another with the same labels and out bitsets. :meth:`from_arcs`
    is the only way to build one; ``DirectedComplex(...)`` raises TypeError.
    """

    labels: tuple[str, ...]
    _out: tuple[int, ...]

    def __init__(self, *args, **kwargs):
        raise TypeError("build a DirectedComplex with DirectedComplex.from_arcs")

    @classmethod
    def from_arcs(
        cls,
        labels: Iterable[str],
        arcs: Iterable[tuple[int, int]],
        cap: int | None = None,
    ) -> "DirectedComplex":
        """The directed clique complex of the arcs over ``labels``; a
        repeated arc counts once. Loops and antiparallel arc pairs are
        rejected, since a single edge cannot carry two directions; the
        error names the vertices by label. An arc naming a vertex outside
        ``labels`` raises :class:`ValueError`.

        With N[v] the neighbours of v, summing |N[u] & N[v]| over the
        edges counts each triangle three times; more than ``cap`` faces
        (None means no cap) raises :class:`ChainCapExceeded`. A
        transitive triangle has exactly one source, whose two
        out-neighbours are joined, so summing |out(s) & N[h]| over the
        arcs s -> h counts each one twice; the rest are cyclic.
        """
        labels = tuple(labels)
        n = len(labels)
        out, into = [0] * n, [0] * n
        for tail, head in arcs:
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc {(tail, head)} references a node out of range")
            if tail == head:
                raise DirectionError(f"loop arc at node '{labels[tail]}'")
            if out[head] >> tail & 1:
                u, v = sorted((tail, head))
                raise DirectionError(
                    f"conflicting directions for edge {labels[u]}|{labels[v]}: "
                    f"{labels[head]}->{labels[tail]} and {labels[tail]}->{labels[head]}"
                )
            out[tail] |= 1 << head
            into[head] |= 1 << tail
        nbrs = list(map(or_, out, into))
        kept = [(t, h) for t, out_t in enumerate(out) for h in _bits(out_t)]
        triangles = sum([(nbrs[t] & nbrs[h]).bit_count() for t, h in kept]) // 3
        total = n + len(kept) + triangles
        ChainCapExceeded.check(total, cap, "directed complex has %d faces")
        transitive = sum([(out[t] & nbrs[h]).bit_count() for t, h in kept]) // 2
        dc = object.__new__(cls)
        dc.__dict__.update(
            labels=labels,
            _out=tuple(out),
            _in=tuple(into),
            _triangle_counts=(transitive, triangles - transitive),
        )
        return dc

    def io_degrees(self, mode: DegreeMode) -> list[int]:
        """Number of edges entering (``in``) or leaving (``out``) each vertex."""
        if mode not in ("in", "out"):
            raise ValueError(f"degree mode must be 'in' or 'out', not {mode!r}")
        return list(map(int.bit_count, self._in if mode == "in" else self._out))

    def triangle_count(self, mode: TriangleMode) -> int:
        """The number of triangles :meth:`directed_triangles` yields."""
        return self._triangle_counts[_is_cyclic(mode)]

    def directed_triangles(
        self, mode: TriangleMode, labels: Sequence[str] | None = None
    ) -> Iterator[tuple[str, str, str]]:
        """The three labels of each triangle u < v < w, in sorted order,
        whose edges orient coherently in the given mode: u->v, v->w, u->w
        for transitive, u->v, v->w, w->u for cyclic. The labels are read
        from ``labels``, one per vertex (the complex's own by default).

        Walked from the bitsets: the third vertices over the edge u < v
        are the common neighbours above v, and those that close a cycle
        are the heads of v and tails of u when u -> v, the tails of v
        and heads of u when v -> u. The triangles over each edge are
        built as one list, as they are read.
        """
        cyclic = _is_cyclic(mode)
        if labels is None:
            labels = self.labels
        return chain.from_iterable(self._triangle_lists(cyclic, labels))

    def _triangle_lists(
        self, cyclic: bool, labels: Sequence[str]
    ) -> Iterator[list[tuple[str, str, str]]]:
        out, into = self._out, self._in
        for u, (out_u, in_u) in enumerate(zip(out, into)):
            above_u = (out_u | in_u) >> (u + 1) << (u + 1)
            lu = labels[u]
            for v in _bits(above_u):
                common = above_u & (out[v] | into[v]) >> (v + 1) << (v + 1)
                closing = out[v] & in_u if out_u >> v & 1 else into[v] & out_u
                chosen = common & closing if cyclic else common & ~closing
                if chosen:
                    lv = labels[v]
                    yield [(lu, lv, labels[w]) for w in _bits(chosen)]

    def directed_euler_formula(
        self, degree: DegreeMode, triangles: TriangleMode
    ) -> Fraction:
        """Directed vertex/edge/triangle combination, from counts.

        Vertex terms use the one-sided degrees d, the edge u-v carries
        3 * (chosen triangles on it) + 4 - d(u) - d(v), and each chosen
        triangle a flat 28. The edge terms sum exactly to
        9 C + 4 E - sum d(v) deg(v) over C chosen triangles and E edges;
        E = sum d(v), as each edge leaves one vertex and enters one.
        """
        degs = self.io_degrees(degree)
        chosen = self.triangle_count(triangles)
        vertex_sum = Fraction(sum(map(_twice_vertex_term, degs)), 2)
        degrees = map(int.bit_count, map(or_, self._out, self._in))
        edge_sum = 9 * chosen + 4 * sum(degs) - sum(map(mul, degs, degrees))
        return vertex_sum - edge_sum + 28 * chosen

    def directed_euler_count(self, triangles: TriangleMode) -> int:
        """Face count form: vertices - edges + chosen triangles."""
        edges = sum(map(int.bit_count, self._out))
        return len(self.labels) - edges + self.triangle_count(triangles)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_cyclic(mode: TriangleMode) -> bool:
    if mode not in ("transitive", "cyclic"):
        raise ValueError(
            f"triangle mode must be 'transitive' or 'cyclic', not {mode!r}"
        )
    return mode == "cyclic"
