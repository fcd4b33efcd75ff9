"""Simplicial complexes, order complexes, and the adjacency queries
curvature needs.

Faces are increasing tuples of vertex indices, held in one sorted tuple
per dimension, so membership is a bisection and the edges and triangles
are buckets 1 and 2 as they stand; the edge-to-triangle index is a
dict. Complexes are immutable once built. Callers build them with
:meth:`SimplicialComplex.from_faces`, which checks and closes their
faces; the builders in the package make sorted, distinct, closed
buckets by construction and do not check them again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby
from typing import TYPE_CHECKING, Iterable

from .poset import DEFAULT_CHAIN_CAP

if TYPE_CHECKING:
    from .poset import Poset

Simplex = tuple[int, ...]


@dataclass(frozen=True, init=False)
class SimplicialComplex:
    """Faces stratified by dimension, downward closed.

    ``faces_by_dim[d]`` is the sorted tuple of the d-faces, each a tuple
    of d + 1 increasing vertex indices. Every index 0..len(labels)-1 is a
    vertex of the complex; labels are only used for reporting.
    :meth:`from_faces` is the only way to build one from outside the
    package, so these always hold; calling ``SimplicialComplex(...)``
    raises ``TypeError``.
    """

    labels: tuple[str, ...]
    faces_by_dim: tuple[tuple[Simplex, ...], ...]

    def __init__(self, *args, **kwargs):
        raise TypeError("build a SimplicialComplex with SimplicialComplex.from_faces")

    @classmethod
    def from_faces(
        cls, labels: Iterable[str], faces: Iterable[Iterable[int]]
    ) -> "SimplicialComplex":
        """Build a complex from arbitrary faces and all their subfaces.

        All labels become vertices. An empty face, a repeated vertex and
        a vertex outside the labels raise :class:`ValueError`.
        """
        labels = tuple(labels)
        n = len(labels)
        norm: set[Simplex] = set()
        for f in faces:
            t = tuple(sorted(f))
            if not t:
                raise ValueError("empty face")
            if len(set(t)) != len(t):
                raise ValueError(f"face {t} repeats a vertex")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"face {t} references a vertex out of range")
            norm.add(t)
        for f in list(norm):
            for m in range(1, len(f)):
                norm.update(combinations(f, m))
        norm.update((i,) for i in range(n))
        # closed, so every dimension up to the top one has faces
        ordered = sorted(norm, key=lambda f: (len(f), f))
        return cls._trusted(labels, tuple(tuple(b) for _, b in groupby(ordered, len)))

    @classmethod
    def _trusted(
        cls, labels: tuple[str, ...], faces_by_dim: tuple[tuple[Simplex, ...], ...]
    ) -> "SimplicialComplex":
        """Build without checks, and without ``__init__``, from sorted
        buckets of increasing faces, known to be distinct and downward
        closed, with every label index as a vertex and a non-empty top
        bucket."""
        k = object.__new__(cls)
        k.__dict__.update(labels=labels, faces_by_dim=faces_by_dim)
        return k

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.faces_by_dim)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(b) for d, b in enumerate(self.faces_by_dim))

    def _bucket(self, d: int) -> tuple[Simplex, ...]:
        return self.faces_by_dim[d] if 0 <= d <= self.dim else ()

    def faces(self, d: int) -> list[Simplex]:
        return list(self._bucket(d))

    def has_face(self, f: Iterable[int]) -> bool:
        t = tuple(sorted(f))
        bucket = self._bucket(len(t) - 1)
        i = bisect_left(bucket, t)
        return i < len(bucket) and bucket[i] == t

    def skeleton(self, d: int) -> "SimplicialComplex":
        """Subcomplex of all faces of dimension <= d: a slice of the
        buckets of this complex."""
        if d < 0:
            raise ValueError("skeleton dimension must be >= 0")
        if d >= self.dim:
            return self
        return SimplicialComplex._trusted(self.labels, self.faces_by_dim[: d + 1])

    @property
    def edges(self) -> tuple[Simplex, ...]:
        return self._bucket(1)

    @property
    def triangles(self) -> tuple[Simplex, ...]:
        return self._bucket(2)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n_vertices
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    @cached_property
    def _edge_triangles(self) -> dict[Simplex, tuple[Simplex, ...]]:
        idx: dict[Simplex, list[Simplex]] = {e: [] for e in self.edges}
        for t in self.triangles:
            u, v, w = t
            idx[u, v].append(t)
            idx[u, w].append(t)
            idx[v, w].append(t)
        return {e: tuple(ts) for e, ts in idx.items()}

    def _edge_entry(self, e: Iterable[int]) -> tuple[Simplex, tuple[Simplex, ...]]:
        """The sorted edge e and the triangles on it from the index, whose
        keys are exactly the edges. A stored edge is found as it is; any
        other pair is sorted first."""
        index = self._edge_triangles
        if type(e) is tuple:
            triangles = index.get(e)
            if triangles is not None:
                return e, triangles
        t = tuple(sorted(e))
        triangles = index.get(t)
        if triangles is None:
            raise ValueError(f"edge {t} is not a face of the complex")
        return t, triangles

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        if not (0 <= v < self.n_vertices):
            raise ValueError(f"vertex {v} is not in the complex")
        return self._degrees[v]

    def triangles_containing(self, e: Iterable[int]) -> tuple[Simplex, ...]:
        """All 2-faces having edge e as a face, in sorted order (the index
        is filled by walking the sorted :attr:`triangles`)."""
        return self._edge_entry(e)[1]

    def face_label(self, f: Iterable[int]) -> str:
        return "|".join(map(self.labels.__getitem__, sorted(f)))


def order_complex(
    p: "Poset",
    skeleton_dim: int | None = None,
    chain_cap: int | None = DEFAULT_CHAIN_CAP,
) -> SimplicialComplex:
    """The chain complex of a poset: one m-simplex per (m+1)-chain.

    ``skeleton_dim`` bounds the dimension (None means unbounded). The
    faces are counted first with :meth:`Poset.chain_counts`, which
    raises :class:`ChainCapExceeded` once their running total passes
    ``chain_cap`` (None means no cap), before any chain is listed. Then
    each chain :meth:`Poset.chains` lists goes into the bucket for its
    size. That listing is lexicographic, so every bucket comes out
    sorted, and its chains are distinct and downward closed; every
    poset element is a vertex.
    """
    if skeleton_dim is not None and skeleton_dim < 0:
        raise ValueError("skeleton dimension must be >= 0")
    max_len = None if skeleton_dim is None else skeleton_dim + 1
    buckets: list[list[Simplex]] = [[] for _ in p.chain_counts(max_len, chain_cap)]
    for c in p.chains(max_len):
        buckets[len(c) - 1].append(c)
    labels = tuple(p.element_label(i) for i in range(len(p)))
    return SimplicialComplex._trusted(labels, tuple(map(tuple, buckets)))
