"""Simplicial complexes, order complexes, and the adjacency queries
curvature needs.

Faces are increasing tuples of vertex indices, held in one sorted tuple
per dimension, so membership is a bisection and the edges and triangles
are buckets 1 and 2 as they stand; the edge-to-triangle index is a
dict. Complexes are immutable once built. The raw constructor and
:meth:`SimplicialComplex.from_faces` check their faces, since these come
from callers. :func:`order_complex` and :meth:`SimplicialComplex.skeleton`
build without checking. The order complex is built one dimension at a
time, each level extending the chains of the one below by the elements
above their last one, which keeps every bucket sorted, distinct and
downward closed; a skeleton is a prefix of a complex that was checked
when it was built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from .poset import DEFAULT_CHAIN_CAP, ChainCapExceeded

if TYPE_CHECKING:
    from .poset import Poset

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces stratified by dimension, downward closed.

    ``faces_by_dim[d]`` is the sorted tuple of the d-faces, each a tuple
    of d + 1 increasing vertex indices. Every index 0..len(labels)-1 is a
    vertex of the complex; labels are only used for reporting. The raw
    constructor sorts each bucket it is given and checks the face shapes,
    repeats, closure, that the top bucket is not empty, and that its
    vertices are exactly the label indices; :meth:`from_faces` accepts
    arbitrary faces and closes them.
    """

    labels: tuple[str, ...]
    faces_by_dim: tuple[tuple[Simplex, ...], ...]

    def __post_init__(self):
        # _trusted skips this; every other construction runs it
        buckets = tuple(tuple(sorted(map(tuple, b))) for b in self.faces_by_dim)
        object.__setattr__(self, "faces_by_dim", buckets)
        for d, bucket in enumerate(buckets):
            for f in bucket:
                if len(f) != d + 1 or f != tuple(sorted(set(f))):
                    raise ValueError(
                        f"face {f} is not {d + 1} strictly increasing vertices"
                    )
            for f, g in zip(bucket, bucket[1:]):
                if f == g:
                    raise ValueError(f"face {f} is listed twice")
        if buckets and not buckets[-1]:
            # the same faces would otherwise make complexes of two dimensions
            raise ValueError(f"top bucket (dimension {len(buckets) - 1}) is empty")
        # codimension-1 closure implies full closure by induction
        for d in range(1, len(buckets)):
            below = set(buckets[d - 1])
            for f in buckets[d]:
                for sub in combinations(f, d):
                    if sub not in below:
                        raise ValueError(
                            f"complex is not downward closed: {f} lacks {sub}"
                        )
        # with closure, this keeps every face in range
        vertices = buckets[0] if buckets else ()
        if vertices != tuple((i,) for i in range(len(self.labels))):
            raise ValueError(
                f"complex vertices do not match its {len(self.labels)} labels"
            )

    @classmethod
    def from_faces(
        cls, labels: Iterable[str], faces: Iterable[Iterable[int]]
    ) -> "SimplicialComplex":
        """Build a complex from arbitrary faces and all their subfaces.

        All labels become vertices.
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
        top = max(map(len, norm), default=0)
        buckets: list[list[Simplex]] = [[] for _ in range(top)]
        for f in norm:
            buckets[len(f) - 1].append(f)
        return cls(labels, tuple(buckets))

    @classmethod
    def _trusted(
        cls, labels: tuple[str, ...], faces_by_dim: tuple[tuple[Simplex, ...], ...]
    ) -> "SimplicialComplex":
        """Build without checks from sorted buckets of increasing faces,
        known to be distinct and downward closed, with every label index
        as a vertex."""
        k = object.__new__(cls)
        object.__setattr__(k, "labels", labels)
        object.__setattr__(k, "faces_by_dim", faces_by_dim)
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
        buckets of this already checked complex, not checked again."""
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

    def vertex_label(self, v: int) -> str:
        return self.labels[v]

    def face_label(self, f: Iterable[int]) -> str:
        return "|".join(map(self.labels.__getitem__, sorted(f)))


def order_complex(
    p: "Poset",
    skeleton_dim: int | None = None,
    chain_cap: int = DEFAULT_CHAIN_CAP,
) -> SimplicialComplex:
    """The chain complex of a poset: one m-simplex per (m+1)-chain.

    ``skeleton_dim`` bounds the dimension (None means unbounded). The
    complex is built level by level: the chains with m + 2 elements are
    the chains with m + 1 elements, each extended by every element above
    its last one. Each level's size is summed from the previous level
    first, so more than ``chain_cap`` faces raises
    :class:`ChainCapExceeded` before a dimension that passes the cap is
    listed. Elements are indexed in an order where every comparable pair
    points upward, and extending a lexicographically sorted level by
    ascending successors keeps it sorted, so every bucket comes out
    sorted, distinct and downward closed; every poset element is a
    vertex.
    """
    if skeleton_dim is not None and skeleton_dim < 0:
        raise ValueError("skeleton dimension must be >= 0")
    max_len = None if skeleton_dim is None else skeleton_dim + 1
    above = p._above
    buckets: list[tuple[Simplex, ...]] = []
    size, total = len(p), 0
    while size:
        total += size
        if total > chain_cap:
            raise ChainCapExceeded(
                f"order complex has {total} faces up to dimension {len(buckets)}",
                total,
                chain_cap,
            )
        if buckets:
            level = [c + (j,) for c in buckets[-1] for j in above[c[-1]]]
        else:
            level = [(i,) for i in range(size)]
        buckets.append(tuple(level))
        if len(buckets) == max_len:
            break
        size = sum([len(above[c[-1]]) for c in level])
    labels = tuple(p.element_label(i) for i in range(len(p)))
    return SimplicialComplex._trusted(labels, tuple(buckets))
