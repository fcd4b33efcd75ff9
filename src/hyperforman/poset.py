"""Finite inclusion posets: cover relations, rank functions, chains.

Every poset in this library is a family of distinct finite sets ordered
by strict inclusion. That covers all three sources we care about: the
canonical poset of a hypernetwork (singletons, hypervertex sets, and
hyperedge unions), face posets of simplicial complexes (faces as vertex
sets), and hand-built fixtures. The cover relation is always the
transitive reduction of inclusion, so it is never supplied: one pass
of :meth:`Poset.from_sets`, the only way to build a poset, finds it,
and the poset keeps it per element: the covers above each element and
its whole up set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .complexes import SimplicialComplex
    from .hypernet import Hypernetwork

DEFAULT_CHAIN_CAP = 10_000_000


class ChainCapExceeded(RuntimeError):
    """Raised when a stage's work count passes the chain cap.

    ``work`` names the stage and its ``count``, the running total at the
    step where it first passed ``cap``: the faces of an order complex up
    to some dimension, or the intersections geometric chi visited.
    """

    def __init__(self, work: str, count: int, cap: int):
        super().__init__(f"{work}, over the chain cap of {cap}")
        self.cap = cap
        self.count = count


@dataclass(frozen=True)
class NotRanked:
    """Witness that no rank function exists.

    ``element`` is the first in index order to receive two ranks when
    rank 0 is pushed up from the minimal elements along covers;
    ``ranks`` are the least and the greatest it received.
    """

    element_index: int
    element: frozenset
    ranks: tuple[int, int]

    def describe(self) -> str:
        lo, hi = self.ranks
        return f"element {set_label(self.element)} would need rank {lo} and rank {hi}"


class NotRankedError(ValueError):
    def __init__(self, witness: NotRanked):
        super().__init__(f"poset is not ranked: {witness.describe()}")
        self.witness = witness


@dataclass(frozen=True)
class RankFunction:
    """The unique rank function of a ranked poset, indexed like the elements."""

    ranks: tuple[int, ...]
    max_rank: int

    def level_counts(self) -> tuple[int, ...]:
        """Number of elements per rank, index j = rank j."""
        if not self.ranks:
            return ()
        counts = [0] * (self.max_rank + 1)
        for r in self.ranks:
            counts[r] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        """Alternating sum of the level counts: rank j counts (-1)^j."""
        return sum((-1) ** j * c for j, c in enumerate(self.level_counts()))


def set_label(s: frozenset) -> str:
    return "{" + ",".join(map(str, sorted(s))) + "}"


@dataclass(frozen=True, init=False)
class Poset:
    """Distinct finite sets under strict inclusion.

    ``elements`` are stored in a canonical order (by size, then sorted
    members) so indices are stable regardless of construction order,
    and ``_members[i]`` holds the members of element i as that sorted
    tuple, which labels and output read. The order is kept per element,
    as filled in by :meth:`from_sets`:
    ``_children[q]`` lists, ascending, the p that cover q (so q < p),
    and ``_above[q]`` every p above q. :attr:`covers` gives the same
    cover relation as index pairs ``(q, p)``, built when first read.
    The covers are the transitive reduction of inclusion, so the
    elements determine them: equality and hashing go by ``elements``.

    :meth:`from_sets` is the only way to build one, so the canonical
    order always holds; calling ``Poset(...)`` raises ``TypeError``.
    """

    elements: tuple[frozenset, ...]

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Poset with Poset.from_sets")

    @classmethod
    def _trusted(cls, elements, members, children, above) -> "Poset":
        """Build without checks, and without ``__init__``, from distinct
        elements in canonical order and, per element, its sorted members,
        its covers and its complete up set, ascending: the ``_members``,
        ``_children`` and ``_above`` tables."""
        p = object.__new__(cls)
        p.__dict__.update(
            elements=elements, _members=members, _children=children, _above=above
        )
        return p

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable]) -> "Poset":
        """Build the poset of the given sets (deduplicated) under inclusion.

        Elements are taken from the largest index down. The supersets of
        an element are among the elements holding its rarest member (all
        of them for the empty set), read from a node -> indices posting
        list in ascending order: the first superset met is a cover, and
        so is every later one not already above an earlier cover, since
        a superset that is not a cover contains a cover of smaller
        index. So subset tests run only on such unblocked candidates;
        the covers found are the ``_children`` table, in ascending
        order, and the up sets merged on the way are the ``_above`` table.
        """
        uniq = {frozenset(s) for s in sets}
        # by size, then by sorted members: sets of two sizes are never compared
        keyed = sorted([(len(s), tuple(sorted(s)), s) for s in uniq])
        members = tuple([m for _, m, _ in keyed])
        elements = tuple([s for _, _, s in keyed])
        n = len(elements)
        postings: dict[object, list[int]] = {}
        for i, e in enumerate(elements):
            for x in e:
                postings.setdefault(x, []).append(i)
        above: list[set[int]] = [set() for _ in range(n)]
        children: list[tuple[int, ...]] = [()] * n
        for i in reversed(range(n)):
            e, up = elements[i], above[i]
            candidates = min((postings[x] for x in e), key=len) if e else range(n)
            found = []
            for j in candidates:
                if j <= i or j in up:
                    continue
                if e < elements[j]:
                    found.append(j)
                    up.add(j)
                    up |= above[j]
            children[i] = tuple(found)
        # in place, so each set is freed as its tuple is built
        for i, up in enumerate(above):
            above[i] = tuple(sorted(up))
        return cls._trusted(elements, members, tuple(children), tuple(above))

    def __len__(self) -> int:
        return len(self.elements)

    def element_label(self, i: int) -> str:
        return "{" + ",".join(map(str, self._members[i])) + "}"

    def index_of(self, s: Iterable) -> int:
        return self._index[frozenset(s)]

    @cached_property
    def _index(self) -> dict[frozenset, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def covers(self) -> frozenset[tuple[int, int]]:
        """Index pairs ``(q, p)`` with p covering q, built when first read."""
        return frozenset((q, p) for q, ps in enumerate(self._children) for p in ps)

    def cover_count(self) -> int:
        return sum(map(len, self._children))

    def comparable_pair_count(self) -> int:
        return sum(len(s) for s in self._above)

    def rank_function(self) -> RankFunction | NotRanked:
        """The unique rank function, or a :class:`NotRanked` witness.

        Minimal elements get 0 and every cover increments by exactly 1:
        in index order, each element pushes its rank + 1 to its covers.
        The first element that receives two values is the witness, with
        the least and greatest it received.
        """
        n = len(self.elements)
        lo, hi = [n] * n, [0] * n  # least and greatest rank pushed; n if none
        for i, ps in enumerate(self._children):
            if lo[i] == n:
                lo[i] = 0
            elif lo[i] != hi[i]:
                return NotRanked(i, self.elements[i], (lo[i], hi[i]))
            r = lo[i] + 1
            for p in ps:
                if r < lo[p]:
                    lo[p] = r
                if r > hi[p]:
                    hi[p] = r
        return RankFunction(tuple(lo), max(lo, default=0))

    def ranked_euler_characteristic(self) -> int:
        """Alternating sum of level counts over ranks.

        Distinct from the Euler characteristic of the order complex; the
        two agree for face posets but not in general.
        """
        rf = self.rank_function()
        if isinstance(rf, NotRanked):
            raise NotRankedError(rf)
        return rf.euler_characteristic()

    def chain_counts(
        self, max_length: int | None = None, cap: int | None = None
    ) -> tuple[int, ...]:
        """Number of chains of each size 1..max_length, without listing any.

        Entry k is the number of chains with k + 1 elements, so the
        result is the f-vector of the order complex (its skeleton of
        dimension max_length - 1), ending at its top dimension. One pass
        per chain size over the comparability table: the chains of size
        k + 1 starting at x are x followed by a chain of size k starting
        at an element above x, so the work is O(comparable pairs x height).
        Counting stops with :class:`ChainCapExceeded`, carrying the faces
        counted so far, as soon as their total passes ``cap``.
        """
        if max_length is not None and max_length < 1:
            return ()
        level = [1] * len(self.elements)  # chains of the current size, by start
        counts: list[int] = []
        total = 0
        while any(level):
            counts.append(sum(level))
            total += counts[-1]
            if cap is not None and total > cap:
                raise ChainCapExceeded(
                    f"order complex has {total} faces up to dimension "
                    f"{len(counts) - 1}",
                    total,
                    cap,
                )
            if len(counts) == max_length:
                break
            level = [sum(map(level.__getitem__, up)) for up in self._above]
        return tuple(counts)

    def chains(self, max_length: int | None = None) -> Iterator[tuple[int, ...]]:
        """Yield every chain (totally ordered subset) of size 1..max_length.

        Chains are emitted as strictly increasing index tuples, in
        lexicographic order, each exactly once. Comparability is full
        inclusion, not just covers. Nothing here bounds the output:
        callers check :meth:`chain_counts` against their cap first.
        :func:`~hyperforman.complexes.order_complex` builds its chains
        level by level instead; this listing is the reference it is
        tested against.
        """
        if max_length is not None and max_length < 1:
            return
        above = self._above
        # size-ordered indices make every comparable pair point upward,
        # so extending by a successor of the last element is enough
        for start in range(len(self.elements)):
            work = [(start,)]
            while work:
                chain = work.pop()
                yield chain
                if max_length is None or len(chain) < max_length:
                    for j in reversed(above[chain[-1]]):
                        work.append(chain + (j,))


def poset_from_hypernetwork(
    h: "Hypernetwork", include_singletons: bool = True
) -> Poset:
    """The canonical poset of a hypernetwork.

    Elements are the node singletons (optional), the hypervertex node
    sets, and the union of endpoints for every hyperedge, deduplicated
    and ordered by inclusion.
    """
    sets = h.generator_sets()
    if include_singletons:
        sets.extend(frozenset({v}) for v in h.nodes)
    return Poset.from_sets(sets)


def face_poset(k: "SimplicialComplex") -> Poset:
    """Faces of a complex ordered by inclusion.

    The complex is downward closed, so every cover is a codimension-1
    containment and the result is ranked, with rank equal to dimension.
    """
    return Poset.from_sets(f for faces in k.faces_by_dim for f in faces)
