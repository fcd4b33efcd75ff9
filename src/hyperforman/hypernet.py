"""Hypernetworks: node groups (hypervertices) joined pairwise by
hyperedges, plus parsing, validation, and the Euler characteristic of
the simplex view.

Two interchange formats are supported. JSON:

    {"nodes": ["a", "b", "c"],
     "hypervertices": [{"id": "V1", "nodes": ["a", "b"]}, ...],
     "hyperedges": [{"id": "E1", "tail": "V1", "head": "V2",
                     "directed": false}, ...],
     "directed": false}

and a line-oriented text format:

    # comment
    V1: a b
    V2: b c
    E: V1 V2      (undirected; "E>:" for a directed edge)

The text format declares nodes implicitly through hypervertices, so it
cannot express isolated nodes; JSON is the lossless format.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .poset import ChainCapExceeded, Poset


class HypernetworkError(ValueError):
    """An invariant of the hypernetwork model is violated."""


class ParseError(ValueError):
    """Malformed input, with a position when one is known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, column {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Hypervertex(NamedTuple):
    """A named group of nodes: an immutable tuple record, so it compares,
    hashes and unpacks as the plain tuple ``(id, nodes)``."""

    id: str
    nodes: frozenset[str]


class Hyperedge(NamedTuple):
    """A pairwise link between two hypervertex ids: an immutable tuple
    record, the plain tuple ``(id, tail, head, directed)``."""

    id: str
    tail: str
    head: str
    directed: bool = False


@dataclass(frozen=True)
class Hypernetwork:
    """Validated, immutable hypernetwork.

    Hyperedges are strictly pairwise and never loop; undirected edges
    store their endpoints in lexicographic order so equal networks
    compare equal.

    Construction checks the hypervertices, then the hyperedges, each in
    order, and raises :class:`HypernetworkError` at the first fault:
    per hypervertex a duplicate id, an empty node set, then an unknown
    node (the least); per hyperedge a duplicate id, an unknown tail,
    then head, a loop, an undirected edge in a directed network,
    undirected endpoints out of order, then a hypervertex pair an
    earlier edge already joins (either way round, unless the network is
    directed).
    """

    nodes: frozenset[str] = field(default_factory=frozenset)
    hypervertices: tuple[Hypervertex, ...] = ()
    hyperedges: tuple[Hyperedge, ...] = ()
    directed: bool = False

    def __post_init__(self):
        nodes = self.nodes
        seen_hv: set[str] = set()
        for hv_id, members in self.hypervertices:
            if hv_id in seen_hv:
                raise HypernetworkError(f"duplicate hypervertex id '{hv_id}'")
            seen_hv.add(hv_id)
            if not members:
                raise HypernetworkError(f"empty hypervertex '{hv_id}'")
            if not members <= nodes:
                # the least unknown node, whatever the set order
                n = min(members - nodes)
                raise HypernetworkError(
                    f"hypervertex '{hv_id}' references unknown node '{n}'"
                )
        directed = self.directed
        seen_he: set[str] = set()
        seen_pairs: dict[tuple[str, str], str] = {}
        for eid, tail, head, e_directed in self.hyperedges:
            if eid in seen_he:
                raise HypernetworkError(f"duplicate hyperedge id '{eid}'")
            seen_he.add(eid)
            if tail not in seen_hv or head not in seen_hv:
                ref = head if tail in seen_hv else tail
                raise HypernetworkError(
                    f"hyperedge '{eid}' references unknown hypervertex '{ref}'"
                )
            if tail == head:
                raise HypernetworkError(
                    f"hyperedge '{eid}' is a hyper-loop (tail equals head)"
                )
            if directed and not e_directed:
                raise HypernetworkError(
                    f"hypernetwork marked directed but hyperedge '{eid}' is undirected"
                )
            if not e_directed and tail > head:
                raise HypernetworkError(
                    f"undirected hyperedge '{eid}' must order its endpoints "
                    "lexicographically"
                )
            # unless the network is directed, the pair is unordered: its
            # sorted tuple keys it, since a loop was rejected above
            key = (head, tail) if not directed and head < tail else (tail, head)
            if key in seen_pairs:
                raise HypernetworkError(
                    f"hyperedges '{seen_pairs[key]}' and '{eid}' connect the "
                    "same hypervertex pair"
                )
            seen_pairs[key] = eid

    def generator_sets(self) -> list[frozenset[str]]:
        """Hypervertex node sets, then hyperedge endpoint unions."""
        by_id = {hv.id: hv.nodes for hv in self.hypervertices}
        gens = [hv.nodes for hv in self.hypervertices]
        gens.extend(by_id[e.tail] | by_id[e.head] for e in self.hyperedges)
        return gens

    def summary(self) -> str:
        def count(n: int, singular: str, plural: str) -> str:
            return f"{n} {singular if n == 1 else plural}"

        s = ", ".join(
            [
                count(len(self.nodes), "node", "nodes"),
                count(len(self.hypervertices), "hypervertex", "hypervertices"),
                count(len(self.hyperedges), "hyperedge", "hyperedges"),
            ]
        )
        if self.directed:
            s += ", directed"
        return s


def _edge(eid: str, tail: str, head: str, directed: bool) -> Hyperedge:
    if not directed and tail > head:
        tail, head = head, tail
    return Hyperedge(eid, tail, head, directed)


# -- JSON ------------------------------------------------------------------


def repeated(items) -> object | None:
    """The first item that occurs a second time, or None."""
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


def _strings(xs) -> bool:
    """Whether ``xs`` is a list of strings."""
    return isinstance(xs, list) and all(map(isinstance, xs, repeat(str)))


_BANNED = ("nodes", "members", "hypervertices")


def from_json_obj(obj) -> Hypernetwork:
    """The network of a decoded JSON object. Each check runs in document
    order and raises :class:`ParseError` at the first fault; the
    :class:`Hypernetwork` checks then run on what passed. A repeat is
    found by the size of the set the record stores, and only then named."""
    # plain ifs, not a check(cond, message) helper, which would format
    # every message, f-strings included, on the success path too
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    if "nodes" not in obj:
        raise ParseError("missing required key 'nodes'")
    nodes = obj["nodes"]
    if not _strings(nodes):
        raise ParseError("'nodes' must be an array of strings")
    node_set = frozenset(nodes)
    if len(node_set) != len(nodes):
        raise ParseError(f"duplicate node '{repeated(nodes)}'")
    directed = obj.get("directed", False)
    if not isinstance(directed, bool):
        raise ParseError("'directed' must be a boolean")

    raw_hvs = obj.get("hypervertices", [])
    if not isinstance(raw_hvs, list):
        raise ParseError("'hypervertices' must be an array")
    hvs = []
    for i, raw in enumerate(raw_hvs):
        if not isinstance(raw, dict):
            raise ParseError(f"hypervertices[{i}] must be an object")
        hv_id = raw.get("id")
        if not isinstance(hv_id, str):
            raise ParseError(f"hypervertices[{i}].id must be a string")
        members = raw.get("nodes")
        if not _strings(members):
            raise ParseError(f"hypervertices[{i}].nodes must be an array of strings")
        member_set = frozenset(members)
        if len(member_set) != len(members):
            raise ParseError(
                f"hypervertices[{i}].nodes repeats node '{repeated(members)}'"
            )
        hvs.append(Hypervertex(hv_id, member_set))

    raw_edges = obj.get("hyperedges", [])
    if not isinstance(raw_edges, list):
        raise ParseError("'hyperedges' must be an array")
    edges = []
    for i, raw in enumerate(raw_edges):
        if not isinstance(raw, dict):
            raise ParseError(f"hyperedges[{i}] must be an object")
        if not raw.keys().isdisjoint(_BANNED):
            banned = next(k for k in _BANNED if k in raw)
            raise ParseError(
                f"hyperedges[{i}]: hyperedges connect exactly two hypervertices "
                f"(unexpected key '{banned}')"
            )
        eid, tail, head = raw.get("id"), raw.get("tail"), raw.get("head")
        if not (
            isinstance(eid, str) and isinstance(tail, str) and isinstance(head, str)
        ):
            for k in ("id", "tail", "head"):
                if not isinstance(raw.get(k), str):
                    raise ParseError(f"hyperedges[{i}].{k} must be a string")
        e_directed = raw.get("directed", False)
        if not isinstance(e_directed, bool):
            raise ParseError(f"hyperedges[{i}].directed must be a boolean")
        edges.append(_edge(eid, tail, head, e_directed))

    return Hypernetwork(node_set, tuple(hvs), tuple(edges), directed)


def to_json_obj(h: Hypernetwork) -> dict:
    out = {
        "nodes": sorted(h.nodes),
        "hypervertices": [
            {"id": hv.id, "nodes": sorted(hv.nodes)} for hv in h.hypervertices
        ],
        "hyperedges": [
            {"id": e.id, "tail": e.tail, "head": e.head}
            | ({"directed": True} if e.directed else {})
            for e in h.hyperedges
        ],
        "directed": h.directed,
    }
    return out


# -- text ------------------------------------------------------------------


def _from_text(text: str) -> Hypernetwork:
    hvs: list[Hypervertex] = []
    arcs: list[tuple[str, str, bool]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("E>:") or line.startswith("E:"):
            directed = line.startswith("E>:")
            rest = line[3:] if directed else line[2:]
            refs = rest.split()
            if len(refs) != 2:
                raise ParseError(
                    "hyperedges connect exactly two hypervertices", line=lineno
                )
            arcs.append((refs[0], refs[1], directed))
            continue
        if ":" not in line:
            raise ParseError(
                "expected '<id>: node node ...' or 'E: <id> <id>'", line=lineno
            )
        hv_id, _, rest = line.partition(":")
        hv_id = hv_id.strip()
        if not hv_id:
            raise ParseError("missing hypervertex id", line=lineno)
        members = rest.split()
        if not members:
            raise ParseError(f"empty hypervertex '{hv_id}'", line=lineno)
        member_set = frozenset(members)
        if len(member_set) != len(members):
            raise ParseError(
                f"hypervertex '{hv_id}' repeats node '{repeated(members)}'",
                line=lineno,
            )
        hvs.append(Hypervertex(hv_id, member_set))

    nodes = frozenset().union(*[hv.nodes for hv in hvs])
    edges = tuple(
        _edge(f"E{i}", tail, head, directed)
        for i, (tail, head, directed) in enumerate(arcs, start=1)
    )
    directed = bool(edges) and all(e.directed for e in edges)
    return Hypernetwork(nodes, tuple(hvs), edges, directed)


_TOKEN_BREAKERS = (" ", "\t", ":", "#", "\n")


def to_text(h: Hypernetwork) -> str:
    """Serialize to the text format. Raises when the network cannot be
    expressed in it (isolated nodes, ids colliding with edge syntax)."""
    covered = {n for hv in h.hypervertices for n in hv.nodes}
    if covered != set(h.nodes):
        raise ValueError(
            "text format cannot express nodes outside every hypervertex: "
            + ", ".join(sorted(set(h.nodes) - covered))
        )
    # the text reader infers the flag as "has edges and all are directed"
    inferred = bool(h.hyperedges) and all(e.directed for e in h.hyperedges)
    if h.directed != inferred:
        raise ValueError(
            "text format cannot express this network's directed flag; "
            "use the JSON format"
        )
    for hv in h.hypervertices:
        # sorted, so the first unwritable node named is the same under
        # every hash seed
        for tok in (hv.id, *sorted(hv.nodes)):
            if tok.startswith("#") or any(b in tok for b in _TOKEN_BREAKERS):
                raise ValueError(f"token {tok!r} cannot be written in text format")
        if hv.id in ("E", "E>"):
            raise ValueError(f"hypervertex id '{hv.id}' collides with edge syntax")
    lines = [f"{hv.id}: " + " ".join(sorted(hv.nodes)) for hv in h.hypervertices]
    for e in h.hyperedges:
        prefix = "E>:" if e.directed else "E:"
        lines.append(f"{prefix} {e.tail} {e.head}")
    return "\n".join(lines) + "\n"


# -- entry points ----------------------------------------------------------


_SURROGATE = re.compile("[\ud800-\udfff]")


def _decode(data: bytes | str) -> str:
    """The text of ``data``. Bytes must be UTF-8; a string must hold no
    surrogate code point, which no UTF-8 text can carry."""
    if isinstance(data, str):
        found = _SURROGATE.search(data)
        if found:
            raise ParseError(
                f"input holds the surrogate code point \\u{ord(found.group()):04x}"
            )
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as ex:
        raise ParseError(f"input is not valid UTF-8: {ex}") from ex


def _lone_surrogate(value) -> str | None:
    """The first unpaired surrogate in any string, key or value, of a
    decoded JSON value, or None. ``json.loads`` joins each paired escape
    into one character, so every surrogate left is unpaired."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            found = _SURROGATE.search(v)
            if found:
                return found.group()
        elif isinstance(v, dict):
            stack.extend(v)
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
    return None


def decode_json(data: bytes | str):
    """The JSON value in ``data``; every way of failing is a ParseError.

    A string holding an unpaired surrogate escape such as ``"\\ud800"``
    is invalid too: it cannot be written as UTF-8, so no output could
    print it.
    """
    text = _decode(data)
    try:
        value = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ParseError(
            f"invalid JSON: {ex.msg}", line=ex.lineno, col=ex.colno
        ) from ex
    except ValueError as ex:
        # the only other ValueError: an integer past the int-string limit,
        # which Python words differently from version to version
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"invalid JSON: an integer has more than {limit} digits"
        ) from ex
    except RecursionError as ex:
        raise ParseError("JSON nests too deeply") from ex
    # only an escape can put a surrogate into valid UTF-8 text
    if "\\ud" in text or "\\uD" in text:
        lone = _lone_surrogate(value)
        if lone is not None:
            raise ParseError(
                f"invalid JSON: unpaired surrogate escape \\u{ord(lone):04x} "
                "in a string"
            )
    return value


def parse(data: bytes | str, fmt: str) -> Hypernetwork:
    """Parse a hypernetwork from ``data`` in format ``json`` or ``text``."""
    if fmt == "json":
        return from_json_obj(decode_json(data))
    if fmt == "text":
        return _from_text(_decode(data))
    raise ValueError(f"unknown format {fmt!r}")


def serialize(h: Hypernetwork, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(to_json_obj(h), indent=2) + "\n"
    if fmt == "text":
        return to_text(h)
    raise ValueError(f"unknown format {fmt!r}")


# -- geometric view --------------------------------------------------------


def _facets(h: Hypernetwork, p: Poset) -> list[int]:
    """The facets of the simplex view as node bitmasks (one bit per node
    in sorted order), by size, then by mask.

    The view is spanned by the hypervertices, the hyperedge unions and
    the node singletons, which are the elements of ``p``, the network's
    inclusion poset, with or without its singletons. So the facets are
    the maximal elements of ``p`` (an empty up set), plus the singleton
    of each node that no element holds: these come only from a poset
    built without singletons, and only for a node in no hypervertex.
    """
    bit = {n: 1 << i for i, n in enumerate(sorted(h.nodes))}
    facets = [
        sum(map(bit.__getitem__, members))
        for members, up in zip(p._members, p._above)
        if not up
    ]
    covered = 0
    for m in facets:
        covered |= m
    facets.extend(b for b in bit.values() if not b & covered)
    facets.sort(key=lambda m: (m.bit_count(), m))
    return facets


def geometric_euler_characteristic(
    h: Hypernetwork, p: Poset, cap: int | None = None
) -> int:
    """Euler characteristic of the full-dimensional simplex view of
    ``h``, whose facets are read from ``p``, its inclusion poset (with
    or without singletons, as
    :func:`~hyperforman.poset.poset_from_hypernetwork` builds it).

    By the nerve theorem for the cover by facet simplices, chi counts
    the facet families with a common node, +1 for each odd family and
    -1 for each even one; the cover by every spanning set gives the
    same chi, but with more families. ``signed[x]`` holds that count
    over the families whose intersection is exactly x, so the work is
    at most facets times distinct intersections, and every intersection
    is a face of the view.

    Node sets are ``int`` bitmasks from :func:`_facets`: a meet is
    ``x & mask`` and allocates no set. Masks match node sets one to
    one, so the intersections, and the visits below, are those of the
    same walk over sets, with the facets taken in the same order.

    The work is counted as the (facet, live intersection) pairs
    visited. Once that count passes ``cap`` (unbounded by default), the
    walk stops with :class:`ChainCapExceeded`.
    """
    signed: dict[int, int] = {}
    visited = 0
    for mask in _facets(h, p):
        visited += len(signed)
        ChainCapExceeded.check(visited, cap, "geometric chi visited %d intersections")
        # the facet alone, and joined to every earlier family it meets
        delta = {mask: 1}
        for x, count in signed.items():
            meet = x & mask
            if meet:
                delta[meet] = delta.get(meet, 0) - count
        for x, count in delta.items():
            count += signed.get(x, 0)
            if count:
                signed[x] = count
            else:
                signed.pop(x, None)
    return sum(signed.values())
