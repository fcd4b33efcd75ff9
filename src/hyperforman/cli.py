"""Command line front end.

Subcommands: validate, chi, curvature, gauss-bonnet, filtrate, report.
Inputs are hypernetwork files (JSON or text) or poset JSON files (an
object with an ``elements`` key); the pipeline is input -> inclusion
poset -> face counts of its order complex -> curvature. No command
builds the order complex: the per-edge curvature table, its balance and
the filtration come from the poset's comparability bitsets and the face
counts, gauss-bonnet reads its balance from the counts and the up and
down sizes alone, and the triangle lines come from walking the chains
x < y < z. ``--directed`` builds its directed graph complex once, as
neighbour bitsets, and reads its counts.
Each run builds one :class:`Analysis` that holds the loaded input and
the flags and computes every stage lazily, at most once; the
subcommands only format what it holds. Exit codes: 0 success, 2 invalid
input or configuration, 3 I/O failure (a stdout pipe whose reader has
closed, before or during the write, a closed stdout descriptor and
output that stdout's encoding cannot carry included, with one
``error:`` line), 4 chain cap exceeded, 5 broken
curvature/Euler balance.

``main(argv)`` can be called many times in one process: the argument
parser is built on the first call and reused, and :func:`build_parser`
returns a fresh parser for callers that want their own.

All output is deterministic: identical input and configuration produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import hypernet
from .complexes import order_complex  # noqa: F401  not called here; perfbench/tracing.py patches it
from .curvature import (
    TRIANGLE_TERM,
    CurvatureBalance,
    CurvatureTable,
    DirectedComplex,
    DirectionError,
    FiltrationStep,
    _twice_vertex_term,
    curvature_filtration,  # noqa: F401  not called here; perfbench/tracing.py patches it
    forman_ricci_closed,  # noqa: F401  not called here; perfbench/tracing.py patches it
    gauss_bonnet,  # noqa: F401  not called here; perfbench/tracing.py patches it
    poset_curvature_filtration,
    poset_curvature_table,
    poset_gauss_bonnet,
    two_skeleton,  # noqa: F401  not called here; perfbench/tracing.py patches it
    vertex_curvature,  # noqa: F401  not called here; perfbench/tracing.py patches it
)
from .hypernet import (
    Hypernetwork,
    HypernetworkError,
    ParseError,
    decode_json,
    from_json_obj,
    parse,
    repeated,
)
from .poset import (
    DEFAULT_CHAIN_CAP,
    ChainCapExceeded,
    NotRanked,
    Poset,
    RankFunction,
    poset_from_hypernetwork,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_CAP = 4
EXIT_GB = 5


class InputError(ValueError):
    """Bad input content or flag combination; maps to exit code 2."""


@dataclass(frozen=True)
class Loaded:
    kind: str  # "hypernetwork" or "poset"
    fmt: str
    network: Hypernetwork | None = None
    poset: Poset | None = None


# -- input loading -----------------------------------------------------------


def _poset_from_json_obj(obj) -> Poset:
    elements = obj.get("elements")
    if not isinstance(elements, list):
        raise InputError("poset input requires an 'elements' array")
    sets: list[frozenset] = []
    seen: set[frozenset] = set()
    for i, raw in enumerate(elements):
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise InputError(f"elements[{i}] must be an array of strings")
        dup = repeated(raw)
        if dup is not None:
            raise InputError(f"elements[{i}] repeats member '{dup}'")
        s = frozenset(raw)
        if s in seen:
            raise InputError(f"elements[{i}] duplicates an earlier element")
        seen.add(s)
        sets.append(s)
    p = Poset.from_sets(sets)
    if "covers" in obj:
        pairs = obj["covers"]
        if not isinstance(pairs, list):
            raise InputError("'covers' must be an array")
        for n, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(
                    f"malformed 'covers' array: entry {n} is not a pair of indices"
                )
            for i in pair:
                if type(i) is not int or not 0 <= i < len(sets):
                    raise InputError(f"malformed 'covers' array: {i!r} is not an index")
        translated = {(p.index_of(sets[q]), p.index_of(sets[r])) for q, r in pairs}
        if translated != set(p.covers):
            raise InputError("'covers' does not match the inclusion order")
    return p


def resolve_format(path: Path, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    if path.suffix == ".json":
        return "json"
    if path.suffix == ".hnet":
        return "text"
    raise InputError(
        f"cannot infer format from '{path.name}'; pass --format json or --format text"
    )


def load_input(path: Path, fmt: str) -> Loaded:
    fmt = resolve_format(path, fmt)
    data = path.read_bytes()
    if fmt == "text":
        return Loaded("hypernetwork", fmt, network=parse(data, "text"))
    obj = decode_json(data)
    if isinstance(obj, dict) and "elements" in obj and "hypervertices" not in obj:
        return Loaded("poset", fmt, poset=_poset_from_json_obj(obj))
    return Loaded("hypernetwork", fmt, network=from_json_obj(obj))


# -- the analysis ------------------------------------------------------------


class Analysis:
    """One run: the loaded input and the flags, with each pipeline stage
    computed on first use and cached, so no stage runs twice."""

    def __init__(self, args):
        self.args = args
        self.loaded = load_input(args.input, args.format)

    @cached_property
    def poset(self) -> Poset:
        if self.loaded.kind == "poset":
            return self.loaded.poset
        return poset_from_hypernetwork(
            self.loaded.network, include_singletons=not self.args.no_singletons
        )

    @cached_property
    def rank(self) -> RankFunction | NotRanked:
        return self.poset.rank_function()

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """Face counts of the order complex at the requested skeleton,
        counted without listing a chain. More faces than the chain cap
        is an error, raised at the dimension where the count passes it
        and before any face is built."""
        skeleton = self.args.skeleton
        return self.poset.chain_counts(
            None if skeleton is None else skeleton + 1, cap=self.args.chain_cap
        )

    @cached_property
    def curvature_counts(self) -> tuple[int, ...]:
        """The face counts curvature reads: the f-vector cut to
        dimension 2. A note on stderr says when the complex has faces
        above dimension 2."""
        dim = len(self.f_vector) - 1
        if dim > 2:
            print(
                f"note: complex has dimension {dim}; "
                "curvature operates on its 2-skeleton",
                file=sys.stderr,
            )
        return self.f_vector[:3]

    @cached_property
    def counted_balance(self) -> CurvatureBalance:
        """The balance alone, from the counts and the up and down sizes:
        what gauss-bonnet prints, with no per-edge work."""
        return poset_gauss_bonnet(self.poset, self.curvature_counts)

    @cached_property
    def table(self) -> CurvatureTable:
        """The per-edge curvature table and its balance, from the counts
        and the comparability bitsets: no chain is listed and no complex
        is built."""
        return poset_curvature_table(self.poset, self.curvature_counts)

    @cached_property
    def filtration(self) -> list[FiltrationStep]:
        return poset_curvature_filtration(self.table)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The label of each poset element, as the vertices print it."""
        return tuple(map(self.poset.element_label, range(len(self.poset))))

    @cached_property
    def quoted_labels(self) -> tuple[str, ...]:
        """Each label JSON-escaped, without its quotes. Escaping goes
        character by character, so the bodies of two labels joined by
        ``|`` are the body of the joined label."""
        return tuple(_quote(label)[1:-1] for label in self.labels)

    def triangles(self, labels: tuple[str, ...]) -> Iterator[tuple[str, str, str]]:
        """The three labels, from ``labels``, of each triangle of the
        complex the table reads, in the order :func:`order_complex` lists
        them: the chains x < y < z, walked from the up sets."""
        if self.table.dim < 2:
            return
        above = self.poset._above
        for x, ups in enumerate(above):
            first = labels[x]
            for y in ups:
                second = labels[y]
                for z in above[y]:
                    yield first, second, labels[z]

    @cached_property
    def chi(self) -> dict:
        """Euler characteristic by each requested method, with provenance."""
        method = self.args.chi_method
        methods = ["delta", "rank", "geometric"] if method == "all" else [method]
        return {m: self._chi_by(m) for m in methods}

    def _chi_by(self, method: str):
        if method == "delta":
            return sum((-1) ** d * n for d, n in enumerate(self.f_vector))
        if method == "rank":
            if isinstance(self.rank, NotRanked):
                return {"not_ranked": True, **self.rank_witness()}
            return self.rank.euler_characteristic()
        if self.loaded.kind == "poset":
            return None
        # the facets are the maximal elements of the run's poset, built
        # once for delta, rank and curvature too; called through the
        # module, where perfbench/tracing.py patches it
        return hypernet.geometric_euler_characteristic(
            self.loaded.network, self.poset, cap=self.args.chain_cap
        )

    @cached_property
    def directed(self) -> DirectedComplex:
        """The directed-graph reading of the network, whose faces are
        counted, not listed, against the chain cap."""
        return directed_graph_complex(self.loaded.network, self.args.chain_cap)

    def rank_witness(self) -> dict:
        return {
            "witness": self.poset.element_label(self.rank.element_index),
            "conflicting_ranks": list(self.rank.ranks),
        }


def directed_graph_complex(h: Hypernetwork, cap: int | None = None) -> DirectedComplex:
    """Directed-graph reading of a hypernetwork under ``cap``: the clique
    complex :meth:`DirectedComplex.from_arcs` builds of one arc per
    hyperedge between single-node hypervertices (a larger one raises
    :class:`InputError`). The caller has checked that every hyperedge is directed."""
    for hv in h.hypervertices:
        if len(hv.nodes) > 1:
            raise InputError(
                f"undirected edge encountered: hypervertex '{hv.id}' has "
                f"{len(hv.nodes)} nodes and its internal edges carry no direction"
            )
    labels = sorted(h.nodes)
    idx = {n: i for i, n in enumerate(labels)}
    node_of = {hv.id: next(iter(hv.nodes)) for hv in h.hypervertices}
    arcs = [(idx[node_of[e.tail]], idx[node_of[e.head]]) for e in h.hyperedges]
    return DirectedComplex.from_arcs(labels, arcs, cap)


@dataclass(frozen=True)
class _Rows:
    """A JSON array whose items share one shape, written with one ``%``
    template for them all.

    ``item`` is that shape. A dict, with distinct ``str`` keys in sorted
    order (the order ``sort_keys`` writes), stands for objects; a ``str``
    stands for arrays of any length, each entry of which it writes. Each
    value of the dict, and the ``str``, is a ``%`` field giving the JSON
    text of a value: ``"%d"`` for an int, ``'"%s"'`` for a string from its
    escaped body, ``'"%s|%s"'`` for two bodies joined, ``"%s"`` for a JSON
    text, or a constant's text with every ``%`` doubled. A value of the
    dict may also be a tuple of such fields, which writes a nested array
    of that length. Each row is the tuple that fills one item's fields in
    order, a nested array's fields in their place; a row of the wrong
    width is a TypeError. The values are not checked: each must be what
    its field says, since ``%d`` writes a float truncated.
    """

    item: dict[str, str | tuple[str, ...]] | str
    rows: Iterable[tuple]

    def __post_init__(self) -> None:
        item = self.item
        if isinstance(item, str):
            return
        if not isinstance(item, dict) or not all(isinstance(k, str) for k in item):
            raise TypeError(f"row table item must be str or have str keys: {item!r}")
        keys = list(item)
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise TypeError(f"row table keys must be sorted: {keys!r}")


# the JSON text of each scalar of one exact type, one C call per value
_TEXT_OF = {
    int: int.__repr__,
    str: _quote,
    bool: {True: "true", False: "false"}.get,
    type(None): {None: "null"}.get,
}


def _scalar(value) -> str:
    """The JSON text of an int, str, bool or None; a TypeError for any
    other type, a subclass of one of them included."""
    to_text = _TEXT_OF.get(type(value))
    if to_text is None:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    return to_text(value)


def _array(texts, indent: str) -> str:
    """A non-empty JSON array at ``indent`` from its items' texts."""
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _list_text(items: list, indent: str) -> str:
    """``items`` as a JSON array at ``indent``, as one ``join`` with no
    Python call per item: an empty list, or scalars of one exact type of
    :data:`_TEXT_OF`. Anything else is a TypeError."""
    if not items:
        return "[]"
    kinds = set(map(type, items))
    to_text = _TEXT_OF.get(next(iter(kinds))) if len(kinds) == 1 else None
    if to_text is None:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"list items must be scalars of one type, not {names}")
    return _array(map(to_text, items), indent)


def _template(item, indent: str) -> str:
    """The ``%`` template of one object (a dict of fields) or one array (a
    tuple of fields) at ``indent``. A tuple-valued field of an object is
    an array at the object's inner indent."""
    if not item:
        return "{}" if isinstance(item, dict) else "[]"
    inner = indent + "  "
    if isinstance(item, dict):
        fields = [
            _quote(k).replace("%", "%%") + ": "
            + (v if isinstance(v, str) else _template(v, inner))
            for k, v in item.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(fields) + "\n" + indent + "}"
    return "[\n" + inner + (",\n" + inner).join(item) + "\n" + indent + "]"


def _rows_text(table: _Rows, indent: str) -> str:
    """A row table as the JSON array it stands for: the item's template is
    built once at the array's inner indent (once per length for arrays),
    and each row fills it with one ``%``."""
    inner, item = indent + "  ", table.item
    if isinstance(item, dict):
        texts = list(map(_template(item, inner).__mod__, table.rows))
    else:
        rows = list(table.rows)
        fill = {n: _template((item,) * n, inner) for n in set(map(len, rows))}
        texts = list(map(str.__mod__, map(fill.__getitem__, map(len, rows)), rows))
    return _array(texts, indent) if texts else "[]"


def _write_json(value, indent: str, append) -> None:
    """Hand ``value``'s JSON text at ``indent`` to ``append``, dispatched
    on its exact type: a dict walks its sorted ``str`` keys, a list goes
    through :func:`_list_text`, a :class:`_Rows` table through
    :func:`_rows_text`, and anything else through :func:`_scalar`."""
    kind = type(value)
    if kind is dict:
        if not value:
            append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {key!r}")
            append(sep + _quote(key) + ": ")
            _write_json(value[key], inner, append)
            sep = ",\n" + inner
        append("\n" + indent + "}")
    elif kind is list:
        append(_list_text(value, indent))
    elif kind is _Rows:
        append(_rows_text(value, indent))
    else:
        append(_scalar(value))


def _json_text(obj) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it,
    plus a newline, byte for byte.

    CPython runs its C encoder only when ``indent`` is None, so the stdlib
    pretty-prints in pure Python; this writer is shorter work for the same
    bytes. It takes exactly what the reports hold: a dict with ``str``
    keys; a list of scalars of one exact type, or an empty list; a
    :class:`_Rows` table, written as the array it stands for; and an int,
    str, bool or None. Anything else, a tuple, a float, a subclass of int
    or str and a list of mixed types or of lists included, is a TypeError.
    """
    chunks: list[str] = []
    _write_json(obj, "", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write_out(text: str) -> None:
    """Write ``text`` to stdout, all of it or an OSError.

    A text stream over a binary one drops the short count its buffer's
    ``write`` returns when a pipe's reader closes mid-write, so the rest
    of the output would be lost with no error. Here the text layer is
    flushed, and the encoded bytes go to the buffer until every byte is
    out; a closed reader then raises BrokenPipeError. The whole text is
    encoded before any of it is written, so text the stream's encoding
    cannot carry is an OSError with nothing written. A stream with no
    binary buffer under it (``io.StringIO``) takes the text as it is.
    """
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    out.flush()
    try:
        data = memoryview(text.encode(out.encoding, out.errors))
    except UnicodeEncodeError as ex:
        bad = ex.object[ex.start : ex.end]
        raise OSError(
            f"standard output's encoding {ex.encoding} cannot carry {bad!a}"
        ) from None
    while data:
        # a non-blocking raw stream returns None for "nothing written yet"
        data = data[buffer.write(data) or 0:]


def emit(args, human, json_obj, csv_table) -> None:
    """Write the report in the ``--output`` format. Each payload is a
    zero-argument callable and only the chosen one is called: ``human``
    gives the lines, ``json_obj`` the object, ``csv_table`` the header
    and the rows."""
    if args.output == "json":
        _write_out(_json_text(json_obj()))
    elif args.output == "csv":
        header, rows = csv_table()
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write_out(text.getvalue())
    else:
        _write_out("\n".join(human()) + "\n")


# -- formatting helpers ------------------------------------------------------


def _decimal(x: Fraction) -> str:
    """An exact half-integer with one fractional digit: ``-3.5``, ``2.0``."""
    return f"{float(x):.1f}"


def _exact(x: Fraction) -> int | str:
    """Exact JSON form: an int when whole, else a string such as ``"7/2"``."""
    return x.numerator if x.denominator == 1 else str(x)


def _half_decimal(t: int) -> str:
    """``_decimal(Fraction(t, 2))`` with no Fraction: an int divided by 2
    rounds to the same float."""
    return f"{t / 2:.1f}"


def _half_exact(t: int) -> int | str:
    """``_exact(Fraction(t, 2))`` with no Fraction."""
    return t // 2 if t % 2 == 0 else f"{t}/2"


def input_summary(loaded: Loaded) -> dict:
    """Size counts of the input, as validate and report print them."""
    if loaded.kind == "poset":
        return {"kind": "poset", "elements": len(loaded.poset)}
    h = loaded.network
    return {
        "kind": "hypernetwork",
        "nodes": len(h.nodes),
        "hypervertices": len(h.hypervertices),
        "hyperedges": len(h.hyperedges),
        "directed": h.directed,
    }


def chi_display(a: Analysis, value) -> str:
    if value is None:
        return "n/a (requires hypernetwork input)"
    if isinstance(value, dict):
        return f"not ranked ({a.rank.describe()})"
    return str(value)


def chi_cell(value):
    """A chi value as its CSV cell."""
    if value is None:
        return "n/a"
    if isinstance(value, dict):
        return "not-ranked"
    return value


def edge_rows(a: Analysis) -> Iterator[tuple[str, int, int, int, int]]:
    """(label, triangles, parallel, ric, closed form) per edge of the
    table."""
    labels = a.labels
    for x, y, t, p, r, c in a.table.edges:
        yield labels[x] + "|" + labels[y], t, p, r, c


def curvature_lines(a: Analysis) -> list[str]:
    lines = [
        f"edge {label}: triangles={t} parallel={p} ric={r} closed={c} "
        + ("ok" if r == c else "MISMATCH")
        for label, t, p, r, c in edge_rows(a)
    ]
    lines += [
        f"vertex {label}: {_half_decimal(_twice_vertex_term(d))}"
        for label, d in zip(a.labels, a.table.degrees)
    ]
    lines += [
        f"triangle {x}|{y}|{z}: {TRIANGLE_TERM}" for x, y, z in a.triangles(a.labels)
    ]
    return lines


# one item of each curvature array, as :class:`_Rows` fields
_EDGE = {
    "edge": '"%s|%s"',
    "match": "%s",
    "parallel": "%d",
    "ric": "%d",
    "ric_closed": "%d",
    "triangles": "%d",
}
_VERTEX = {"term": "%s", "vertex": '"%s"'}
_TRIANGLE = {"term": _scalar(TRIANGLE_TERM), "triangle": '"%s|%s|%s"'}
_MATCH = ("false", "true")


def curvature_obj(a: Analysis) -> dict:
    """The curvature table as JSON: the edge, vertex and triangle arrays,
    each a :class:`_Rows` table filled straight from the table's index
    rows, its degrees and the triangle walk with the escaped labels, with
    no per-row dict and no label joined before the template joins it."""
    q = a.quoted_labels
    return {
        "edges": _Rows(
            _EDGE,
            [
                (q[x], q[y], _MATCH[r == c], p, r, c, t)
                for x, y, t, p, r, c in a.table.edges
            ],
        ),
        "vertices": _Rows(
            _VERTEX,
            [
                (_scalar(_half_exact(_twice_vertex_term(d))), label)
                for label, d in zip(q, a.table.degrees)
            ],
        ),
        "triangles": _Rows(_TRIANGLE, a.triangles(q)),
    }


def poset_obj(p: Poset) -> dict:
    """The poset as JSON: each element as its sorted node names, every
    name escaped once, and the cover pairs ``[q, p]``, p covering q, in
    index order; each a :class:`_Rows` table."""
    names = {x: _quote(x)[1:-1] for x in set(chain.from_iterable(p.elements))}
    members = map(map, repeat(names.__getitem__), p._members)
    return {
        "elements": _Rows('"%s"', map(tuple, members)),
        "covers": _Rows("%d", [(q, c) for q, cs in enumerate(p._children) for c in cs]),
    }


# one filtration step, as :class:`_Rows` fields
_STEP = {"chi": "%d", "f_vector": ("%d", "%d", "%d"), "threshold": "%d"}


def filtration_obj(a: Analysis) -> _Rows:
    """The filtration as JSON: a :class:`_Rows` table of its steps, each
    f-vector a nested array."""
    return _Rows(_STEP, [(s.chi, *s.f_vector, s.threshold) for s in a.filtration])


def balance_status(report: CurvatureBalance) -> int:
    if report.residual != 0:
        print("error: curvature does not balance the Euler characteristic",
              file=sys.stderr)
        return EXIT_GB
    return EXIT_OK


# -- subcommands -------------------------------------------------------------


def cmd_validate(a: Analysis) -> int:
    obj = input_summary(a.loaded)
    if a.loaded.kind == "poset":
        p = a.loaded.poset
        obj["covers"] = p.cover_count()
        human = [f"{len(p)} elements, {obj['covers']} cover pairs"]
    else:
        human = [a.loaded.network.summary()]
    rows = [(field, value) for field, value in obj.items() if field != "kind"]
    emit(a.args, lambda: human, lambda: obj, lambda: (("field", "value"), rows))
    return EXIT_OK


def cmd_chi(a: Analysis) -> int:
    emit(
        a.args,
        lambda: [f"chi[{m}] = {chi_display(a, v)}" for m, v in a.chi.items()],
        lambda: {"chi": a.chi},
        lambda: (("method", "value"), [(m, chi_cell(v)) for m, v in a.chi.items()]),
    )
    return EXIT_OK


def _directed_section(a: Analysis) -> tuple:
    """The directed report of :attr:`Analysis.directed`: the human lines,
    the JSON object and the CSV rows, each a zero-argument callable for
    :func:`emit`. All three read the complex's counts; only the JSON
    object walks the chosen triangles, for their labels."""
    args, dc = a.args, a.directed
    degree, mode = args.degree or "out", args.triangles or "transitive"
    labels, degs, chosen = dc.labels, dc.io_degrees(degree), dc.triangle_count(mode)
    formula = dc.directed_euler_formula(degree, mode)
    count = dc.directed_euler_count(mode)

    def human() -> list[str]:
        return [
            *(f"{degree}-degree {x} = {d}" for x, d in zip(labels, degs)),
            f"triangles[{mode}] = {chosen}",
            f"chi_directed[formula] = {_decimal(formula)}",
            f"chi_directed[count] = {count}",
        ]

    def obj() -> dict:
        return {
            "degree_mode": degree,
            "triangle_mode": mode,
            "degrees": dict(zip(labels, degs)),
            "chosen_triangles": list(map("|".join, dc.directed_triangles(mode))),
            "chi_formula": _exact(formula),
            "chi_count": count,
        }

    def rows() -> list[tuple]:
        return [
            *(("degree", x, d) for x, d in zip(labels, degs)),
            ("triangles", mode, chosen),
            ("chi_formula", "", str(formula)),
            ("chi_count", "", count),
        ]

    return human, obj, rows


def _check_directed_flags(args, loaded: Loaded) -> None:
    if not args.directed:
        if args.degree is not None or args.triangles is not None:
            raise InputError("--degree/--triangles require --directed")
        return
    if loaded.kind == "poset":
        raise InputError("--directed requires a directed hypernetwork input")
    if not all(e.directed for e in loaded.network.hyperedges):
        raise InputError("--directed requires every hyperedge to be directed")


def cmd_curvature(a: Analysis) -> int:
    args = a.args
    _check_directed_flags(args, a.loaded)
    if args.directed:
        human, obj, rows = _directed_section(a)
        emit(
            args,
            human,
            lambda: {"directed": obj()},
            lambda: (("metric", "key", "value"), rows()),
        )
        return EXIT_OK

    emit(
        args,
        lambda: curvature_lines(a),
        lambda: curvature_obj(a),
        lambda: (
            ("edge", "triangles", "parallel", "ric"),
            (row[:4] for row in edge_rows(a)),
        ),
    )
    return EXIT_OK


def _require_undirected(loaded: Loaded, what: str) -> None:
    if loaded.kind == "hypernetwork" and loaded.network.directed:
        raise InputError(f"{what} operates on undirected input")


def cmd_gauss_bonnet(a: Analysis) -> int:
    _require_undirected(a.loaded, "gauss-bonnet")
    report = a.counted_balance
    equation = (
        f"{_decimal(report.vertex_sum)} - {report.ricci_sum} + "
        f"{report.triangle_sum} = {report.chi} = chi"
    )
    human = [
        f"sum vertex terms = {_decimal(report.vertex_sum)}",
        f"sum ricci = {report.ricci_sum}",
        f"sum triangle terms = {report.triangle_sum}",
        f"chi = {report.chi}",
        f"residual = {_decimal(report.residual)}",
        equation,
    ]
    obj = {
        "vertex_sum": _exact(report.vertex_sum),
        "ricci_sum": report.ricci_sum,
        "triangle_sum": report.triangle_sum,
        "chi": report.chi,
        "residual": _exact(report.residual),
        "triangle_term": TRIANGLE_TERM,
    }
    rows = [
        ("vertex_sum", str(report.vertex_sum)),
        ("ricci_sum", report.ricci_sum),
        ("triangle_sum", report.triangle_sum),
        ("chi", report.chi),
        ("residual", str(report.residual)),
    ]
    emit(a.args, lambda: human, lambda: obj, lambda: (("component", "value"), rows))
    return balance_status(report)


def cmd_filtrate(a: Analysis) -> int:
    _require_undirected(a.loaded, "filtrate")
    rows = [(s.threshold, *s.f_vector, s.chi) for s in a.filtration]

    def human() -> list[str]:
        if not rows:
            return ["empty complex: no filtration steps"]
        return [
            f"threshold {t}: f=({f0},{f1},{f2}) chi={chi}"
            for t, f0, f1, f2, chi in rows
        ]

    emit(
        a.args,
        human,
        lambda: {"filtration": filtration_obj(a)},
        lambda: (("threshold", "f0", "f1", "f2", "chi"), rows),
    )
    return EXIT_OK


def cmd_report(a: Analysis) -> int:
    args = a.args
    _check_directed_flags(args, a.loaded)
    if isinstance(a.rank, RankFunction):
        rank_obj = {
            "ranked": True,
            "ranks": list(a.rank.ranks),
            "max_rank": a.rank.max_rank,
            "level_counts": list(a.rank.level_counts()),
        }
    else:
        rank_obj = {"ranked": False, **a.rank_witness()}
    report = a.table
    obj = {
        "input": {**input_summary(a.loaded), "format": a.loaded.fmt},
        "config": {
            "singletons": not args.no_singletons,
            "skeleton": "full" if args.skeleton is None else args.skeleton,
            "chain_cap": args.chain_cap,
        },
        "poset": poset_obj(a.poset),
        "rank": rank_obj,
        "chi": a.chi,
        "complex": {
            "f_vector": list(a.f_vector),
            "dim": len(a.f_vector) - 1,
            "truncated_for_curvature": len(a.f_vector) > 3,
        },
        "curvature": {
            **curvature_obj(a),
            "sums": {
                "vertex": _exact(report.vertex_sum),
                "ricci": report.ricci_sum,
                "triangle": report.triangle_sum,
            },
            "chi": report.chi,
            "residual": _exact(report.residual),
            "triangle_term": TRIANGLE_TERM,
        },
        "filtration": filtration_obj(a),
    }
    if args.directed:
        obj["directed"] = _directed_section(a)[1]()
    _write_out(_json_text(obj))
    return balance_status(report)


# -- argument parsing --------------------------------------------------------


def _skeleton_arg(s: str):
    if s == "full":
        return None
    try:
        d = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a dimension or 'full', got {s!r}")
    if d < 0:
        raise argparse.ArgumentTypeError("skeleton dimension must be >= 0")
    return d


def _cap_arg(s: str) -> int:
    try:
        cap = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}")
    if cap < 1:
        raise argparse.ArgumentTypeError("chain cap must be positive")
    return cap


def _add_common(
    p: argparse.ArgumentParser, pipeline: bool = True, output: bool = True
) -> None:
    p.add_argument("input", type=Path, help="hypernetwork or poset file")
    p.add_argument(
        "--format",
        choices=["auto", "json", "text"],
        default="auto",
        help="input format (auto: .json -> json, .hnet -> text)",
    )
    if output:
        p.add_argument(
            "--output",
            choices=["json", "csv", "human"],
            default="human",
            help="report format",
        )
    if pipeline:
        p.add_argument(
            "--no-singletons",
            action="store_true",
            help="omit node singletons from the poset",
        )
        p.add_argument(
            "--skeleton",
            type=_skeleton_arg,
            default=None,
            metavar="D|full",
            help="truncate the order complex to dimension D (default: full)",
        )
        p.add_argument(
            "--chain-cap",
            type=_cap_arg,
            default=DEFAULT_CHAIN_CAP,
            metavar="N",
            help="cap on the faces of the order complex at the requested "
            "skeleton, counted before any face is built, on the faces of "
            "the --directed complex, counted before any triangle is listed, "
            "and on the intersections geometric chi visits "
            "(default: %(default)s)",
        )


def _add_directed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--directed",
        action="store_true",
        help="directed analysis (requires a directed input)",
    )
    p.add_argument(
        "--degree",
        choices=["in", "out"],
        default=None,
        help="one-sided degree the directed analysis reads (default: out)",
    )
    p.add_argument(
        "--triangles",
        choices=["transitive", "cyclic"],
        default=None,
        help="triangles the directed analysis chooses (default: transitive)",
    )


def _add_chi_method(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--chi-method",
        choices=["delta", "rank", "geometric", "all"],
        default="all",
        help="how chi is computed; all runs each (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperforman",
        description="hypernetworks as posets and complexes, with exact "
        "combinatorial curvature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an input file")
    _add_common(p, pipeline=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chi", help="Euler characteristic by one or all methods")
    _add_common(p)
    _add_chi_method(p)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("curvature", help="per-edge, per-vertex, per-triangle terms")
    _add_common(p)
    _add_directed(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser(
        "gauss-bonnet", help="verify the exact curvature/Euler balance"
    )
    _add_common(p)
    p.set_defaults(func=cmd_gauss_bonnet)

    p = sub.add_parser("filtrate", help="curvature sublevel filtration profile")
    _add_common(p)
    p.set_defaults(func=cmd_filtrate)

    p = sub.add_parser("report", help="all-in-one report (always JSON)")
    _add_common(p, output=False)
    _add_chi_method(p)
    _add_directed(p)
    p.set_defaults(func=cmd_report)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` parses with: built on the first call and
    reused for the rest of the process, since building it costs about
    40 times what one ``parse_args`` does.

    Reuse is safe because argparse keeps no state between ``parse_args``
    calls: each gets a fresh ``Namespace``, and ``sys.argv``, the
    standard streams and the terminal width of help and usage text are
    read when they are used. Only the ``set_defaults(func=cmd_*)`` of
    each subcommand is fixed at the first build, so patching a ``cmd_*``
    function afterwards does not reach :func:`main`; patch the module
    globals it reads at call time instead, or call ``cache_clear()``.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if sys.stdout is None:
        # the interpreter found no stdout descriptor at startup (``>&-``)
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_IO
    try:
        rc = args.func(Analysis(args))
        # a reader that closed the pipe shows up here, not at exit
        sys.stdout.flush()
        return rc
    except ChainCapExceeded as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, HypernetworkError, InputError, DirectionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    rc = main(sys.argv[1:])
    if sys.stdout is None:
        raise SystemExit(rc)
    try:
        sys.stdout.flush()
    except OSError:
        # the reader is gone: send what is still buffered to devnull, so
        # the interpreter's own flush at exit cannot fail again (exit 120)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    raise SystemExit(rc)


if __name__ == "__main__":
    entry()
