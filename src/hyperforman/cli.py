"""Command line front end.

Subcommands: validate, chi, curvature, gauss-bonnet, filtrate, report.
Inputs are hypernetwork files (JSON or text) or poset JSON files (an
object with an ``elements`` key); the pipeline is input -> inclusion
poset -> face counts of its order complex -> curvature. No command
builds the order complex, and each counts only the faces it reads: at
the default full skeleton, chi's delta is one Moebius pass over the up
sets, curvature, gauss-bonnet and filtrate count the faces up to
dimension 2 and take the dimension from a longest chain, and report
counts the whole f-vector, which it prints. The per-edge curvature
rows and the filtration come from the poset's comparability bitsets
and the face counts (from the up and down sizes alone without
triangles), and the triangle lines from walking the chains x < y < z.
gauss-bonnet reads its balance from the counts and the up and down
sizes; report reads its own back from the filtration, whose edges are
bucketed by curvature, as filtrate prints them, with no row built, so
the bitsets its rows read are those the balance checks. ``--directed``
builds its directed graph complex once, as neighbour bitsets, and reads
its counts.
Each run builds one :class:`Analysis` that holds the loaded input and
the flags and computes every stage lazily, at most once; the
subcommands only format what it holds. Every stage that can fail runs
before the first byte is written. The large sections (edges, vertices,
triangles, filtration steps and the chosen directed triangles) are then
written a chunk of :data:`_CHUNK` rows at a time, each from one row
source through one template per format (the ``csv`` module for CSV), so
a run holds one chunk of its output: curvature and report build their
edge rows and report its cover pairs as they are written, and no command
holds a table of them. Exit codes: 0 success, 2 invalid
input or configuration, 3 I/O failure (a stdout pipe whose reader has
closed, before or during the write, a closed stdout descriptor and a
label that stdout's encoding cannot carry included, with one ``error:``
line), 4 chain cap exceeded, 5 broken curvature/Euler balance.

``main(argv)`` can be called many times in one process: the argument
parser is built on the first call and reused, and :func:`build_parser`
returns a fresh parser for callers that want their own.

All output is deterministic: identical input and configuration produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import hypernet
from .complexes import order_complex  # noqa: F401  not called here; perfbench/tracing.py patches it
from .curvature import (
    TRIANGLE_TERM,
    CurvatureBalance,
    DirectedComplex,
    DirectionError,
    EdgeRow,
    FiltrationStep,
    _twice_vertex_term,
    curvature_filtration,  # noqa: F401  not called here; perfbench/tracing.py patches it
    filtration_balance,
    forman_ricci_closed,  # noqa: F401  not called here; perfbench/tracing.py patches it
    gauss_bonnet,  # noqa: F401  not called here; perfbench/tracing.py patches it
    poset_curvature_filtration,
    poset_degrees,
    poset_edge_rows,
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
        given = {(sets[q], sets[r]) for q, r in pairs}
        e = p.elements
        if given != {(e[q], e[c]) for q, cs in enumerate(p._children) for c in cs}:
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

    @property
    def counts_every_face(self) -> bool:
        """Whether the run counts the whole f-vector at the requested
        skeleton: at a finite ``--skeleton``, and for ``report``, which
        prints it. At the full skeleton, ``chi`` counts no faces and
        ``curvature``, ``gauss-bonnet`` and ``filtrate`` count them up to
        dimension 2, what they read; ``curvature``'s output is written a
        chunk of rows at a time, so no count needs to bound it."""
        return self.args.skeleton is not None or self.args.command == "report"

    @cached_property
    def face_counts(self) -> tuple[int, ...]:
        """Face counts of the order complex, f0 first, from one
        :meth:`Poset.chain_counts` call per run and without listing a
        chain: where :attr:`counts_every_face` holds, every face at the
        requested skeleton (the whole f-vector at the full skeleton, for
        ``report``), and otherwise the faces up to dimension 2 alone, so
        any command may read it. More faces than the chain cap is an
        error, raised at the dimension where the count passes it and
        before any face is built."""
        skeleton = self.args.skeleton
        if skeleton is not None:
            depth = skeleton + 1
        else:
            depth = None if self.counts_every_face else 3
        return self.poset.chain_counts(depth, cap=self.args.chain_cap)

    @cached_property
    def curvature_counts(self) -> tuple[int, ...]:
        """The face counts curvature reads, f0..f2: :attr:`face_counts` cut
        to dimension 2, with the dimension taken from their length, or
        from a longest chain where a count stopped at dimension 2 may have
        left faces above it. A note on stderr says when the complex has
        faces above dimension 2."""
        counts = self.face_counts
        dim = len(counts) - 1
        if dim == 2 and not self.counts_every_face:
            dim = self.poset.chain_dimension()
        if dim > 2:
            print(
                f"note: complex has dimension {dim}; "
                "curvature operates on its 2-skeleton",
                file=sys.stderr,
            )
        return counts[:3]

    @cached_property
    def counted_balance(self) -> CurvatureBalance:
        """The balance alone, from the counts and the up and down sizes:
        what gauss-bonnet prints, with no per-edge work."""
        return poset_gauss_bonnet(self.poset, self.curvature_counts)

    @cached_property
    def degrees(self) -> list[int]:
        """The degree of each element in the complex curvature reads, from
        the up and down sizes: what the vertex terms and the closed form
        of each edge row read."""
        return poset_degrees(self.poset, self.curvature_counts)

    @cached_property
    def filtration(self) -> list[FiltrationStep]:
        """The curvature sublevel filtration, from the poset's bitsets and
        the counts, with no edge row built."""
        return poset_curvature_filtration(self.poset, self.curvature_counts)

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

    def triangles(self, labels: Sequence[str]) -> Iterator[tuple[str, str, str]]:
        """The three labels, from ``labels``, of each triangle of the
        complex curvature reads, in the order :func:`order_complex` lists
        them: the chains x < y < z, walked from the up sets and built as
        one list per element x, as they are read."""
        if len(self.curvature_counts) < 3:
            return iter(())
        above = self.poset._above

        def per_element():
            for x, ups in enumerate(above):
                if not ups:
                    continue
                first = labels[x]
                yield [
                    (first, second, labels[z])
                    for y in ups
                    for second in (labels[y],)
                    for z in above[y]
                ]

        return chain.from_iterable(per_element())

    @cached_property
    def chi(self) -> dict:
        """Euler characteristic by each requested method, with provenance."""
        method = self.args.chi_method
        methods = ["delta", "rank", "geometric"] if method == "all" else [method]
        return {m: self._chi_by(m) for m in methods}

    def _chi_by(self, method: str):
        if method == "delta":
            if not self.counts_every_face:
                return self.poset.chain_euler_characteristic(cap=self.args.chain_cap)
            return sum((-1) ** d * n for d, n in enumerate(self.face_counts))
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
        """The directed-graph reading of the network under the chain cap:
        :meth:`DirectedComplex.from_arcs` of one arc per hyperedge between
        single-node hypervertices (a larger one raises :class:`InputError`),
        its faces counted, not listed; callers check every hyperedge is directed."""
        h = self.loaded.network
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
        return DirectedComplex.from_arcs(labels, arcs, self.args.chain_cap)

    def rank_witness(self) -> dict:
        return {
            "witness": self.poset.element_label(self.rank.element_index),
            "conflicting_ranks": list(self.rank.ranks),
        }


# rows formatted and handed to stdout at a time, so an output holds one
# chunk's text, whatever its size
_CHUNK = 4096


def _chunks(rows: Iterable) -> Iterator[list]:
    """``rows`` in lists of :data:`_CHUNK`, the last one shorter."""
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK)):
        yield chunk


@dataclass(frozen=True)
class _Rows:
    """A JSON array whose items share one shape, written with one ``%``
    template for them all, a chunk of :data:`_CHUNK` rows at a time.

    ``item`` is that shape. A dict, with distinct ``str`` keys in sorted
    order (the order ``sort_keys`` writes), stands for objects; a ``str``
    stands for arrays of any length, each entry of which it writes, or,
    with ``scalar``, for one value that the whole row fills. Each value
    of the dict, and the ``str``, is a ``%`` field giving the JSON text
    of a value: ``"%d"`` for an int, ``'"%s"'`` for a string from its
    escaped body, ``'"%s|%s"'`` for two bodies joined, ``"%s"`` for a JSON
    text, or a constant's text with every ``%`` doubled. A value of the
    dict may also be a tuple of such fields, which writes a nested array
    of that length. Each row is the tuple that fills one item's fields in
    order, a nested array's fields in their place; a row of the wrong
    width is a TypeError. The values are not checked: each must be what
    its field says, since ``%d`` writes a float truncated. The rows may
    be an iterator, read once, as they are written.
    """

    item: dict[str, str | tuple[str, ...]] | str
    rows: Iterable[tuple]
    scalar: bool = False

    def __post_init__(self) -> None:
        item = self.item
        if isinstance(item, str):
            return
        if (
            self.scalar
            or not isinstance(item, dict)
            or not all(isinstance(k, str) for k in item)
        ):
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


def _fill(table: _Rows, indent: str) -> Callable[[list], Iterable[str]]:
    """The item texts of a chunk of ``table``'s rows, at ``indent``: each
    row fills the item's template with one ``%``. An array's template is
    built once per length, when a chunk first holds a row of it."""
    item = table.item
    if table.scalar:
        return partial(map, item.__mod__)
    if isinstance(item, dict):
        return partial(map, _template(item, indent).__mod__)
    fill: dict[int, str] = {}

    def texts(rows: list) -> Iterator[str]:
        lengths = list(map(len, rows))
        for n in set(lengths).difference(fill):
            fill[n] = _template((item,) * n, indent)
        return map(str.__mod__, map(fill.__getitem__, lengths), rows)

    return texts


def _write_table(table: _Rows, indent: str, out: "_Writer") -> None:
    """A row table as the JSON array it stands for, handed to ``out`` a
    chunk of rows at a time."""
    inner = indent + "  "
    sep = ",\n" + inner
    fill = _fill(table, inner)
    lead, empty = "[\n" + inner, True
    for chunk in _chunks(table.rows):
        out.append_rows(lead + sep.join(fill(chunk)), chunk)
        lead, empty = sep, False
    out.append("[]" if empty else "\n" + indent + "]")


def _write_json(value, indent: str, out: "_Writer") -> None:
    """Hand ``value``'s JSON text at ``indent`` to ``out``, dispatched on
    its exact type: a dict walks its sorted ``str`` keys, a list goes
    through :func:`_list_text`, a :class:`_Rows` table through
    :func:`_write_table`, and anything else through :func:`_scalar`."""
    kind, append = type(value), out.append
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
            _write_json(value[key], inner, out)
            sep = ",\n" + inner
        append("\n" + indent + "}")
    elif kind is list:
        append(_list_text(value, indent))
    elif kind is _Rows:
        _write_table(value, indent, out)
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
    The commands write the same text to stdout a chunk at a time, through
    :func:`_emit_json`.
    """
    texts: list[str] = []
    _emit_json(obj, texts.append)
    return "".join(texts)


def _uncarried(ex: UnicodeEncodeError) -> OSError:
    """The I/O failure for text that stdout's encoding cannot carry."""
    bad = ex.object[ex.start : ex.end]
    return OSError(f"standard output's encoding {ex.encoding} cannot carry {bad!a}")


def _write_out(text: str, encoder, final: bool = False) -> None:
    """Write one chunk of an output to stdout, all of it or an OSError.

    A text stream over a binary one drops the short count its buffer's
    ``write`` returns when a pipe's reader closes mid-write, so the rest
    of the output would be lost with no error. Here the text layer is
    flushed, and the encoded bytes go to the buffer until every byte is
    out; a closed reader then raises BrokenPipeError. ``encoder`` is the
    output's one incremental encoder for stdout's encoding, so its chunks
    give the bytes one encode of the whole text would, for an encoding
    with state (UTF-16's byte order mark) too; ``final`` ends the output.
    A chunk is encoded before any of it is written, so text the encoding
    cannot carry is an OSError with nothing of that chunk written; the
    commands that print labels in later chunks check them first, with
    :func:`_check_labels`. With ``encoder`` None, stdout has no binary
    buffer under it (``io.StringIO``) and takes the text as it is.
    """
    out = sys.stdout
    if encoder is None:
        out.write(text)
        return
    out.flush()
    try:
        data = memoryview(encoder.encode(text, final))
    except UnicodeEncodeError as ex:
        raise _uncarried(ex) from None
    buffer = out.buffer
    while data:
        # a non-blocking raw stream returns None for "nothing written yet"
        data = data[buffer.write(data) or 0:]


class _Writer:
    """One output, handed on a chunk at a time.

    :meth:`append` collects its text, and :meth:`flush` joins what was
    collected and hands it to ``sink``, or by default writes it to stdout
    through :func:`_write_out` with one encoder for the whole output. The
    text of a chunk of rows goes through :meth:`append_rows`, which hands
    it on when the chunk is full, so the output's size does not set what
    it holds; a short chunk goes out with the text that follows it, and
    :meth:`close` writes the rest."""

    def __init__(self, sink: Callable[[str], None] | None = None):
        self._pieces: list[str] = []
        self.append = self._pieces.append
        self._sink = sink
        self._encoder = None
        out = sys.stdout
        if sink is None and getattr(out, "buffer", None) is not None:
            self._encoder = codecs.getincrementalencoder(out.encoding)(out.errors)

    def flush(self, final: bool = False) -> None:
        text = "".join(self._pieces)
        self._pieces.clear()
        if self._sink is not None:
            self._sink(text)
        elif text or final:
            _write_out(text, self._encoder, final)

    def append_rows(self, text: str, rows: list) -> None:
        """Collect the text of ``rows``, a chunk from :func:`_chunks`."""
        self.append(text)
        if len(rows) == _CHUNK:
            self.flush()

    def close(self) -> None:
        self.flush(final=True)


def _check_labels(labels: Sequence[str], printed: Iterable[int]) -> None:
    """Before the first byte, raise the OSError that :func:`_write_out`
    would raise for the first label, in ``printed`` order (indices of
    ``labels``, as the output prints them), that stdout's encoding cannot
    carry. The output's other text is ASCII, and each label starts and
    ends with a brace, so that label holds the first text the encoding
    cannot carry, and the error names the same characters; a run that
    fails on it then writes nothing. The labels are encoded in one piece,
    and walked in order only when that fails."""
    out = sys.stdout
    if getattr(out, "buffer", None) is None:
        return
    try:
        "".join(labels).encode(out.encoding, out.errors)
        return
    except UnicodeEncodeError:
        pass
    for i in printed:
        try:
            labels[i].encode(out.encoding, out.errors)
        except UnicodeEncodeError as ex:
            raise _uncarried(ex) from None


def _emit_json(obj, sink: Callable[[str], None] | None = None) -> None:
    """Write ``obj`` as :func:`_json_text` writes it, a chunk of each row
    table at a time, to stdout or to ``sink``."""
    out = _Writer(sink)
    _write_json(obj, "", out)
    out.append("\n")
    out.close()


def _csv_text(rows: list[tuple]) -> str:
    """``rows`` as the ``csv`` module writes them."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def emit(args, human, json_obj, csv_table) -> None:
    """Write the report in the ``--output`` format. Each payload is a
    zero-argument callable and only the chosen one is called: ``human``
    gives the lines, ``json_obj`` the object, ``csv_table`` the header
    and the rows. The lines and the rows may be iterators, read once:
    they are joined and written a chunk of :data:`_CHUNK` at a time, as
    the object's :class:`_Rows` tables are."""
    if args.output == "json":
        _emit_json(json_obj())
        return
    out = _Writer()
    if args.output == "csv":
        header, rows = csv_table()
        out.append(_csv_text([header]))
        for chunk in _chunks(rows):
            out.append_rows(_csv_text(chunk), chunk)
    else:
        # "\n".join of all the lines, a newline after them
        lead = ""
        for chunk in _chunks(human()):
            out.append_rows(lead + "\n".join(chunk), chunk)
            lead = "\n"
        out.append("\n")
    out.close()


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


def curvature_lines(
    a: Analysis, degrees: Sequence[int], edges: Iterable[list[EdgeRow]]
) -> Iterator[str]:
    """The human curvature report's lines: one per edge of ``edges``
    (lists of :data:`EdgeRow`), per vertex, from its degree in
    ``degrees``, and per triangle of :meth:`Analysis.triangles`, formatted
    a list at a time as they are read."""
    labels = a.labels
    edge_lines = (
        [
            f"edge {labels[x]}|{labels[y]}: triangles={t} parallel={p} ric={r} "
            f"closed={c} {'ok' if r == c else 'MISMATCH'}"
            for x, y, t, p, r, c in rows
        ]
        for rows in edges
    )
    vertex_lines = (
        [f"vertex {label}: {_half_decimal(_twice_vertex_term(d))}" for label, d in rows]
        for rows in _chunks(zip(labels, degrees))
    )
    term = f": {TRIANGLE_TERM}"
    triangle_lines = (
        [f"triangle {x}|{y}|{z}{term}" for x, y, z in rows]
        for rows in _chunks(a.triangles(labels))
    )
    return chain.from_iterable(chain(edge_lines, vertex_lines, triangle_lines))


def curvature_csv(a: Analysis, edges: Iterable[list[EdgeRow]]) -> tuple:
    """The curvature CSV's header and its row per edge of ``edges``, the
    rows built a list at a time as they are read."""
    labels = a.labels
    rows = (
        [(f"{labels[x]}|{labels[y]}", t, p, r) for x, y, t, p, r, _ in rows]
        for rows in edges
    )
    return ("edge", "triangles", "parallel", "ric"), chain.from_iterable(rows)


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


def curvature_obj(
    a: Analysis, degrees: Sequence[int], edges: Iterable[list[EdgeRow]]
) -> dict:
    """The curvature section as JSON: the edge, vertex and triangle arrays,
    each a :class:`_Rows` table filled from ``edges`` (lists of
    :data:`EdgeRow`), ``degrees`` and the triangle walk with the escaped
    labels as it is written, with no per-row dict and no label joined
    before the template joins it."""
    q = a.quoted_labels
    return {
        "edges": _Rows(
            _EDGE,
            chain.from_iterable(
                [(q[x], q[y], _MATCH[r == c], p, r, c, t) for x, y, t, p, r, c in rows]
                for rows in edges
            ),
        ),
        "vertices": _Rows(
            _VERTEX,
            [
                (_scalar(_half_exact(_twice_vertex_term(d))), label)
                for label, d in zip(q, degrees)
            ],
        ),
        "triangles": _Rows(_TRIANGLE, a.triangles(q)),
    }


def poset_obj(p: Poset) -> dict:
    """The poset as JSON: each element as its sorted node names, every
    name escaped once, and the cover pairs ``[q, p]``, p covering q, in
    index order; each a :class:`_Rows` table over an iterator, so the
    pairs are built a chunk at a time as they are written."""
    names = {x: _quote(x)[1:-1] for x in set(chain.from_iterable(p.elements))}
    members = map(map, repeat(names.__getitem__), p._members)
    children = p._children
    # each q once per element covering it, beside those elements
    covered = chain.from_iterable(map(repeat, range(len(children)), map(len, children)))
    return {
        "elements": _Rows('"%s"', map(tuple, members)),
        "covers": _Rows("%d", zip(covered, chain.from_iterable(children))),
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
    object walks the chosen triangles, a :class:`_Rows` table of their
    escaped labels, written as they are walked."""
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
        quoted = [_quote(x)[1:-1] for x in labels]
        return {
            "degree_mode": degree,
            "triangle_mode": mode,
            "degrees": dict(zip(labels, degs)),
            "chosen_triangles": _Rows(
                '"%s|%s|%s"', dc.directed_triangles(mode, quoted), scalar=True
            ),
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
    """Every stage runs, and the labels are checked against stdout's
    encoding, before the first byte. The edge rows are then built as
    they are written, each read once, so no table is held."""
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

    p, counts, degrees = a.poset, a.curvature_counts, a.degrees
    edges = poset_edge_rows(p, counts, degrees)
    if args.output != "json":
        # the label of each edge's ends, edge by edge; then each vertex's
        printed = ()
        if len(counts) > 1:
            printed = chain.from_iterable(
                (x, *ups) for x, ups in enumerate(p._above) if ups
            )
        if args.output == "human":
            printed = chain(printed, range(len(p)))
        _check_labels(a.labels, printed)
    emit(
        args,
        lambda: curvature_lines(a, degrees, edges),
        lambda: curvature_obj(a, degrees, edges),
        lambda: curvature_csv(a, edges),
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
    rows = [(k, v) for k, v in obj.items() if k != "triangle_term"]
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
    """Every stage, the balance included, runs before the first byte; the
    row tables are then written a chunk at a time, the edge rows built
    as they are written, as ``curvature`` writes them. The balance is read
    from the filtration, so the bitsets the rows read are those its edge
    sum was taken from."""
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
    counts, degrees = a.curvature_counts, a.degrees
    report = filtration_balance(degrees, counts, a.filtration)
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
            "f_vector": list(a.face_counts),
            "dim": len(a.face_counts) - 1,
            "truncated_for_curvature": len(a.face_counts) > 3,
        },
        "curvature": {
            **curvature_obj(a, degrees, poset_edge_rows(a.poset, counts, degrees)),
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
    _emit_json(obj)
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
            help="cap on the faces of the order complex the command reads, "
            "counted before any face is built: every face at the requested "
            "skeleton, but at the full skeleton only the vertices and edges "
            "for chi and the faces up to dimension 2 for curvature, "
            "gauss-bonnet and filtrate; on the faces of the --directed "
            "complex, counted before any triangle is listed; and on the "
            "intersections geometric chi visits (default: %(default)s)",
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
