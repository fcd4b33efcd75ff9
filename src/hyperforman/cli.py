"""Command line front end.

Subcommands: validate, chi, curvature, gauss-bonnet, filtrate, report.
Inputs are hypernetwork files (JSON or text) or poset JSON files (an
object with an ``elements`` key); the pipeline is input -> inclusion
poset -> face counts of its order complex -> 2-skeleton -> curvature,
except that gauss-bonnet reads its balance from the face counts and the
poset's up and down sizes and builds no complex.
Each run builds one :class:`Analysis` that holds the loaded input and
the flags and computes every stage lazily, at most once; the
subcommands only format what it holds. Exit codes: 0 success, 2 invalid
input or configuration, 3 I/O failure, 4 chain cap exceeded, 5 broken
curvature/Euler balance.

All output is deterministic: identical input and configuration produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import hypernet
from .complexes import SimplicialComplex, order_complex
from .curvature import (
    TRIANGLE_TERM,
    CurvatureBalance,
    CurvatureReport,
    DirectedComplex,
    DirectedConfig,
    DirectionError,
    FiltrationStep,
    _edge_term,
    _twice_vertex_term,
    curvature_filtration,
    forman_ricci_closed,  # noqa: F401  not called here; perfbench/tracing.py patches it
    gauss_bonnet,
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
        try:
            pairs = [(q, r) for q, r in obj["covers"]]
        except (TypeError, ValueError) as ex:
            raise InputError(f"malformed 'covers' array: {ex}") from ex
        for i in (i for pair in pairs for i in pair):
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
    def skeleton(self) -> SimplicialComplex:
        """The complex curvature operates on: the order complex built up
        to the dimension its counts reach, 2 at most."""
        return order_complex(
            self.poset,
            skeleton_dim=max(len(self.curvature_counts) - 1, 0),
            chain_cap=self.args.chain_cap,
        )

    @cached_property
    def balance(self) -> CurvatureReport:
        return gauss_bonnet(self.skeleton)

    @cached_property
    def counted_balance(self) -> CurvatureBalance:
        """The balance of :attr:`balance`, from the counts and the poset
        alone: no chain is listed and no complex is built."""
        return poset_gauss_bonnet(self.poset, self.curvature_counts)

    @cached_property
    def edge_rows(self) -> list[tuple[str, int, int, int, int]]:
        """(label, triangles, parallel, ric, closed form) per edge.

        One walk of the edge -> triangles index, next to the balance's
        curvature, which was filled from the same index in the same
        order. ``ric`` is the definitional value, so the parallel count
        is T + 2 - ric; the closed form is evaluated from the degrees on
        its own and stays an independent check.
        """
        k2 = self.skeleton
        labels, degrees = k2.labels, k2._degrees
        rows = []
        for ((u, v), triangles), ric in zip(
            k2._edge_triangles.items(), self.balance.ricci.values(), strict=True
        ):
            t = len(triangles)
            closed = _edge_term(t, degrees[u], degrees[v])
            rows.append((labels[u] + "|" + labels[v], t, t + 2 - ric, ric, closed))
        return rows

    @cached_property
    def filtration(self) -> list[FiltrationStep]:
        return curvature_filtration(self.skeleton, self.balance.ricci)

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
            return sum((-1) ** j * c for j, c in enumerate(self.rank.level_counts()))
        if self.loaded.kind == "poset":
            return None
        # called through the module, where perfbench/tracing.py patches it
        return hypernet.geometric_euler_characteristic(
            self.loaded.network, cap=self.args.chain_cap
        )

    def rank_witness(self) -> dict:
        return {
            "witness": self.poset.element_label(self.rank.element_index),
            "conflicting_ranks": list(self.rank.ranks),
        }


def directed_graph_complex(h: Hypernetwork) -> DirectedComplex:
    """Directed-graph reading of a hypernetwork: single-node hypervertices
    joined by directed hyperedges, with every 3-clique a triangle face.
    The caller has already checked that every hyperedge is directed."""
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
    return DirectedComplex.from_arcs(labels, arcs)


def _json_text(obj) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it,
    plus a newline, byte for byte.

    CPython runs its C encoder only when ``indent`` is None, so the stdlib
    pretty-prints in pure Python; this writer is shorter work for the same
    bytes. It takes what the reports hold: dicts with ``str`` keys, lists,
    tuples, strings, ints, booleans and None. Anything else, floats
    included, is a TypeError.
    """
    chunks: list[str] = []
    append = chunks.append

    def write(value, indent: str) -> None:
        if isinstance(value, str):
            append(_quote(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = indent + "  "
            sep = "{\n" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, not {key!r}")
                append(sep + _quote(key) + ": ")
                write(value[key], inner)
                sep = ",\n" + inner
            append("\n" + indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = indent + "  "
            sep = "[\n" + inner
            for item in value:
                append(sep)
                write(item, inner)
                sep = ",\n" + inner
            append("\n" + indent + "]")
        else:
            raise TypeError(f"cannot write {type(value).__name__} as JSON")

    write(obj, "")
    append("\n")
    return "".join(chunks)


def emit(args, human, json_obj, csv_table) -> None:
    """Write the report in the ``--output`` format. Each payload is a
    zero-argument callable and only the chosen one is called: ``human``
    gives the lines, ``json_obj`` the object, ``csv_table`` the header
    and the rows."""
    if args.output == "json":
        sys.stdout.write(_json_text(json_obj()))
    elif args.output == "csv":
        header, rows = csv_table()
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.write("\n".join(human()) + "\n")


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


def _face_text(labels: tuple[str, ...], f) -> str:
    """The label of a stored face, whose vertices are already increasing."""
    return "|".join(map(labels.__getitem__, f))


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


def curvature_lines(a: Analysis) -> list[str]:
    k2 = a.skeleton
    labels = k2.labels
    lines = [
        f"edge {label}: triangles={t} parallel={p} ric={r} closed={c} "
        + ("ok" if r == c else "MISMATCH")
        for label, t, p, r, c in a.edge_rows
    ]
    lines += [
        f"vertex {label}: {_half_decimal(_twice_vertex_term(d))}"
        for label, d in zip(labels, k2._degrees)
    ]
    lines += [
        f"triangle {_face_text(labels, t)}: {TRIANGLE_TERM}" for t in k2.triangles
    ]
    return lines


def curvature_obj(a: Analysis) -> dict:
    k2 = a.skeleton
    labels = k2.labels
    return {
        "edges": [
            {
                "edge": label,
                "triangles": t,
                "parallel": p,
                "ric": r,
                "ric_closed": c,
                "match": r == c,
            }
            for label, t, p, r, c in a.edge_rows
        ],
        "vertices": [
            {"vertex": label, "term": _half_exact(_twice_vertex_term(d))}
            for label, d in zip(labels, k2._degrees)
        ],
        "triangles": [
            {"triangle": _face_text(labels, t), "term": TRIANGLE_TERM}
            for t in k2.triangles
        ],
    }


def filtration_obj(a: Analysis) -> list[dict]:
    return [
        {"threshold": s.threshold, "f_vector": list(s.f_vector), "chi": s.chi}
        for s in a.filtration
    ]


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
    human = [f"chi[{m}] = {chi_display(a, v)}" for m, v in a.chi.items()]
    rows = []
    for m, v in a.chi.items():
        if v is None:
            rows.append((m, "n/a"))
        elif isinstance(v, dict):
            rows.append((m, "not-ranked"))
        else:
            rows.append((m, v))
    header = ("method", "value")
    emit(a.args, lambda: human, lambda: {"chi": a.chi}, lambda: (header, rows))
    return EXIT_OK


def _directed_section(h: Hypernetwork, cfg: DirectedConfig) -> tuple[list, dict, list]:
    dc = directed_graph_complex(h)
    degs = dc.io_degrees(cfg.degree_mode)
    chosen = dc.directed_triangles(cfg.triangle_mode)
    formula = dc.directed_euler_formula(cfg)
    count = dc.directed_euler_count(cfg)
    labels = dc.complex.labels
    human = [
        f"{cfg.degree_mode}-degree {labels[v]} = {degs[v]}"
        for v in range(len(labels))
    ]
    human.append(f"triangles[{cfg.triangle_mode}] = {len(chosen)}")
    human.append(f"chi_directed[formula] = {_decimal(formula)}")
    human.append(f"chi_directed[count] = {count}")
    obj = {
        "degree_mode": cfg.degree_mode,
        "triangle_mode": cfg.triangle_mode,
        "degrees": {labels[v]: degs[v] for v in range(len(labels))},
        "chosen_triangles": [_face_text(labels, t) for t in chosen],
        "chi_formula": _exact(formula),
        "chi_count": count,
    }
    rows = [("degree", labels[v], degs[v]) for v in range(len(labels))]
    rows.append(("triangles", cfg.triangle_mode, len(chosen)))
    rows.append(("chi_formula", "", str(formula)))
    rows.append(("chi_count", "", count))
    return human, obj, rows


def _directed_config(args) -> DirectedConfig:
    return DirectedConfig(
        degree_mode=args.degree or "out",
        triangle_mode=args.triangles or "transitive",
    )


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
        human, obj, rows = _directed_section(a.loaded.network, _directed_config(args))
        emit(
            args,
            lambda: human,
            lambda: {"directed": obj},
            lambda: (("metric", "key", "value"), rows),
        )
        return EXIT_OK

    emit(
        args,
        lambda: curvature_lines(a),
        lambda: curvature_obj(a),
        lambda: (
            ("edge", "triangles", "parallel", "ric"),
            [row[:4] for row in a.edge_rows],
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
    human = [
        f"threshold {t}: f=({f0},{f1},{f2}) chi={chi}" for t, f0, f1, f2, chi in rows
    ]
    if not rows:
        human = ["empty complex: no filtration steps"]
    obj = {"filtration": filtration_obj(a)}
    header = ("threshold", "f0", "f1", "f2", "chi")
    emit(a.args, lambda: human, lambda: obj, lambda: (header, rows))
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
    report = a.balance
    obj = {
        "input": {**input_summary(a.loaded), "format": a.loaded.fmt},
        "config": {
            "singletons": not args.no_singletons,
            "skeleton": "full" if args.skeleton is None else args.skeleton,
            "chain_cap": args.chain_cap,
        },
        "poset": a.poset.to_json_obj(),
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
        _, obj["directed"], _ = _directed_section(
            a.loaded.network, _directed_config(args)
        )
    sys.stdout.write(_json_text(obj))
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
            "skeleton, counted before any face is built, and on the "
            "intersections geometric chi visits (default: %(default)s)",
        )


def _add_directed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--directed",
        action="store_true",
        help="directed analysis (requires a directed input)",
    )
    p.add_argument("--degree", choices=["in", "out"], default=None)
    p.add_argument("--triangles", choices=["transitive", "cyclic"], default=None)


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
    p.add_argument(
        "--chi-method",
        choices=["delta", "rank", "geometric", "all"],
        default="all",
    )
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
    p.add_argument(
        "--chi-method",
        choices=["delta", "rank", "geometric", "all"],
        default="all",
    )
    _add_directed(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(Analysis(args))
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
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
