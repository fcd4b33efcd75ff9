#!/usr/bin/env python3
"""Randomized audit: draw random hypernetworks and verify, for each one,
that its poset's per-element store holds, in ascending rows, the
transitive reduction of inclusion as covers and every strict inclusion
as up sets, both found by testing every pair, that the counted chains
of the poset match the f-vector of its order complex (whose faces are
counted against the cap first, then listed by ``Poset.chains`` into
one bucket per size) and give the Euler characteristic of the one-pass
Moebius recursion (``Poset.chain_euler_characteristic``) and the
dimension of a longest chain (``Poset.chain_dimension``), that its
buckets are sorted and distinct and, on a poset of at most 12
elements, hold exactly the chains found by testing every subset, that it and its 2-skeleton (a slice of its
buckets) each equal what ``SimplicialComplex.from_faces`` rebuilds from
their faces (an unsorted bucket or face, a repeated face, a missing
subface, an empty top bucket or vertices that do not match the labels
would each make the rebuild differ), that the curvature balance
closes exactly, that at skeleton 0, 1 and 2 the balance read from the poset's counts (``poset_gauss_bonnet``,
as ``gauss-bonnet`` prints it) equals the one taken on that skeleton of
the order complex, and so do the per-edge table, the balance and the
filtration counted from comparability bitsets (``poset_curvature_table``
and ``poset_curvature_filtration``, as ``curvature``, ``filtrate`` and
``report`` print them), row for row against ``gauss_bonnet``, the
closed form and ``curvature_filtration`` on that skeleton, and that on
every edge of the order complex's
2-skeleton the balance's curvature (filled in one walk of the edge
index) equals the per-edge definitional route ``forman_ricci``, the
closed form and a brute count from the edges and triangles alone. It
also checks that the network's geometric chi (the signed intersection
walk on node bitmasks, over the facets it reads from the draw's
inclusion poset, with or without singletons) equals a count of every
face of the simplex view, that those facets are the spanning sets no
other one strictly contains, and that ``report`` on the
network, run through the CLI, exits 0 with the bytes
``json.dumps(..., indent=2, sort_keys=True)`` writes for the object it
parses to, so the CLI's JSON writer and its row tables are held to the
standard library on every draw. On every draw it also builds
``DirectedComplex.from_arcs`` over a random arc set on the network's
nodes and checks that its out- and in-neighbour bitsets are, bit for
bit, those the arcs set, that its in- and out-degrees are those the
arcs give, that its walked triangles are, per mode, the transitive or
cyclic 3-cliques of the arcs, and that its
transitive and cyclic counts, its count form and its Fraction formula
under both degree modes equal brute counts; then it runs ``report
--directed`` with random ``--degree`` and ``--triangles`` through the
CLI on the directed network of those arcs (one single-node hypervertex
per node, one directed hyperedge per arc) and holds it to
``json.dumps`` in the same way. The brute-force oracles (every pair,
every subset, the edge and face counts and the directed counts)
are those of ``tests/helpers.py``, which the tests pin their expected
values with. The first failure is printed with its network and the
script exits 1."""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, combinations
from pathlib import Path

from hyperforman import (
    DirectedComplex,
    Hypernetwork,
    Hypervertex,
    SimplicialComplex,
    curvature_filtration,
    forman_ricci,
    forman_ricci_closed,
    gauss_bonnet,
    geometric_euler_characteristic,
    order_complex,
    poset_curvature_filtration,
    poset_curvature_table,
    poset_from_hypernetwork,
    poset_gauss_bonnet,
    random_hypernetwork,
    serialize,
)
from hyperforman.cli import main as cli_main
from hyperforman.hypernet import _edge, _facets

# the oracles live with the tests, in the sibling tests/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import (  # noqa: E402
    brute_chains,
    brute_covers,
    brute_directed_formula,
    brute_directed_triangles,
    brute_geometric_chi,
    brute_geometric_facets,
    brute_less,
    brute_neighbour_bits,
    brute_ricci,
)

# the most elements a poset may have for its chains to be checked
# against every subset of its elements
BRUTE_CHAIN_ELEMENTS = 12


def fail(message: str, h) -> int:
    """Report a failed check with the network that broke it; exit status 1."""
    print(f"{message}\n{serialize(h, 'json')}", file=sys.stderr)
    return 1


def store_pairs(table) -> set[tuple[int, int]] | None:
    """The pairs (q, r) of a per-element table with r in row q, or None
    if some row is not strictly ascending."""
    if any(list(row) != sorted(set(row)) for row in table):
        return None
    return {(q, r) for q, row in enumerate(table) for r in row}


def complex_rows(k, ricci) -> list[tuple[int, ...]]:
    """The rows ``poset_curvature_table`` gives, from the complex: per
    edge its vertices, triangles, parallels, curvature and closed form."""
    rows = []
    for e in k.edges:
        t, ric = len(k.triangles_containing(e)), ricci[e]
        rows.append((*e, t, t + 2 - ric, ric, forman_ricci_closed(k, e)))
    return rows


def balance_numbers(rep) -> tuple:
    return (rep.vertex_sum, rep.ricci_sum, rep.triangle_sum, rep.chi, rep.residual)


def facet_mismatch(h, p) -> str | None:
    """Say how the facets geometric chi reads from h's poset p differ
    from the spanning sets no other one strictly contains, or None if
    they are the same sets."""
    labels = sorted(h.nodes)
    facets = {
        frozenset(n for i, n in enumerate(labels) if m >> i & 1) for m in _facets(h, p)
    }
    expected = brute_geometric_facets(h)
    if facets == expected:
        return None
    return (
        f"facets {sorted(map(sorted, facets))} read from the poset but the "
        f"generators no generator strictly contains are "
        f"{sorted(map(sorted, expected))}"
    )


def random_arcs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """One arc of random direction on each pair of the n vertices, kept
    with a density drawn per call; density 1 gives a tournament."""
    density = rng.choice([0.3, 0.6, 1.0])
    return [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in combinations(range(n), 2)
        if rng.random() < density
    ]


def directed_fault(labels: list[str], arcs: list[tuple[int, int]]) -> str | None:
    """Say how ``DirectedComplex.from_arcs`` over the arcs differs from
    them, or None: its out- and in-neighbour bitsets and its in- and
    out-degrees against the arcs, then, with the bitsets so checked, its
    walked triangles, counts and formula against the brute oracles'
    clique split and Fraction sum."""
    dc = DirectedComplex.from_arcs(labels, arcs)
    n = len(labels)
    bits = brute_neighbour_bits(n, arcs)
    if (dc._out, dc._in) != bits:
        return f"out and in bitsets {(dc._out, dc._in)} but the arcs give {bits}"
    for end, degree_mode in ((1, "in"), (0, "out")):
        counted = [sum(a[end] == v for a in arcs) for v in range(n)]
        if dc.io_degrees(degree_mode) != counted:
            return (
                f"{degree_mode}-degrees {dc.io_degrees(degree_mode)} but the "
                f"arcs give {counted}"
            )
    for mode in ("transitive", "cyclic"):
        chosen = brute_directed_triangles(n, arcs, mode)
        expected = [tuple(labels[v] for v in t) for t in chosen]
        got = list(dc.directed_triangles(mode))
        if got != expected:
            return f"{mode} triangles walked {got} but the arcs give {expected}"
        for degree_mode in ("in", "out"):
            counts = (
                dc.triangle_count(mode),
                dc.directed_euler_count(mode),
                dc.directed_euler_formula(degree_mode, mode),
            )
            expected_counts = (
                len(chosen),
                n - len(arcs) + len(chosen),
                brute_directed_formula(n, arcs, degree_mode, mode),
            )
            if counts != expected_counts:
                return (
                    f"{degree_mode}/{mode}: count, chi count and formula "
                    f"{counts} but the arcs give {expected_counts}"
                )
    return None


def directed_network(labels: list[str], arcs: list[tuple[int, int]]) -> Hypernetwork:
    """The directed network of the arcs: one single-node hypervertex per
    label and one directed hyperedge per arc."""
    hvs = tuple(Hypervertex(f"H{i}", frozenset({x})) for i, x in enumerate(labels))
    edges = tuple(
        _edge(f"A{k}", f"H{t}", f"H{h}", directed=True) for k, (t, h) in enumerate(arcs)
    )
    return Hypernetwork(frozenset(labels), hvs, edges, directed=True)


def report_fault(h, flags: list[str]) -> str | None:
    """Run ``report`` on h with ``flags`` through the CLI; say what is
    wrong if it does not exit 0 with the bytes ``json.dumps(obj,
    indent=2, sort_keys=True)`` writes for the object ``obj`` it parses
    to."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.json"
        path.write_text(serialize(h, "json"), encoding="utf-8")
        argv = ["report", str(path), *flags]
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli_main(argv)
    text = out.getvalue()
    if rc != 0:
        return f"report {' '.join(flags)} exits {rc}"
    try:
        canonical = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    except ValueError as ex:
        return f"report is not JSON ({ex}):\n{text}"
    if text != canonical:
        return f"report is not what json.dumps writes for it:\n{text}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-nodes", type=int, default=12)
    ap.add_argument("--max-hypervertices", type=int, default=6)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    # a stream of its own, so the networks drawn do not depend on the arcs
    arc_rng = random.Random(f"arcs-{args.seed}")
    t0 = time.perf_counter()
    edges_checked = 0
    for i in range(args.count):
        h = random_hypernetwork(
            rng,
            max_nodes=args.max_nodes,
            max_hypervertices=args.max_hypervertices,
        )
        include_singletons = i % 4 != 3
        p = poset_from_hypernetwork(h, include_singletons=include_singletons)
        geometric, faces = geometric_euler_characteristic(h, p), brute_geometric_chi(h)
        if geometric != faces:
            return fail(
                f"network {i}: geometric chi {geometric} but the face count "
                f"gives {faces}",
                h,
            )
        mismatch = facet_mismatch(h, p)
        if mismatch is not None:
            return fail(f"network {i}: {mismatch}", h)
        for name, table, expected in (
            ("covers", p._children, brute_covers(p.elements)),
            ("up sets", p._above, brute_less(p.elements)),
        ):
            if store_pairs(table) != expected:
                return fail(
                    f"network {i}: stored {name} {table} but testing every "
                    f"pair gives {sorted(expected)}",
                    h,
                )
        full, counts = order_complex(p), p.chain_counts()
        if counts != full.f_vector():
            return fail(
                f"network {i}: counted f-vector {counts} but built "
                f"{full.f_vector()}",
                h,
            )
        signed = sum((-1) ** d * n for d, n in enumerate(counts))
        if p.chain_euler_characteristic() != signed:
            return fail(
                f"network {i}: Moebius chi {p.chain_euler_characteristic()} but "
                f"the counted f-vector {counts} gives {signed}",
                h,
            )
        if p.chain_dimension() != len(counts) - 1:
            return fail(
                f"network {i}: longest-chain dimension {p.chain_dimension()} "
                f"but the counted f-vector {counts} has {len(counts) - 1}",
                h,
            )
        if any(list(b) != sorted(set(b)) for b in full.faces_by_dim):
            return fail(
                f"network {i}: order complex buckets {full.faces_by_dim} are "
                f"not sorted and distinct",
                h,
            )
        # every subset of a small poset can be tested for being a chain
        if len(p) <= BRUTE_CHAIN_ELEMENTS:
            faces = set(chain.from_iterable(full.faces_by_dim))
            brute = brute_chains(p.elements)
            if faces != brute:
                return fail(
                    f"network {i}: order complex faces {sorted(faces)} but "
                    f"testing every subset gives {sorted(brute)}",
                    h,
                )
        k = full.skeleton(2)
        for name, cx in (("order complex", full), ("2-skeleton", k)):
            try:
                rebuilt = SimplicialComplex.from_faces(
                    cx.labels, chain.from_iterable(cx.faces_by_dim)
                )
            except ValueError as ex:
                return fail(f"network {i}: its {name} has a malformed face: {ex}", h)
            if rebuilt != cx:
                return fail(
                    f"network {i}: its {name} differs from the rebuild "
                    f"{rebuilt.faces_by_dim} from_faces makes of its faces",
                    h,
                )
        report = gauss_bonnet(k)
        if report.residual != 0:
            return fail(f"network {i}: residual {report.residual}", h)
        for skeleton in (0, 1, 2):
            cut = full.skeleton(skeleton)
            cut_report = gauss_bonnet(cut)
            on_complex = balance_numbers(cut_report)
            f = p.chain_counts(skeleton + 1)
            counted = balance_numbers(poset_gauss_bonnet(p, f))
            if counted != on_complex:
                return fail(
                    f"network {i}, skeleton {skeleton}: balance from counts "
                    f"{counted} but on the complex {on_complex}",
                    h,
                )
            table = poset_curvature_table(p, f)
            if balance_numbers(table) != on_complex:
                return fail(
                    f"network {i}, skeleton {skeleton}: balance of the counted "
                    f"table {balance_numbers(table)} but on the complex "
                    f"{on_complex}",
                    h,
                )
            rows = complex_rows(cut, cut_report.ricci)
            if (table.edges, table.degrees) != (rows, list(cut._degrees)):
                return fail(
                    f"network {i}, skeleton {skeleton}: counted table "
                    f"{table.edges} with degrees {table.degrees} but the "
                    f"complex gives {rows} with degrees {list(cut._degrees)}",
                    h,
                )
            steps = poset_curvature_filtration(table)
            expected = curvature_filtration(cut, cut_report.ricci)
            if steps != expected:
                return fail(
                    f"network {i}, skeleton {skeleton}: counted filtration "
                    f"{steps} but on the complex {expected}",
                    h,
                )
        for e in k.edges:
            ric, per_edge = report.ricci[e], forman_ricci(k, e)
            closed, brute = forman_ricci_closed(k, e), brute_ricci(k, e)
            if not ric == per_edge == closed == brute:
                return fail(
                    f"network {i}, edge {k.face_label(e)}: balance curvature "
                    f"{ric}, per-edge definitional {per_edge}, closed form "
                    f"{closed}, brute count {brute}",
                    h,
                )
            edges_checked += 1
        fault = report_fault(h, [] if include_singletons else ["--no-singletons"])
        if fault is not None:
            return fail(f"network {i}: {fault}", h)
        labels = sorted(h.nodes)
        arcs = random_arcs(arc_rng, len(labels))
        directed = directed_network(labels, arcs)
        fault = directed_fault(labels, arcs)
        if fault is None:
            flags = ["--directed", "--degree", arc_rng.choice(["in", "out"])]
            flags += ["--triangles", arc_rng.choice(["transitive", "cyclic"])]
            fault = report_fault(directed, flags)
        if fault is not None:
            return fail(f"network {i}, directed: {fault}", directed)
    dt = time.perf_counter() - t0
    print(
        f"{args.count} random hypernetworks, {edges_checked} edges: "
        f"each poset's stored covers and up sets match testing every pair, "
        f"chain counts match, the Moebius chi and the longest-chain dimension "
        f"match the chain counts, the order complexes' buckets are sorted and "
        f"distinct and hold every subset's chains up to {BRUTE_CHAIN_ELEMENTS} "
        f"elements, they and their 2-skeletons equal from_faces' rebuilds, all "
        f"balances exact and equal to those from counts at skeleton 0, 1 and 2, "
        f"the balance's curvature table, the per-edge definitional route and "
        f"the closed form agree with the brute count, the counted tables and "
        f"filtrations equal the complex route at skeleton 0, 1 and 2, geometric chi "
        f"matches the face count, the facets it reads from the poset are the "
        f"generators no generator strictly contains, "
        f"each report's JSON is what json.dumps writes, and so is each "
        f"directed report's, whose complex's neighbour bitsets and degrees are "
        f"its random arcs' and whose triangles, counts and formula match brute "
        f"counts; every brute count is a tests/helpers.py oracle ({dt:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
