#!/usr/bin/env python3
"""Randomized audit: draw random hypernetworks and verify, for each one,
that its poset's per-element store holds, in ascending rows, the
transitive reduction of inclusion as covers and every strict inclusion
as up sets, both found by testing every pair, that the counted chains
of the poset match the f-vector of its order complex, that the order
complex (built level by level, without checks) holds, bucket by
bucket and in order, the chains
that ``Poset.chains`` lists, that it and its 2-skeleton (a slice of its
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
closed form and a brute count made here from the edges and triangles
alone. It also
checks that the network's geometric chi (the signed intersection walk
on node bitmasks) equals a count made here of every face of the simplex
view, that the facets that walk covers the view with are the maximal
elements of the network's inclusion poset, and that ``report`` on the
network, run through the CLI, exits 0 with the bytes
``json.dumps(..., indent=2, sort_keys=True)`` writes for the object it
parses to, so the CLI's JSON writer and its row tables are held to the
standard library on every draw. The first failure is
printed with its network and the script exits 1."""

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
from hyperforman.hypernet import _facets


def fail(message: str, h) -> int:
    """Report a failed check with the network that broke it; exit status 1."""
    print(f"{message}\n{serialize(h, 'json')}", file=sys.stderr)
    return 1


def brute_order(elements) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Strict inclusion as index pairs (i, j), elements i inside j, and
    its transitive reduction: the pairs with no element strictly between
    them."""
    below = [{i for i, a in enumerate(elements) if a < b} for b in elements]
    less = {(i, j) for j, under in enumerate(below) for i in under}
    covers = {(i, j) for i, j in less if not any(i in below[k] for k in below[j])}
    return less, covers


def store_pairs(table) -> set[tuple[int, int]] | None:
    """The pairs (q, r) of a per-element table with r in row q, or None
    if some row is not strictly ascending."""
    if any(list(row) != sorted(set(row)) for row in table):
        return None
    return {(q, r) for q, row in enumerate(table) for r in row}


def grouped_chains(p) -> tuple:
    """The chains ``Poset.chains`` lists, one tuple per size in the order
    they are listed, shaped like ``SimplicialComplex.faces_by_dim``."""
    buckets: list[list[tuple[int, ...]]] = []
    for c in p.chains():
        while len(buckets) < len(c):
            buckets.append([])
        buckets[len(c) - 1].append(c)
    return tuple(map(tuple, buckets))


def brute_ricci(k, e) -> int:
    """Triangles on e minus its parallels plus 2, by scanning every edge:
    a parallel meets e in exactly one vertex and lies in no triangle
    with it."""
    on_e = [set(t) for t in k.triangles if set(e) <= set(t)]
    parallels = sum(
        1
        for f in k.edges
        if len(set(e) & set(f)) == 1 and not any(set(f) <= t for t in on_e)
    )
    return len(on_e) - parallels + 2


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


def face_count_chi(h) -> int:
    """Euler characteristic of the simplex view from its listed faces:
    every nonempty subset of a hypervertex, of a hyperedge's endpoint
    union or of a node singleton, each counted once."""
    by_id = {hv.id: hv.nodes for hv in h.hypervertices}
    gens = [hv.nodes for hv in h.hypervertices]
    gens += [by_id[e.tail] | by_id[e.head] for e in h.hyperedges]
    gens += [frozenset({n}) for n in h.nodes]
    faces = set()
    for g in gens:
        members = sorted(g)
        for size in range(1, len(members) + 1):
            faces.update(combinations(members, size))
    return sum(1 if len(f) % 2 else -1 for f in faces)


def facet_mismatch(h) -> str | None:
    """Say how the facets geometric chi walks differ from the maximal
    elements of the network's inclusion poset (singletons included), or
    None if they are the same sets."""
    labels = sorted(h.nodes)
    facets = {
        frozenset(n for i, n in enumerate(labels) if m >> i & 1) for m in _facets(h)
    }
    p = poset_from_hypernetwork(h)
    maximal = {e for e, up in zip(p.elements, p._above) if not up}
    if facets == maximal:
        return None
    return (
        f"facets {sorted(map(sorted, facets))} but the maximal poset elements "
        f"are {sorted(map(sorted, maximal))}"
    )


def report_fault(h, include_singletons: bool) -> str | None:
    """Run ``report`` on h through the CLI; say what is wrong if it does
    not exit 0 with the bytes ``json.dumps(obj, indent=2,
    sort_keys=True)`` writes for the object ``obj`` it parses to."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.json"
        path.write_text(serialize(h, "json"), encoding="utf-8")
        argv = ["report", str(path)] + ([] if include_singletons else ["--no-singletons"])
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli_main(argv)
    text = out.getvalue()
    if rc != 0:
        return f"report exits {rc}"
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
    t0 = time.perf_counter()
    edges_checked = 0
    for i in range(args.count):
        h = random_hypernetwork(
            rng,
            max_nodes=args.max_nodes,
            max_hypervertices=args.max_hypervertices,
        )
        geometric, faces = geometric_euler_characteristic(h), face_count_chi(h)
        if geometric != faces:
            return fail(
                f"network {i}: geometric chi {geometric} but the face count "
                f"gives {faces}",
                h,
            )
        mismatch = facet_mismatch(h)
        if mismatch is not None:
            return fail(f"network {i}: {mismatch}", h)
        include_singletons = i % 4 != 3
        p = poset_from_hypernetwork(h, include_singletons=include_singletons)
        less, covers = brute_order(p.elements)
        for name, table, expected in (
            ("covers", p._children, covers),
            ("up sets", p._above, less),
        ):
            if store_pairs(table) != expected:
                return fail(
                    f"network {i}: stored {name} {table} but testing every "
                    f"pair gives {sorted(expected)}",
                    h,
                )
        full = order_complex(p)
        if p.chain_counts() != full.f_vector():
            return fail(
                f"network {i}: counted f-vector {p.chain_counts()} but built "
                f"{full.f_vector()}",
                h,
            )
        listed = grouped_chains(p)
        if full.faces_by_dim != listed:
            return fail(
                f"network {i}: order complex buckets {full.faces_by_dim} but "
                f"the chain listing gives {listed}",
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
        fault = report_fault(h, include_singletons)
        if fault is not None:
            return fail(f"network {i}: {fault}", h)
    dt = time.perf_counter() - t0
    print(
        f"{args.count} random hypernetworks, {edges_checked} edges: "
        f"each poset's stored covers and up sets match testing every pair, "
        f"chain counts match, the order complexes hold the listed "
        f"chains, they and their 2-skeletons equal from_faces' rebuilds, all "
        f"balances exact and equal to those from counts at skeleton 0, 1 and 2, "
        f"the balance's curvature table, the per-edge definitional route and "
        f"the closed form agree with the brute count, the counted tables and "
        f"filtrations equal the complex route at skeleton 0, 1 and 2, geometric chi "
        f"matches the face count, its facets are the maximal poset elements, "
        f"each report's JSON is what json.dumps writes ({dt:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
