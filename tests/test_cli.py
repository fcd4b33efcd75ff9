import collections
import csv
import dataclasses
import enum
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import chain
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperforman import (
    Poset,
    SimplicialComplex,
    cli,
    curvature_filtration,
    forman_ricci,
    forman_ricci_closed,
    gauss_bonnet,
    filtration_balance,
    order_complex,
    parse,
    poset_from_hypernetwork,
    random_hypernetwork,
    serialize,
)
from hyperforman.curvature import poset_edge_rows
from hyperforman.hypernet import to_json_obj as network_json_obj
from hyperforman.cli import (
    _decimal,
    _exact,
    _half_decimal,
    _half_exact,
    _json_text,
    _Rows,
    main,
)

from conftest import coatoms, hub_star, hypernetworks, time_limit, tower_poset_json
from helpers import plain_curvature_section, plain_poset_section

NET = "networks"
SCAF = "scaffolds"
DIR = "directed"


def run(capsys, *argv) -> tuple[int, str, str]:
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def corpus_path(corpus_dir, tier, name):
    return corpus_dir / tier / name


def count_calls(monkeypatch, targets) -> dict[str, int]:
    """Wrap each ``(owner, name)`` of ``targets`` so that its calls are
    counted; returns the counts, keyed by name, as the calls come."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in targets:
        calls[name] = 0
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


def drop_the_first_pair(monkeypatch) -> None:
    """Make the comparability bitsets lose the pair of element 0 and the
    first element covering it, though the poset's store keeps it; the
    bitsets stay symmetric."""
    from hyperforman import curvature

    masks_of = curvature._comparability_masks

    def missing_pair(children):
        masks = masks_of(children)
        x, y = 0, children[0][0]
        masks[x] &= ~(1 << y)
        masks[y] &= ~(1 << x)
        return masks

    monkeypatch.setattr(curvature, "_comparability_masks", missing_pair)


def tournament_hnet(n: int, seed: int) -> str:
    """A complete tournament as ``.hnet`` text: n one-node hypervertices,
    each pair joined by one directed hyperedge of random direction. Its
    directed complex has n + C(n, 2) + C(n, 3) faces."""
    rng = random.Random(seed)
    lines = [f"V{i}: n{i}" for i in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            tail, head = (u, v) if rng.random() < 0.5 else (v, u)
            lines.append(f"E>: V{tail} V{head}")
    return "\n".join(lines) + "\n"


def utf8_stdout() -> io.TextIOWrapper:
    """A stdout that, like a real UTF-8 terminal or pipe, cannot take a
    string that does not encode."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8")


LONE_SURROGATE_INPUTS = {
    "network": '{"nodes": ["a", "\\ud800"], "hypervertices": '
    '[{"id": "V1", "nodes": ["a", "\\ud800"]}], "hyperedges": []}',
    "poset": '{"elements": [["a"], ["\\ud800"], ["a", "\\ud800"]]}',
}


class TestValidate:
    def test_valid_file_summary(self, capsys, corpus_dir):
        rc, out, _ = run(capsys, "validate", corpus_path(corpus_dir, NET, "example.json"))
        assert rc == 0
        assert out == "3 nodes, 2 hypervertices, 1 hyperedge\n"

    def test_text_format(self, capsys, corpus_dir):
        rc, out, _ = run(capsys, "validate", corpus_path(corpus_dir, NET, "example.hnet"))
        assert rc == 0
        assert "3 nodes" in out

    def test_hyper_loop_names_edge(self, capsys, tmp_path):
        bad = tmp_path / "loop.json"
        bad.write_text(
            json.dumps(
                {
                    "nodes": ["a"],
                    "hypervertices": [{"id": "V1", "nodes": ["a"]}],
                    "hyperedges": [{"id": "Eloop", "tail": "V1", "head": "V1"}],
                }
            )
        )
        rc, _, err = run(capsys, "validate", bad)
        assert rc == 2
        assert "Eloop" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "validate", tmp_path / "nope.json")
        assert rc == 3
        assert "error" in err

    @pytest.mark.parametrize("command", ["validate", "chi", "report"])
    def test_deeply_nested_json_is_invalid_input(self, capsys, tmp_path, command):
        f = tmp_path / "nested.json"
        f.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run(capsys, command, f)
        assert rc == 2
        assert out == ""
        assert err == "error: JSON nests too deeply\n"

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"elements": [["a"], ["a", "b"]], "covers": [[-2, -1]]},
                "malformed 'covers' array: -2 is not an index",
            ),
            (
                {"elements": [["a"], ["a", "b"]], "covers": [[False, True]]},
                "malformed 'covers' array: False is not an index",
            ),
            ({"nodes": ["a", "a"]}, "duplicate node 'a'"),
            (
                {"elements": [["a"], ["a", "b"]], "covers": [[0, 1, 1]]},
                "malformed 'covers' array: entry 0 is not a pair of indices",
            ),
            (
                {"elements": [["a"], ["a", "b"]], "covers": [["0", 1]]},
                "malformed 'covers' array: '0' is not an index",
            ),
            (
                {"elements": [["a"], ["a", "b"]], "covers": [0]},
                "malformed 'covers' array: entry 0 is not a pair of indices",
            ),
            (
                {"elements": [["a"], ["a", "b"]], "covers": [[0, 1], [1]]},
                "malformed 'covers' array: entry 1 is not a pair of indices",
            ),
            (
                {"elements": [["a"], ["a", "b"]], "covers": "01"},
                "'covers' must be an array",
            ),
            (
                {"elements": [["a"], ["a", "b"]], "covers": {"0": 1}},
                "'covers' must be an array",
            ),
        ],
        ids=[
            "negative-cover-index",
            "boolean-cover-index",
            "repeated-node",
            "long-cover-entry",
            "string-cover-index",
            "int-cover-entry",
            "short-second-cover-entry",
            "string-covers",
            "object-covers",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "chi", "report"])
    def test_bad_indices_and_repeated_nodes_are_invalid_input(
        self, capsys, tmp_path, command, obj, message
    ):
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        rc, out, err = run(capsys, command, f)
        assert rc == 2
        assert out == ""
        assert re.fullmatch(f"error: {message}\n", err), err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            (
                "net.json",
                json.dumps(
                    {
                        "nodes": ["a", "b"],
                        "hypervertices": [{"id": "V", "nodes": ["a", "a", "b"]}],
                    }
                ),
                "hypervertices[0].nodes repeats node 'a'",
            ),
            (
                "poset.json",
                json.dumps({"elements": [["a", "a"], ["a", "b"]]}),
                "elements[0] repeats member 'a'",
            ),
            ("net.hnet", "V: a a b\n", "line 1: hypervertex 'V' repeats node 'a'"),
        ],
        ids=["json-hypervertex", "poset-element", "hnet-line"],
    )
    @pytest.mark.parametrize("command", ["validate", "chi", "report"])
    def test_repeated_member_is_invalid_input(
        self, capsys, tmp_path, command, name, text, message
    ):
        f = tmp_path / name
        f.write_text(text)
        rc, out, err = run(capsys, command, f)
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "chi", "report"])
    def test_oversized_integer_is_invalid_input(self, capsys, tmp_path, command):
        f = tmp_path / "big.json"
        f.write_text('{"nodes": [], "x": ' + "1" * 5000 + "}")
        rc, out, err = run(capsys, command, f)
        assert rc == 2
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"error: invalid JSON: an integer has more than {limit} digits\n"

    @pytest.mark.parametrize("value", [5, None, {}])
    @pytest.mark.parametrize("key", ["hypervertices", "hyperedges"])
    @pytest.mark.parametrize("command", ["validate", "chi", "report"])
    def test_non_array_member_list_is_invalid_input(
        self, capsys, tmp_path, command, key, value
    ):
        f = tmp_path / "net.json"
        f.write_text(json.dumps({"nodes": ["a"], key: value}))
        rc, out, err = run(capsys, command, f)
        assert rc == 2
        assert out == ""
        assert err == f"error: '{key}' must be an array\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("output", ["human", "csv", "json"])
    @pytest.mark.parametrize("kind", sorted(LONE_SURROGATE_INPUTS))
    def test_unpaired_surrogate_escape_is_invalid_input(
        self, capsys, tmp_path, kind, output
    ):
        f = tmp_path / "lone.json"
        f.write_text(LONE_SURROGATE_INPUTS[kind])
        stdout = utf8_stdout()
        with redirect_stdout(stdout):
            rc = main(["curvature", str(f), "--output", output])
            stdout.flush()
        err = capsys.readouterr().err
        assert rc == 2
        assert stdout.buffer.getvalue() == b""
        assert err == (
            "error: invalid JSON: unpaired surrogate escape \\ud800 in a string\n"
        )

    def test_paired_surrogate_escape_loads(self, capsys, tmp_path):
        f = tmp_path / "pair.json"
        f.write_text(
            '{"nodes": ["a", "\\ud83d\\ude00"], "hypervertices": '
            '[{"id": "V1", "nodes": ["a", "\\ud83d\\ude00"]}], "hyperedges": []}'
        )
        stdout = utf8_stdout()
        with redirect_stdout(stdout):
            rc = main(["curvature", str(f), "--output", "csv"])
            stdout.flush()
        assert (rc, capsys.readouterr().err) == (0, "")
        assert stdout.buffer.getvalue().decode() == (
            "edge,triangles,parallel,ric\n"
            '"{a}|{a,\U0001f600}",0,1,1\n'
            '"{\U0001f600}|{a,\U0001f600}",0,1,1\n'
        )

    def test_unknown_extension_needs_format(self, capsys, tmp_path):
        f = tmp_path / "net.data"
        f.write_text("V1: a\n")
        rc, _, err = run(capsys, "validate", f)
        assert rc == 2
        assert "--format" in err
        rc, out, _ = run(capsys, "validate", f, "--format", "text")
        assert rc == 0

    def test_poset_input_summary(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "validate", corpus_path(corpus_dir, SCAF, "boolean2.poset.json")
        )
        assert rc == 0
        assert out == "4 elements, 4 cover pairs\n"

    def test_json_output(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "validate",
            corpus_path(corpus_dir, NET, "example.json"),
            "--output",
            "json",
        )
        assert json.loads(out) == {
            "kind": "hypernetwork",
            "nodes": 3,
            "hypervertices": 2,
            "hyperedges": 1,
            "directed": False,
        }


class TestChi:
    def test_example_all_methods(self, capsys, corpus_dir):
        rc, out, _ = run(capsys, "chi", corpus_path(corpus_dir, NET, "example.json"))
        assert rc == 0
        assert out.splitlines() == [
            "chi[delta] = 1",
            "chi[rank] = 2",
            "chi[geometric] = 1",
        ]

    def test_geometric_on_hub_star(self, capsys, tmp_path):
        f = tmp_path / "star.json"
        f.write_text(serialize(hub_star(1200), "json"))
        rc, out, err = run(capsys, "chi", "--chi-method", "geometric", f)
        assert (rc, out, err) == (0, "chi[geometric] = 1\n", "")

    @pytest.mark.parametrize("command", ["chi", "report"])
    def test_geometric_chi_stops_at_the_chain_cap(self, capsys, tmp_path, command):
        # the 2^24 intersections of the coatom family would take minutes;
        # its order complex is small, so only geometric chi passes the cap
        f = tmp_path / "coatoms.json"
        f.write_text(serialize(coatoms(24), "json"))
        with time_limit(1):
            rc, out, err = run(capsys, command, f, "--chain-cap", "100000")
        assert (rc, out) == (4, "")
        assert err == (
            "error: geometric chi visited 131054 intersections, "
            "over the chain cap of 100000\n"
        )

    def test_geometric_chi_under_the_default_cap(self, capsys, tmp_path):
        f = tmp_path / "coatoms.json"
        f.write_text(serialize(coatoms(16), "json"))
        rc, out, err = run(capsys, "chi", "--chi-method", "geometric", f)
        assert (rc, out, err) == (0, "chi[geometric] = 2\n", "")

    @pytest.mark.parametrize(
        "singletons", [(), ("--no-singletons",)], ids=["singletons", "no-singletons"]
    )
    def test_geometric_chi_counts_isolated_nodes(self, capsys, tmp_path, singletons):
        # d and e lie in no hypervertex, so the poset built without
        # singletons holds neither; each is still a facet of the view,
        # a point of its own beside the path a-b-c
        f = tmp_path / "isolated.json"
        f.write_text(
            json.dumps(
                {
                    "nodes": ["a", "b", "c", "d", "e"],
                    "hypervertices": [
                        {"id": "V1", "nodes": ["a", "b"]},
                        {"id": "V2", "nodes": ["b", "c"]},
                    ],
                    "hyperedges": [{"id": "E12", "tail": "V1", "head": "V2"}],
                }
            )
        )
        rc, out, err = run(capsys, "chi", "--chi-method", "geometric", f, *singletons)
        assert (rc, out, err) == (0, "chi[geometric] = 3\n", "")
        rc, out, err = run(capsys, "chi", f, *singletons)
        assert (rc, out.splitlines()[-1], err) == (0, "chi[geometric] = 3", "")
        rc, out, err = run(capsys, "report", f, *singletons)
        assert (rc, json.loads(out)["chi"]["geometric"], err) == (0, 3, "")

    def test_single_method(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "chi",
            corpus_path(corpus_dir, NET, "example.json"),
            "--chi-method",
            "rank",
        )
        assert out == "chi[rank] = 2\n"

    def test_boolean_lattice_non_coincidence(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "chi", corpus_path(corpus_dir, SCAF, "boolean2.poset.json")
        )
        assert rc == 0
        lines = out.splitlines()
        assert "chi[delta] = 1" in lines
        assert "chi[rank] = 0" in lines
        assert any("n/a" in line for line in lines)

    def test_empty_network_is_all_zero(self, capsys, corpus_dir):
        rc, out, _ = run(capsys, "chi", corpus_path(corpus_dir, SCAF, "empty.json"))
        assert rc == 0
        assert out.splitlines() == [
            "chi[delta] = 0",
            "chi[rank] = 0",
            "chi[geometric] = 0",
        ]

    def test_not_ranked_reported(self, capsys, corpus_dir):
        rc, out, _ = run(capsys, "chi", corpus_path(corpus_dir, SCAF, "chain4.json"))
        assert rc == 0
        assert "not ranked" in out
        assert "would need rank" in out

    def test_rank_conflict_poset_witness(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "chi", corpus_path(corpus_dir, SCAF, "rank_conflict.poset.json")
        )
        assert rc == 0
        assert "not ranked (element {a,b,c,d} would need rank 1 and rank 2)" in out

    def test_chain_cap_exit_code(self, capsys, corpus_dir):
        rc, _, err = run(
            capsys,
            "chi",
            corpus_path(corpus_dir, NET, "example.json"),
            "--chain-cap",
            "3",
        )
        assert rc == 4
        assert "3" in err

    def test_chain_cap_error_names_count_and_cap(self, capsys, corpus_dir):
        rc, _, err = run(
            capsys,
            "chi",
            corpus_path(corpus_dir, NET, "example.json"),
            "--chain-cap",
            "3",
        )
        # f = (6, 9, 4): the 6 vertices alone pass the cap
        assert rc == 4
        assert err == (
            "error: order complex has 6 faces up to dimension 0, "
            "over the chain cap of 3\n"
        )

    def test_counts_without_listing_chains(self, capsys, corpus_dir, monkeypatch):
        def building(*args, **kwargs):
            raise AssertionError("order_complex was called")

        monkeypatch.setattr(cli, "order_complex", building)
        example = corpus_path(corpus_dir, NET, "example.json")
        rc, out, _ = run(capsys, "chi", "--chi-method", "delta", example)
        assert rc == 0
        assert out == "chi[delta] = 1\n"
        rc, _, _ = run(capsys, "curvature", example, "--chain-cap", "3")
        assert rc == 4

    def test_chain_cap_env_is_ignored(self, capsys, corpus_dir, monkeypatch):
        # only --chain-cap sets the cap; 3 would stop example.json
        monkeypatch.setenv("HYPERFORMAN_CHAIN_CAP", "3")
        example = corpus_path(corpus_dir, NET, "example.json")
        rc, out, err = run(capsys, "chi", example)
        assert (rc, err) == (0, "")
        assert out.startswith("chi[delta] = 1\n")
        rc, _, _ = run(capsys, "chi", example, "--chain-cap", "3")
        assert rc == 4

    def test_json_output(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "chi",
            corpus_path(corpus_dir, NET, "example.json"),
            "--output",
            "json",
        )
        assert json.loads(out) == {"chi": {"delta": 1, "rank": 2, "geometric": 1}}

    def test_csv_output(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "chi",
            corpus_path(corpus_dir, NET, "example.json"),
            "--output",
            "csv",
        )
        assert out.splitlines() == [
            "method,value",
            "delta,1",
            "rank,2",
            "geometric,1",
        ]


class TestCurvature:
    def test_example_edge_rows(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "curvature", corpus_path(corpus_dir, NET, "example.json")
        )
        assert rc == 0
        edge_lines = [l for l in out.splitlines() if l.startswith("edge ")]
        assert len(edge_lines) == 9
        assert all(l.endswith("ok") for l in edge_lines)

    def test_masks_missing_a_pair_show_as_a_mismatch(
        self, capsys, corpus_dir, monkeypatch
    ):
        # the masks stay symmetric, but the degrees come from the store,
        # so the closed form disagrees with ric on {a} < {a,b}
        drop_the_first_pair(monkeypatch)
        rc, out, _ = run(
            capsys, "curvature", corpus_path(corpus_dir, NET, "example.json")
        )
        assert rc == 0
        assert out.splitlines()[0] == (
            "edge {a}|{a,b}: triangles=1 parallel=-1 ric=4 closed=2 MISMATCH"
        )

    def test_edge_rows_match_the_per_edge_route(self, corpus_dir, tmp_path):
        paths = sorted(p for p in corpus_dir.rglob("*") if p.is_file())
        rng = random.Random(0)
        for i in range(200):
            path = tmp_path / f"draw{i}.json"
            path.write_text(serialize(random_hypernetwork(rng), "json"))
            paths.append(path)
        for path in paths:
            a = cli.Analysis(cli.build_parser().parse_args(["curvature", str(path)]))
            # the oracle builds the 2-skeleton the rows never build
            k = order_complex(a.poset, skeleton_dim=2)
            report = gauss_bonnet(k)
            expected = []
            for e in k.edges:
                t, ric = len(k.triangles_containing(e)), forman_ricci(k, e)
                closed = forman_ricci_closed(k, e)
                expected.append((k.face_label(e), t, t + 2 - ric, ric, closed))
            labels, counts = a.labels, a.curvature_counts
            rows = [
                (labels[x] + "|" + labels[y], t, p, r, c)
                for x, y, t, p, r, c in chain.from_iterable(
                    poset_edge_rows(a.poset, counts, a.degrees)
                )
            ]
            assert rows == expected, path.name
            balance = filtration_balance(a.degrees, counts, a.filtration)
            fields = dataclasses.asdict(balance)
            assert fields == {name: getattr(report, name) for name in fields}, path.name

    def test_star_all_zero(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, NET, "star.json"),
            "--no-singletons",
        )
        edge_lines = [l for l in out.splitlines() if l.startswith("edge ")]
        assert len(edge_lines) == 3
        assert all("ric=0" in l for l in edge_lines)

    def test_star_vertex_terms_print_exactly(self, capsys, corpus_dir):
        star = corpus_path(corpus_dir, NET, "star.json")
        rc, out, _ = run(capsys, "curvature", star)
        assert rc == 0
        lines = out.splitlines()
        assert "vertex {a}: 1.5" in lines
        assert "vertex {x}: -3.5" in lines

        rc, out, _ = run(capsys, "curvature", star, "--output", "json")
        vertices = json.loads(out)["vertices"]
        terms = {row["vertex"]: row["term"] for row in vertices}
        assert terms["{a}"] == "3/2"
        assert terms["{x}"] == "-7/2"
        assert terms["{a,x}"] == 0

        rc, out, _ = run(capsys, "report", star)
        assert json.loads(out)["curvature"]["vertices"] == vertices

        rc, out, _ = run(capsys, "gauss-bonnet", star, "--output", "csv")
        lines = out.splitlines()
        assert "vertex_sum,1" in lines
        assert "residual,0" in lines

    def test_builds_only_the_chosen_output(self, capsys, corpus_dir, monkeypatch):
        example = corpus_path(corpus_dir, NET, "example.json")
        rc, json_out, _ = run(capsys, "curvature", example, "--output", "json")
        assert rc == 0

        def building(a):
            raise AssertionError("curvature_obj was called")

        monkeypatch.setattr(cli, "curvature_obj", building)
        rc, out, _ = run(capsys, "curvature", example)
        assert rc == 0
        assert out.startswith("edge ")
        rc, out, _ = run(capsys, "curvature", example, "--output", "csv")
        assert rc == 0
        assert out.startswith("edge,triangles,parallel,ric\n")
        monkeypatch.undo()
        rc, out, _ = run(capsys, "curvature", example, "--output", "json")
        assert (rc, out) == (0, json_out)
        assert len(json.loads(out)["edges"]) == 9

    def test_truncation_note_replaces_warning(self, capsys, corpus_dir):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _, err = run(
                capsys, "curvature", corpus_path(corpus_dir, SCAF, "chain4.json")
            )
        assert rc == 0
        assert err == (
            "note: complex has dimension 3; curvature operates on its 2-skeleton\n"
        )
        assert caught == []

    def test_deep_tower_reaches_its_2_skeleton(self, capsys, tmp_path):
        # V_k = {n_1..n_k}: without singletons the poset is a 26-chain,
        # whose order complex has 2^26 - 1 faces
        nodes = [f"n{i}" for i in range(1, 27)]
        hvs = [{"id": f"V{k}", "nodes": nodes[:k]} for k in range(1, 27)]
        f = tmp_path / "tower.json"
        f.write_text(
            json.dumps({"nodes": nodes, "hypervertices": hvs, "hyperedges": []})
        )
        flags = ("--no-singletons", "--skeleton", "2")
        rc, out, _ = run(capsys, "curvature", f, *flags, "--output", "json")
        assert rc == 0
        obj = json.loads(out)
        f_vector = tuple(len(obj[key]) for key in ("vertices", "edges", "triangles"))
        assert f_vector == (26, 325, 2600)
        assert all(e["match"] for e in obj["edges"])
        rc, out, _ = run(capsys, "gauss-bonnet", f, *flags)
        assert rc == 0
        assert "residual = 0.0" in out
        # the full skeleton counts the faces up to dimension 2 and takes
        # the dimension from a longest chain, so it prints the same rows;
        # counting them all would stop at dimension 9, where
        # C(26, 1) + ... + C(26, 10) first passes the cap
        rc, human, err = run(capsys, "curvature", f, *flags)
        assert (rc, err) == (0, "")
        rc, out, err = run(capsys, "curvature", f, "--no-singletons")
        assert (rc, out) == (0, human)
        assert err == (
            "note: complex has dimension 25; curvature operates on its 2-skeleton\n"
        )

    def test_only_report_counts_past_the_2_skeleton(self, capsys, tmp_path):
        # a 5-chain has f = (5, 10, 10, 5, 1): a cap of 25 holds f0..f2
        # but not the full f-vector, which only report counts, to print it
        f = tmp_path / "chain.json"
        f.write_text(tower_poset_json(5))
        cap = ("--chain-cap", "25")
        rc, out, err = run(capsys, "chi", f, *cap)
        assert (rc, err) == (0, "")
        assert out.startswith("chi[delta] = 1\n")
        note = "note: complex has dimension 4; curvature operates on its 2-skeleton\n"
        rc, out, err = run(capsys, "gauss-bonnet", f, *cap)
        assert (rc, err) == (0, note)
        assert "residual = 0.0" in out
        rc, out, err = run(capsys, "filtrate", f, *cap)
        assert (rc, err) == (0, note)
        assert out.startswith("threshold ")
        rc, out, err = run(capsys, "curvature", f, *cap)
        assert (rc, err) == (0, note)
        assert out == run(capsys, "curvature", f, "--skeleton", "2")[1]
        assert out.count("\ntriangle ") == 10
        rc, out, err = run(capsys, "report", f, *cap)
        assert (rc, out) == (4, "")
        assert err == (
            "error: order complex has 30 faces up to dimension 3, "
            "over the chain cap of 25\n"
        )

    def test_csv_columns(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, NET, "example.json"),
            "--output",
            "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "edge,triangles,parallel,ric"
        assert len(lines) == 10

    def test_directed_chain_fixture(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, DIR, "chain_dag.json"),
            "--directed",
        )
        assert rc == 0
        lines = out.splitlines()
        assert "chi_directed[formula] = 15.5" in lines
        assert "chi_directed[count] = 1" in lines
        assert "out-degree a = 2" in lines

    def test_directed_cycle_modes(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, DIR, "cycle3.json"),
            "--directed",
        )
        assert "triangles[transitive] = 0" in out
        assert "chi_directed[count] = 0" in out
        rc, out, _ = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, DIR, "cycle3.json"),
            "--directed",
            "--triangles",
            "cyclic",
        )
        assert "triangles[cyclic] = 1" in out
        assert "chi_directed[count] = 1" in out

    def test_directed_json_exact_half(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, DIR, "chain_dag.json"),
            "--directed",
            "--output",
            "json",
        )
        obj = json.loads(out)
        assert obj["directed"]["chi_formula"] == "31/2"
        assert obj["directed"]["chi_count"] == 1
        assert obj["directed"]["degrees"] == {"a": 2, "b": 1, "c": 0}

    def test_directed_flag_on_undirected_input(self, capsys, corpus_dir):
        rc, _, err = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, NET, "example.json"),
            "--directed",
        )
        assert rc == 2
        assert "directed" in err

    def test_directed_flags_require_directed(self, capsys, corpus_dir):
        rc, _, err = run(
            capsys,
            "curvature",
            corpus_path(corpus_dir, NET, "example.json"),
            "--degree",
            "in",
        )
        assert rc == 2
        assert "--directed" in err

    def test_multi_node_hypervertex_rejected_in_directed_mode(self, capsys, tmp_path):
        f = tmp_path / "wide.json"
        f.write_text(
            json.dumps(
                {
                    "nodes": ["a", "b", "c"],
                    "hypervertices": [
                        {"id": "V1", "nodes": ["a", "b"]},
                        {"id": "V2", "nodes": ["c"]},
                    ],
                    "hyperedges": [
                        {"id": "E1", "tail": "V1", "head": "V2", "directed": True}
                    ],
                    "directed": True,
                }
            )
        )
        rc, _, err = run(capsys, "curvature", f, "--directed")
        assert rc == 2
        assert "undirected edge" in err

    def test_antiparallel_arcs_rejected(self, capsys, tmp_path):
        f = tmp_path / "anti.json"
        f.write_text(
            json.dumps(
                {
                    "nodes": ["a", "b"],
                    "hypervertices": [
                        {"id": "A", "nodes": ["a"]},
                        {"id": "B", "nodes": ["b"]},
                    ],
                    "hyperedges": [
                        {"id": "E1", "tail": "A", "head": "B", "directed": True},
                        {"id": "E2", "tail": "B", "head": "A", "directed": True},
                    ],
                    "directed": True,
                }
            )
        )
        rc, _, err = run(capsys, "curvature", f, "--directed")
        assert rc == 2
        assert "conflicting" in err

    @pytest.mark.parametrize("command", ["curvature", "report"])
    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ["V: a", "W: b", "E>: V W", "E>: W V"],
                "conflicting directions for edge a|b: a->b and b->a",
            ),
            (["V: a", "W: a", "E>: V W"], "loop arc at node 'a'"),
        ],
        ids=["antiparallel", "loop"],
    )
    def test_directed_errors_name_nodes(
        self, capsys, tmp_path, command, lines, message
    ):
        f = tmp_path / "arcs.hnet"
        f.write_text("\n".join(lines) + "\n")
        rc, out, err = run(capsys, command, f, "--directed")
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("output", ["human", "csv"])
    def test_directed_human_and_csv_label_no_triangle(
        self, capsys, monkeypatch, tmp_path, output
    ):
        f = tmp_path / "tournament.hnet"
        f.write_text(tournament_hnet(12, 1))
        argv = ["curvature", f, "--directed", "--triangles", "cyclic"]
        expected = run(capsys, *argv, "--output", output)
        assert expected[0] == 0

        def refuse(*args):
            raise AssertionError("the triangles were walked")

        monkeypatch.setattr(cli.DirectedComplex, "directed_triangles", refuse)
        assert run(capsys, *argv, "--output", output) == expected
        with pytest.raises(AssertionError, match="triangles were walked"):
            run(capsys, *argv, "--output", "json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["curvature", "--output", "human"],
            ["curvature", "--output", "json"],
            ["curvature", "--output", "csv"],
            ["report"],
        ],
        ids=["human", "json", "csv", "report"],
    )
    def test_directed_builds_no_simplicial_complex(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        f = tmp_path / "tournament.hnet"
        f.write_text(tournament_hnet(12, 1))
        expected = run(capsys, *argv, f, "--directed", "--triangles", "cyclic")
        assert expected[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a SimplicialComplex was built")

        monkeypatch.setattr(SimplicialComplex, "from_faces", refuse)
        monkeypatch.setattr(SimplicialComplex, "_trusted", refuse)
        assert run(capsys, *argv, f, "--directed", "--triangles", "cyclic") == expected

    @pytest.mark.parametrize(
        "argv",
        [["curvature"], ["report", "--chi-method", "delta"]],
        ids=["curvature", "report"],
    )
    def test_directed_tournament_over_the_cap_exits_4(self, capsys, tmp_path, argv):
        # 200 + 19900 edges + 1313400 triangles, counted before any is listed
        f = tmp_path / "tournament.hnet"
        f.write_text(tournament_hnet(200, 0))
        with time_limit(5):
            result = run(capsys, *argv, f, "--directed", "--chain-cap", "100000")
        assert result == (
            4,
            "",
            "error: directed complex has 1333500 faces, "
            "over the chain cap of 100000\n",
        )


class TestGaussBonnet:
    def test_tetrahedron_equation(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "gauss-bonnet",
            corpus_path(corpus_dir, SCAF, "chain4.json"),
            "--no-singletons",
            "--skeleton",
            "2",
        )
        assert rc == 0
        assert "-14.0 - 24 + 40 = 2 = chi" in out

    def test_single_edge_equation(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "gauss-bonnet", corpus_path(corpus_dir, NET, "single_edge.json")
        )
        assert rc == 0
        assert "3.0 - 2 + 0 = 1 = chi" in out

    def test_zero_residual_on_all_corpus_files(self, capsys, corpus_dir):
        for tier in (NET, SCAF):
            for path in sorted((corpus_dir / tier).iterdir()):
                rc, out, _ = run(capsys, "gauss-bonnet", path)
                assert rc == 0, path.name
                assert "residual = 0.0" in out, path.name

    @pytest.mark.parametrize("singletons", [(), ("--no-singletons",)])
    @pytest.mark.parametrize("skeleton", ["full", "0", "1", "2"])
    def test_counts_print_what_the_complex_prints(
        self, capsys, corpus_dir, monkeypatch, singletons, skeleton
    ):
        paths = sorted(p for p in corpus_dir.rglob("*") if p.is_file())
        argvs = [
            ("gauss-bonnet", p, *singletons, "--skeleton", skeleton) for p in paths
        ]
        counted = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(
            cli,
            "poset_gauss_bonnet",
            lambda p, f: cli.gauss_bonnet(order_complex(p, max(len(f) - 1, 0))),
        )
        assert [run(capsys, *argv) for argv in argvs] == counted
        assert [rc for rc, _, _ in counted] == [
            2 if p.parent.name == DIR else 0 for p in paths
        ]

    def test_lists_no_chain(self, capsys, corpus_dir, monkeypatch):
        paths = sorted((corpus_dir / NET).iterdir()) + sorted(
            (corpus_dir / SCAF).iterdir()
        )
        expected = [run(capsys, "gauss-bonnet", p) for p in paths]

        def listing(*args, **kwargs):
            raise AssertionError("a chain was listed")

        for owner, name in (
            (cli, "order_complex"),
            (cli, "gauss_bonnet"),
            (cli.Poset, "chains"),
        ):
            monkeypatch.setattr(owner, name, listing)
        got = [run(capsys, "gauss-bonnet", p) for p in paths]
        assert got == expected
        assert all(rc == 0 for rc, _, _ in got)
        example = corpus_path(corpus_dir, NET, "example.json")
        rc, out, err = run(capsys, "gauss-bonnet", example, "--chain-cap", "3")
        assert (rc, out) == (4, "")
        assert err == (
            "error: order complex has 6 faces up to dimension 0, "
            "over the chain cap of 3\n"
        )

    def test_tall_tower_balances_from_counts(self, capsys, tmp_path):
        # a 300-chain: 4,455,100 triangles, none of them listed; every
        # vertex has degree 299 and every edge 298 triangles, so
        # ric = 300 on each of the 44,850 edges
        f = tmp_path / "tower.json"
        f.write_text(tower_poset_json(300))
        with time_limit(10):
            rc, out, err = run(capsys, "gauss-bonnet", f, "--skeleton", "2")
        assert (rc, err) == (0, "")
        assert out == (
            "sum vertex terms = -26685450.0\n"
            "sum ricci = 13455000\n"
            "sum triangle terms = 44551000\n"
            "chi = 4410550\n"
            "residual = 0.0\n"
            "-26685450.0 - 13455000 + 44551000 = 4410550 = chi\n"
        )

    def test_directed_input_rejected(self, capsys, corpus_dir):
        rc, _, err = run(
            capsys, "gauss-bonnet", corpus_path(corpus_dir, DIR, "chain_dag.json")
        )
        assert rc == 2
        assert "undirected" in err

    @pytest.mark.parametrize("command", ["gauss-bonnet", "report"])
    def test_forged_violation_exits_five(
        self, capsys, corpus_dir, monkeypatch, command
    ):
        # the identity cannot fail on a real complex, so force a fake
        # report through the command to pin the exit path; gauss-bonnet
        # takes its balance from the counts, report from the filtration
        import hyperforman.cli as cli

        name = "poset_gauss_bonnet" if command == "gauss-bonnet" else "filtration_balance"
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli,
            name,
            lambda *a: dataclasses.replace(real(*a), residual=Fraction(-2, 2)),
        )
        rc, out, err = run(
            capsys, command, corpus_path(corpus_dir, NET, "example.json")
        )
        assert rc == 5
        if command == "report":
            assert json.loads(out)["curvature"]["residual"] == -1
        else:
            assert "residual = -1.0" in out
        assert err == "error: curvature does not balance the Euler characteristic\n"


class TestFiltrate:
    def test_tower_at_skeleton_2_matches_the_complex(self, capsys, tmp_path):
        # V_k = {t_1..t_k} for k = 1..60: the oracle lists 68440 triangles
        path = tmp_path / "tower.hnet"
        path.write_text(
            "".join(
                f"V{k}: " + " ".join(f"t{j}" for j in range(1, k + 1)) + "\n"
                for k in range(1, 61)
            )
        )
        k = order_complex(poset_from_hypernetwork(parse(path.read_text(), "text")), 2)
        assert k.f_vector() == (119, 3540, 68440)
        ricci = gauss_bonnet(k).ricci
        rc, out, _ = run(capsys, "filtrate", path, "--skeleton", "2", "--output", "csv")
        assert rc == 0
        assert out.splitlines()[1:] == [
            ",".join(map(str, (s.threshold, *s.f_vector, s.chi)))
            for s in curvature_filtration(k, ricci)
        ]
        rc, out, _ = run(
            capsys, "curvature", path, "--skeleton", "2", "--output", "csv"
        )
        assert rc == 0
        expected = []
        for e in k.edges:
            t = len(k.triangles_containing(e))
            expected.append([k.face_label(e), str(t), str(t + 2 - ricci[e]), str(ricci[e])])
        assert list(csv.reader(io.StringIO(out)))[1:] == expected

    def test_tetrahedron_single_row(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "filtrate",
            corpus_path(corpus_dir, SCAF, "chain4.json"),
            "--no-singletons",
            "--skeleton",
            "2",
            "--output",
            "csv",
        )
        assert out.splitlines() == ["threshold,f0,f1,f2,chi", "4,4,6,4,2"]

    def test_star_single_row(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "filtrate",
            corpus_path(corpus_dir, NET, "star.json"),
            "--no-singletons",
            "--output",
            "csv",
        )
        assert out.splitlines() == ["threshold,f0,f1,f2,chi", "0,4,3,0,1"]

    def test_two_components_final_chi(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "filtrate",
            corpus_path(corpus_dir, NET, "two_components.json"),
            "--output",
            "csv",
        )
        rows = out.splitlines()[1:]
        assert rows
        assert rows[-1].endswith(",2")

    def test_human_output_monotone(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "filtrate", corpus_path(corpus_dir, NET, "example.json")
        )
        assert rc == 0
        assert all(line.startswith("threshold ") for line in out.splitlines())

    def test_builds_only_the_chosen_output(self, capsys, corpus_dir, monkeypatch):
        example = corpus_path(corpus_dir, NET, "example.json")
        rc, json_out, _ = run(capsys, "filtrate", example, "--output", "json")
        assert rc == 0

        def building(a):
            raise AssertionError("filtration_obj was called")

        monkeypatch.setattr(cli, "filtration_obj", building)
        rc, out, _ = run(capsys, "filtrate", example)
        assert rc == 0
        assert out.startswith("threshold ")
        rc, out, _ = run(capsys, "filtrate", example, "--output", "csv")
        assert rc == 0
        assert out.startswith("threshold,f0,f1,f2,chi\n")
        monkeypatch.undo()
        rc, out, _ = run(capsys, "filtrate", example, "--output", "json")
        assert (rc, out) == (0, json_out)
        assert json.loads(out)["filtration"]

    @pytest.mark.parametrize("skeleton", [None, 0, 1, 2])
    @pytest.mark.parametrize("name", ["example.json", "two_components.json"])
    def test_builds_no_table(self, capsys, corpus_dir, monkeypatch, name, skeleton):
        # the twin of report's stage count: filtrate reads the bitsets and
        # the counts directly, builds no row and gives report's steps
        path = corpus_path(corpus_dir, NET, name)
        flags = () if skeleton is None else ("--skeleton", skeleton)
        rc, out, _ = run(capsys, "report", path, *flags)
        assert rc == 0
        expected = json.loads(out)["filtration"]
        calls = count_calls(
            monkeypatch,
            [
                (cli, "poset_curvature_filtration"),
                (cli, "poset_edge_rows"),
                (cli, "filtration_balance"),
            ],
        )
        rc, out, _ = run(capsys, "filtrate", path, *flags, "--output", "json")
        assert rc == 0
        assert json.loads(out)["filtration"] == expected
        assert calls == {
            "poset_curvature_filtration": 1,
            "poset_edge_rows": 0,
            "filtration_balance": 0,
        }

    @pytest.mark.parametrize(
        ("command", "skeleton", "passes"),
        [
            ("report", "1", 1),
            ("filtrate", "1", 1),
            ("report", None, 1),
            ("filtrate", None, 0),
        ],
    )
    def test_degrees_are_counted_at_most_once(
        self, capsys, corpus_dir, monkeypatch, command, skeleton, passes
    ):
        # without triangles the filtration reads the run's cached degrees;
        # with them filtrate reads the bitsets and counts no degrees
        from hyperforman import curvature

        path = corpus_path(corpus_dir, NET, "example.json")
        flags = () if skeleton is None else ("--skeleton", skeleton)
        calls = count_calls(
            monkeypatch, [(cli, "poset_degrees"), (curvature, "poset_degrees")]
        )
        rc, _, _ = run(capsys, command, path, *flags)
        assert rc == 0
        assert calls == {"poset_degrees": passes}


class TestReport:
    def test_report_is_valid_json_with_sections(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "report", corpus_path(corpus_dir, NET, "example.json")
        )
        assert rc == 0
        obj = json.loads(out)
        assert set(obj) == {
            "input",
            "config",
            "poset",
            "rank",
            "chi",
            "complex",
            "curvature",
            "filtration",
        }
        assert obj["chi"] == {"delta": 1, "rank": 2, "geometric": 1}
        assert obj["complex"]["f_vector"] == [6, 9, 4]
        assert obj["curvature"]["residual"] == 0
        assert obj["curvature"]["sums"] == {
            "vertex": -27,
            "ricci": 12,
            "triangle": 40,
        }
        assert obj["rank"]["ranked"] is True
        assert obj["rank"]["level_counts"] == [3, 2, 1]
        assert obj["poset"]["elements"][0] == ["a"]
        assert obj["poset"]["elements"][5] == ["a", "b", "c"]
        assert [0, 3] in obj["poset"]["covers"]
        assert len(obj["poset"]["covers"]) == 6

    def test_report_directed_section(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys,
            "report",
            corpus_path(corpus_dir, DIR, "chain_dag.json"),
            "--directed",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["directed"]["chi_formula"] == "31/2"

    def test_not_ranked_section(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "report", corpus_path(corpus_dir, SCAF, "chain4.json")
        )
        obj = json.loads(out)
        assert obj["rank"]["ranked"] is False
        assert obj["rank"]["witness"] == "{a,b,c}"
        assert obj["chi"]["rank"]["not_ranked"] is True

    def test_output_flag_rejected(self, capsys, corpus_dir):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "report",
                    str(corpus_path(corpus_dir, NET, "single_edge.json")),
                    "--output",
                    "csv",
                ]
            )
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--output" in captured.err

    def test_each_stage_runs_once(self, capsys, corpus_dir, monkeypatch):
        from hyperforman import curvature

        calls = count_calls(
            monkeypatch,
            [
                (cli, "poset_from_hypernetwork"),
                (cli, "order_complex"),
                (cli, "gauss_bonnet"),
                (cli, "poset_degrees"),
                (cli, "poset_curvature_filtration"),
                (cli, "filtration_balance"),
                (cli, "poset_edge_rows"),
                (curvature, "forman_ricci"),
            ],
        )
        rc, out, _ = run(
            capsys, "report", corpus_path(corpus_dir, NET, "example.json")
        )
        assert rc == 0
        report = json.loads(out)
        assert len(report["curvature"]["edges"]) == 9
        assert len(report["curvature"]["triangles"]) == 4
        # the balance is read back from the filtration, and the edge rows
        # are built once, as they are written: no complex, no per-edge call
        assert calls == {
            "poset_from_hypernetwork": 1,
            "order_complex": 0,
            "gauss_bonnet": 0,
            "poset_degrees": 1,
            "poset_curvature_filtration": 1,
            "filtration_balance": 1,
            "poset_edge_rows": 1,
            "forman_ricci": 0,
        }

    @pytest.mark.parametrize("flags", [(), ("--skeleton", "2"), ("--skeleton", "1")])
    def test_the_balance_covers_every_bitset_it_prints(
        self, capsys, corpus_dir, monkeypatch, flags
    ):
        # the edge sum is read from the bitsets the rows read, so a pair
        # missing from them unbalances the report; without triangles no
        # bitset is read, and the bytes are those of the unpatched run
        example = corpus_path(corpus_dir, NET, "example.json")
        rc, clean, err = run(capsys, "report", example, *flags)
        assert (rc, err) == (0, "")
        drop_the_first_pair(monkeypatch)
        rc, out, err = run(capsys, "report", example, *flags)
        if flags == ("--skeleton", "1"):
            assert (rc, out, err) == (0, clean, "")
        else:
            assert rc == 5
            assert err == "error: curvature does not balance the Euler characteristic\n"
            assert json.loads(out)["curvature"]["residual"] != 0

    def test_byte_identical_across_hash_seeds(self, corpus_dir):
        env = dict(os.environ)
        outs = []
        for seed in ("0", "1", "2"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "hyperforman.cli",
                    "report",
                    str(corpus_path(corpus_dir, NET, "example.json")),
                ],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout, "report must produce output"
            json.loads(proc.stdout)  # and it must be the JSON report
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]


# node names the JSON writer must escape, or that a "%" template or the
# "{a,b}" and "a|b" labels could misread
NODE_NAMES = st.lists(
    st.sampled_from(
        ['"', "\\", "%", "%s", "|", "{", ",", "\u00e9", "\u2028", "\U0001f600", "a"]
    ),
    min_size=1,
    max_size=3,
).map("".join)


# node names the csv module quotes, or may, by its version
CSV_NAMES = st.lists(
    st.sampled_from(['"', ",", "\r", "\n", "\r\n", " ", "|", "\u00e9", "a"]),
    min_size=1,
    max_size=3,
).map("".join)


@st.composite
def hostile_inputs(draw, node_names=NODE_NAMES):
    """A hypernetwork or poset input object whose node names are drawn
    from ``node_names``, by default :data:`NODE_NAMES`."""
    if draw(st.booleans()):
        obj = network_json_obj(draw(hypernetworks()))
        n = len(obj["nodes"])
        names = draw(st.lists(node_names, min_size=n, max_size=n, unique=True))
        rename = dict(zip(obj["nodes"], names))
        obj["nodes"] = names
        for hv in obj["hypervertices"]:
            hv["nodes"] = [rename[x] for x in hv["nodes"]]
        return obj
    names = draw(st.lists(node_names, min_size=1, max_size=5, unique=True))
    sets = st.frozensets(st.sampled_from(names))
    elements = draw(st.lists(sets, unique=True, max_size=6))
    return {"elements": [sorted(e) for e in elements]}


TOWER = {
    "nodes": ["a", "b", "c"],
    "hypervertices": [
        {"id": "V1", "nodes": ["a", "b"]},
        {"id": "V2", "nodes": ["a", "b", "c"]},
    ],
}


# labels the csv module quotes, with a quote to double, and on some
# versions only (a lone carriage return)
CSV_CELLS = {
    "nodes": ["a,b", 'c"', "d\r", "e\n"],
    "hypervertices": [
        {"id": "V1", "nodes": ["a,b", 'c"']},
        {"id": "V2", "nodes": ["d\r", "e\n"]},
        {"id": "V3", "nodes": ["a,b", 'c"', "d\r"]},
    ],
}


class TestWriterReference:
    """``report``, ``curvature --output json`` and ``filtrate --output
    json`` against the sections built as plain dicts and lists and
    written by ``json.dumps``."""

    @example({"elements": []}, None)
    @example({"elements": [["a"]]}, None)
    @example({"elements": [[], ["%s"]]}, None)
    @example({"nodes": ["a", "b"], "hypervertices": [], "hyperedges": []}, None)
    @example(TOWER, 1)
    @given(hostile_inputs(), st.sampled_from([None, 0, 1, 2]))
    @settings(deadline=None)
    def test_json_sections_match_the_plain_reference(self, obj, skeleton):
        flags = [] if skeleton is None else ["--skeleton", str(skeleton)]
        with TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "input.json")
            Path(path).write_text(json.dumps(obj))
            outs = []
            for argv in (
                ["report", path],
                ["curvature", path, "--output", "json"],
                ["filtrate", path, "--output", "json"],
            ):
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    assert main(argv + flags) == 0
                outs.append(out.getvalue())
            with redirect_stderr(io.StringIO()):
                a = cli.Analysis(cli._parser().parse_args(["curvature", path, *flags]))
                f, degrees = a.curvature_counts, a.degrees
                rows = chain.from_iterable(poset_edge_rows(a.poset, f, degrees))
                curvature = plain_curvature_section(a.poset, f, degrees, rows)
                filtration = [
                    {"chi": s.chi, "f_vector": list(s.f_vector), "threshold": s.threshold}
                    for s in a.filtration
                ]
        report, curvature_text, filtrate_text = outs
        expected = json.loads(report)
        expected["poset"] = plain_poset_section(a.poset)
        expected["curvature"].update(curvature)
        expected["filtration"] = filtration
        assert report == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert curvature_text == json.dumps(curvature, indent=2, sort_keys=True) + "\n"
        filtration_json = json.dumps({"filtration": filtration}, indent=2, sort_keys=True)
        assert filtrate_text == filtration_json + "\n"

    @example(CSV_CELLS, None)
    @given(hostile_inputs(CSV_NAMES), st.sampled_from([None, 0, 1, 2]))
    @settings(deadline=None)
    def test_curvature_csv_is_what_the_csv_module_writes(self, obj, skeleton):
        # the rows, written a chunk at a time, read as one writerows call
        flags = [] if skeleton is None else ["--skeleton", str(skeleton)]
        with TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "input.json")
            Path(path).write_text(json.dumps(obj))
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                assert main(["curvature", path, "--output", "csv", *flags]) == 0
                a = cli.Analysis(cli._parser().parse_args(["curvature", path, *flags]))
                labels = a.labels
                rows = [
                    (labels[x] + "|" + labels[y], t, p, r)
                    for x, y, t, p, r, _ in chain.from_iterable(
                        poset_edge_rows(a.poset, a.curvature_counts, a.degrees)
                    )
                ]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("edge", "triangles", "parallel", "ric"))
        writer.writerows(rows)
        assert out.getvalue() == expected.getvalue()


class TestChunkBoundaries:
    """The streamed sections give the same bytes whatever the chunk size:
    with one row per chunk, every row is written on its own."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("curvature",),
            ("curvature", "--output", "csv"),
            ("curvature", "--output", "json"),
            ("curvature", "--directed", "--output", "json"),
            ("filtrate", "--output", "json"),
            ("report",),
        ],
        ids=" ".join,
    )
    def test_one_row_per_chunk_writes_the_same_bytes(
        self, capsys, corpus_dir, monkeypatch, argv
    ):
        paths = sorted(corpus_dir.rglob("*.json")) + sorted(corpus_dir.rglob("*.hnet"))
        writes = []
        write_out = cli._write_out

        def counting(text, *args):
            writes.append(text)
            write_out(text, *args)

        def outputs() -> list[tuple[tuple, int]]:
            results = []
            for path in paths:
                writes.clear()
                results.append((run(capsys, argv[0], path, *argv[1:]), len(writes)))
            return results

        monkeypatch.setattr(cli, "_write_out", counting)
        expected = outputs()
        assert any(rc == 0 for (rc, _, _), _ in expected)
        monkeypatch.setattr(cli, "_CHUNK", 1)
        chunked = outputs()
        assert [out for out, _ in chunked] == [out for out, _ in expected]
        # the example's rows, more than one of each table, go one per write
        example = paths.index(corpus_dir / NET / "example.json")
        if expected[example][0][0] == 0:
            assert chunked[example][1] > expected[example][1] + 1

    def test_an_encoding_with_state_writes_one_encode_of_the_text(
        self, capsys, corpus_dir, monkeypatch
    ):
        # UTF-16 starts with a byte order mark, once per output, not per chunk
        example = corpus_path(corpus_dir, NET, "example.json")
        rc, text, _ = run(capsys, "curvature", example)
        assert rc == 0
        monkeypatch.setattr(cli, "_CHUNK", 1)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-16")
        with redirect_stdout(stdout):
            assert main(["curvature", str(example)]) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == text.encode("utf-16")


class TestOneCountPerRun:
    """Each run counts the faces of its order complex at most once, to the
    depth its command reads, and chi at the full skeleton counts none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        counts, moebius = Poset.chain_counts, Poset.chain_euler_characteristic

        def chain_counts(p, max_length=None, cap=None):
            calls.append(("chain_counts", max_length))
            return counts(p, max_length, cap)

        def chain_euler_characteristic(p, cap=None):
            calls.append(("moebius",))
            return moebius(p, cap)

        monkeypatch.setattr(Poset, "chain_counts", chain_counts)
        monkeypatch.setattr(
            Poset, "chain_euler_characteristic", chain_euler_characteristic
        )
        return calls

    @pytest.mark.parametrize("skeleton", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize(
        "command", ["chi", "curvature", "gauss-bonnet", "filtrate", "report"]
    )
    @pytest.mark.parametrize("source", ["example", "tower"])
    def test_count_route(
        self, capsys, corpus_dir, tmp_path, calls, source, command, skeleton
    ):
        if source == "example":
            path = corpus_path(corpus_dir, NET, "example.json")
        else:
            # V_k = {t_1..t_k} for k = 1..6: a complex of dimension 5
            path = tmp_path / "tower.hnet"
            path.write_text(
                "".join(
                    f"V{k}: " + " ".join(f"t{j}" for j in range(1, k + 1)) + "\n"
                    for k in range(1, 7)
                )
            )
        flags = () if skeleton is None else ("--skeleton", skeleton)
        rc, out, _ = run(capsys, command, path, *flags)
        assert rc in (0, 5) and out
        if skeleton is not None:
            expected = [("chain_counts", skeleton + 1)]
        elif command == "chi":
            expected = [("moebius",)]
        elif command == "report":
            expected = [("chain_counts", None)]
        else:
            expected = [("chain_counts", 3)]
        assert calls == expected


class TestCsvMatchesJson:
    """The ``--output csv`` rows hold the same values as ``--output json``,
    each written as ``csv`` writes it."""

    @staticmethod
    def outputs(capsys, *argv) -> tuple[int, list[list[str]], dict | None]:
        rc, out, _ = run(capsys, *argv, "--output", "csv")
        rc_json, out_json, _ = run(capsys, *argv, "--output", "json")
        assert rc == rc_json, argv
        if not out_json:
            return rc, [], None
        return rc, list(csv.reader(io.StringIO(out))), json.loads(out_json)

    @staticmethod
    def expected(command: str, obj: dict) -> list[list[str]]:
        if command == "validate":
            rows = [[k, str(v)] for k, v in obj.items() if k != "kind"]
        elif command == "chi":
            cell = {type(None): "n/a", dict: "not-ranked"}
            rows = [[m, cell.get(type(v), str(v))] for m, v in obj["chi"].items()]
        elif command == "gauss-bonnet":
            rows = [[k, str(v)] for k, v in obj.items() if k != "triangle_term"]
        elif command == "filtrate":
            return [
                [str(x) for x in (s["threshold"], *s["f_vector"], s["chi"])]
                for s in obj["filtration"]
            ]
        else:
            return [
                [e["edge"], str(e["triangles"]), str(e["parallel"]), str(e["ric"])]
                for e in obj["edges"]
            ]
        # an object's keys are sorted in JSON but not in CSV
        return sorted(rows)

    @pytest.mark.parametrize(
        "command", ["validate", "chi", "gauss-bonnet", "filtrate", "curvature"]
    )
    def test_every_corpus_file(self, capsys, corpus_dir, command):
        paths = sorted(corpus_dir.rglob("*.json")) + sorted(corpus_dir.rglob("*.hnet"))
        for path in paths:
            rc, rows, obj = self.outputs(capsys, command, path)
            if obj is None:
                # gauss-bonnet and filtrate refuse directed input
                assert (rc, rows, path.parent.name) == (2, [], DIR), path.name
                continue
            body = rows[1:]
            if command in ("validate", "chi", "gauss-bonnet"):
                assert len({row[0] for row in body}) == len(body), path.name
                body = sorted(body)
            assert body == self.expected(command, obj), path.name

    def test_directed(self, capsys, corpus_dir):
        paths = sorted(corpus_dir.glob(f"{DIR}/*.json"))
        assert paths
        for path in paths:
            for mode in ("transitive", "cyclic"):
                rc, rows, obj = self.outputs(
                    capsys, "curvature", path, "--directed", "--triangles", mode
                )
                assert rc == 0, path.name
                d = obj["directed"]
                expected = [["degree", x, str(n)] for x, n in d["degrees"].items()]
                expected += [
                    ["triangles", d["triangle_mode"], str(len(d["chosen_triangles"]))],
                    ["chi_formula", "", str(d["chi_formula"])],
                    ["chi_count", "", str(d["chi_count"])],
                ]
                assert rows[1:] == expected, (path.name, mode)


class TestPosetInput:
    def test_covers_verified_when_present(self, capsys, tmp_path):
        mismatch = "error: 'covers' does not match the inclusion order\n"
        a, ab, abc = ["a"], ["a", "b"], ["a", "b", "c"]
        for elements, covers, expected in [
            ([a, ab], [[0, 1]], (0, "")),
            ([a, ab], [], (2, mismatch)),
            ([a, ab, abc], [[0, 1], [1, 2], [0, 2]], (2, mismatch)),
            # indices refer to the input's order, not the canonical one
            ([ab, a], [[1, 0]], (0, "")),
        ]:
            f = tmp_path / "p.json"
            f.write_text(json.dumps({"elements": elements, "covers": covers}))
            rc, _, err = run(capsys, "validate", f)
            assert (rc, err) == expected, (elements, covers)

    def test_duplicate_elements_rejected(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"elements": [["a"], ["a"]]}))
        rc, _, err = run(capsys, "validate", f)
        assert rc == 2
        assert "duplicate" in err

    def test_thousand_element_tower(self, capsys, tmp_path):
        # the pairwise build intersected an up set and a down set per
        # comparable pair: cubic, over 10 s here
        f = tmp_path / "tower.json"
        f.write_text(tower_poset_json(1000))
        with time_limit(10):
            rc, out, _ = run(capsys, "validate", f)
        assert rc == 0
        assert out == "1000 elements, 999 cover pairs\n"

    def test_thousand_element_tower_stops_counting_at_the_cap(self, capsys, tmp_path):
        # 2^1000 - 1 chains: chi reads no face count past the edges, and
        # report's count of the f-vector it prints stops at dimension 2,
        # where the running total first passes the default cap
        f = tmp_path / "tower.json"
        f.write_text(tower_poset_json(1000))
        with time_limit(10):
            rc, out, err = run(capsys, "chi", "--chi-method", "delta", f)
        assert (rc, out, err) == (0, "chi[delta] = 1\n", "")
        with time_limit(10):
            rc, out, err = run(capsys, "report", "--chi-method", "delta", f)
        assert rc == 4
        assert out == ""
        assert err == (
            "error: order complex has 166667500 faces up to dimension 2, "
            "over the chain cap of 10000000\n"
        )

    def test_gauss_bonnet_on_poset_input(self, capsys, corpus_dir):
        rc, out, _ = run(
            capsys, "gauss-bonnet", corpus_path(corpus_dir, SCAF, "boolean2.poset.json")
        )
        assert rc == 0
        assert "residual = 0.0" in out


# characters the encoder escapes, plus lone surrogates, which
# st.characters() never draws
JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfff'),
        st.characters(),
    )
)
BIG_INTS = st.integers(min_value=-(2**200), max_value=2**200)
ROW_SCALARS = st.none() | st.booleans() | BIG_INTS | JSON_TEXT


def one_type_lists(text):
    """Lists of scalars of one exact type, the empty list included: the
    only lists the writer takes outside a row table."""
    return st.sampled_from([st.none(), st.booleans(), BIG_INTS, text]).flatmap(
        lambda scalars: st.lists(scalars, max_size=6)
    )


ONE_TYPE_LISTS = one_type_lists(JSON_TEXT)
# the writer's grammar: dicts with str keys over scalars and one-type lists
JSON_VALUES = st.recursive(
    ROW_SCALARS | ONE_TYPE_LISTS,
    lambda inner: st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)

# row tables: sorted distinct keys that need escaping, or that a "%"
# template would misread
ROW_KEYS = st.lists(
    st.text(st.one_of(st.sampled_from('"{}|%\n\\\u00e9\u2028\ud800'), st.characters())),
    unique=True,
    max_size=5,
).map(lambda keys: tuple(sorted(keys)))


def body(text: str) -> str:
    """The JSON string of ``text`` without its quotes."""
    return json.dumps(text)[1:-1]


# one field of an object table and its cells: each cell is the values
# that fill the field and the plain value they stand for; an int past
# 2**63, a string or two joined from their escaped bodies, a JSON text,
# or a constant with its "%" doubled
ROW_FIELDS = st.sampled_from(
    [
        ("%d", BIG_INTS.map(lambda n: ((n,), n))),
        ('"%s"', JSON_TEXT.map(lambda t: ((body(t),), t))),
        (
            '"%s|%s"',
            st.tuples(JSON_TEXT, JSON_TEXT).map(
                lambda ts: ((body(ts[0]), body(ts[1])), ts[0] + "|" + ts[1])
            ),
        ),
        ("%s", ROW_SCALARS.map(lambda v: ((json.dumps(v),), v))),
    ]
) | ROW_SCALARS.map(lambda v: (json.dumps(v).replace("%", "%%"), st.just(((), v))))
# a nested-array field: a tuple of fields, whose cells fill it in order
ARRAY_FIELDS = st.lists(ROW_FIELDS, max_size=3).map(
    lambda fields: (
        tuple(field for field, _ in fields),
        st.tuples(*[cells for _, cells in fields]).map(
            lambda cs: (tuple(x for fill, _ in cs for x in fill), [v for _, v in cs])
        ),
    )
)


@st.composite
def object_tables(draw):
    """A row table of objects and the plain list of dicts it stands for."""
    keys = draw(ROW_KEYS)
    fields = [draw(ROW_FIELDS | ARRAY_FIELDS) for _ in keys]
    rows = draw(st.lists(st.tuples(*[cells for _, cells in fields]), max_size=4))
    table = _Rows(
        {k: field for k, (field, _) in zip(keys, fields)},
        [tuple(x for fill, _ in row for x in fill) for row in rows],
    )
    return table, [{k: v for k, (_, v) in zip(keys, row)} for row in rows]


# row tables of arrays of any length, the empty one included: strings
# from their escaped bodies, or ints past 2**63
ARRAY_TABLES = st.lists(st.lists(JSON_TEXT, max_size=4), max_size=5).map(
    lambda rows: (_Rows('"%s"', [tuple(map(body, r)) for r in rows]), rows)
) | st.lists(st.lists(BIG_INTS, max_size=3), max_size=5).map(
    lambda rows: (_Rows("%d", list(map(tuple, rows))), rows)
)


# (value, plain value) pairs: row tables as dict values at random
# depths, beside scalars and one-type lists, with the lists of dicts and
# of lists they stand for
VALUES_WITH_TABLES = st.recursive(
    (ROW_SCALARS | ONE_TYPE_LISTS).map(lambda v: (v, v)) | object_tables() | ARRAY_TABLES,
    lambda inner: st.dictionaries(JSON_TEXT, inner, max_size=4).map(
        lambda d: ({k: v for k, (v, _) in d.items()}, {k: p for k, (_, p) in d.items()})
    ),
    max_leaves=12,
)


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


class Label(str):
    """A str subclass, which the writer refuses like any other type."""


# one exact type per list, which the writer converts in one pass: text
# with quotes, "%" and surrogates, ints past 2**63, booleans and None
TYPED_TEXT = st.text(
    st.one_of(st.sampled_from('"% %s%d\\\ud800\udfff\u00e9'), st.characters())
)
TYPED_VALUES = st.recursive(
    one_type_lists(TYPED_TEXT),
    lambda inner: st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=6,
)


class TestHalfTerms:
    def test_doubled_terms_print_as_their_fractions(self):
        # odd, negative and past 2**53, where the float rounds
        for t in [*range(-1000, 1001), 2**60 + 1, -(2**60 + 1)]:
            assert _half_decimal(t) == _decimal(Fraction(t, 2)), t
            half = _half_exact(t)
            assert half == _exact(Fraction(t, 2)), t
            assert type(half) is type(_exact(Fraction(t, 2))), t


class TestJsonText:
    @example({"a": [], "b": {}, "c": {"d": {}, "e": [None]}, "": ""})
    @given(JSON_VALUES)
    def test_matches_the_stdlib_pretty_printer(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            {"a": {1, 2}},
            {1: "a"},
            [0.5, 1.5],
            [[0.5], [1.5]],
            _Rows({"a": "%d"}, [("x",)]),
            (),
            {"a": (1, 2)},
            [1, "a"],
            [True, 1],
            [None, 0],
            [[1], [2]],
            [[]],
            [{}],
            [_Rows("%d", [])],
            Level.HIGH,
            [Level.LOW],
            Label("a"),
            [Label("a"), Label("b")],
            {Label("a"): 1},
            collections.OrderedDict(a=1),
        ],
        ids=[
            "float", "set", "int-key", "float-list", "float-lists", "text-in-int-field",
            "tuple", "tuple-value", "mixed-list", "bool-and-int-list",
            "none-and-int-list", "nested-lists", "empty-nested-list", "dict-in-list",
            "table-in-list", "int-enum", "int-enum-list", "str-subclass",
            "str-subclass-list", "str-subclass-key", "dict-subclass",
        ],
    )
    def test_other_types_are_type_errors(self, value):
        with pytest.raises(TypeError):
            _json_text(value)

    @given(VALUES_WITH_TABLES)
    def test_row_tables_match_the_stdlib_pretty_printer(self, pair):
        value, plain = pair
        assert _json_text(value) == json.dumps(plain, indent=2, sort_keys=True) + "\n"

    @example({"a": [True, False], "b": [-(2**70), 0], "c": ["%s", "\ud800"], "d": []})
    @given(TYPED_VALUES)
    def test_one_type_lists_match_the_stdlib_pretty_printer(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "value, plain",
        [
            (_Rows({"a": "%d", "b": "%d"}, []), []),
            (_Rows({}, [(), ()]), [{}, {}]),
            (
                _Rows(
                    {"edge": '"%s|%s"', "match": "%s", "ric": "%d"},
                    [("a", "b", "true", -(2**70))],
                ),
                [{"edge": "a|b", "match": True, "ric": -(2**70)}],
            ),
            (
                {
                    "x": {
                        "a": _Rows({"%s": "%s", "k": '"%s"'}, [("null", "%d")]),
                        "b": _Rows("%d", []),
                    }
                },
                {"x": {"a": [{"%s": None, "k": "%d"}], "b": []}},
            ),
            (_Rows('"%s"', [(), ("a",), ("b", "%s")]), [[], ["a"], ["b", "%s"]]),
            (_Rows("%d", iter([(0, 1), (2**70, -1)])), [[0, 1], [2**70, -1]]),
            (
                _Rows(
                    {"a": ("%d", '"%s"', "null"), "b": (), "c": "%d"},
                    [(1, "x", 2), (-(2**70), "%s", 0)],
                ),
                [
                    {"a": [1, "x", None], "b": [], "c": 2},
                    {"a": [-(2**70), "%s", None], "b": [], "c": 0},
                ],
            ),
        ],
        ids=[
            "empty", "no-keys", "one-row-top-level", "nested", "arrays",
            "iterator-pairs", "nested-array-field",
        ],
    )
    def test_row_table_cases(self, value, plain):
        assert _json_text(value) == json.dumps(plain, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "row", [("x", 1), (None, 1), ({1}, 1), (1,), (1, 2, 3)],
        ids=["text", "none", "set", "short", "long"],
    )
    def test_row_values_of_other_types_are_type_errors(self, row):
        with pytest.raises(TypeError):
            _json_text({"t": _Rows({"a": "%d", "b": "%d"}, [(1, 2), row])})

    def test_leaves_no_reference_cycle(self):
        # a writer that refers to itself keeps its chunk list alive until
        # the next cyclic collection
        gc.collect()
        gc.disable()
        try:
            _json_text({"a": [1, 2], "b": {"c": None}, "t": _Rows("%d", [(1,)])})
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rows_of_two_widths_are_a_type_error(self):
        # together they hold as many values as two rows of the right width
        with pytest.raises(TypeError):
            _json_text(_Rows({"a": "%d", "b": "%d"}, [(1,), (2, 3, 4)]))

    @pytest.mark.parametrize(
        "item",
        [{"b": "%d", "a": "%d"}, ("a",), {"a": "%d", 1: "%d"}, {b"a": "%d"}],
        ids=["unsorted", "tuple-item", "int-key", "bytes-key"],
    )
    def test_bad_items_are_type_errors(self, item):
        with pytest.raises(TypeError):
            _Rows(item, [])


def run_to_exit(capsys, *argv) -> tuple[int, str, str]:
    """Like :func:`run`, but an exit raised by argparse itself (a usage
    error or ``--help``) is returned as its code instead of raised."""
    try:
        rc = main([str(a) for a in argv])
    except SystemExit as ex:
        rc = ex.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParserReuse:
    def test_main_builds_the_parser_once(self, capsys, corpus_dir, monkeypatch):
        example = str(corpus_path(corpus_dir, NET, "example.json"))
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for command in ("validate", "chi", "gauss-bonnet", "chi"):
            assert run(capsys, command, example)[0] == 0
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_calls_do_not_leak_into_each_other(self, capsys, corpus_dir):
        example = str(corpus_path(corpus_dir, NET, "example.json"))
        usage_error = ["chi", example, "--chi-method", "bogus"]
        calls = [usage_error, ["chi", example, "--output", "json"], usage_error]
        alone = []
        for argv in calls:
            cli._parser.cache_clear()
            alone.append(run_to_exit(capsys, *argv))
        cli._parser.cache_clear()
        together = [run_to_exit(capsys, *argv) for argv in calls]
        assert together == alone
        assert [rc for rc, _, _ in alone] == [2, 0, 2]
        assert "invalid choice: 'bogus'" in alone[0][2]

    def test_help_follows_the_terminal_width_after_caching(
        self, capsys, corpus_dir, monkeypatch
    ):
        run(capsys, "validate", corpus_path(corpus_dir, NET, "example.json"))
        assert cli._parser.cache_info().currsize == 1
        helps = {}
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            rc, helps[columns], _ = run_to_exit(capsys, "chi", "--help")
            assert rc == 0
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(["chi", "--help"])
            assert capsys.readouterr().out == helps[columns]
        # the narrow terminal wraps the option help onto more lines
        assert helps["40"].count("\n") > helps["200"].count("\n")

    @pytest.mark.parametrize(
        "command, defaults",
        [
            ("chi", {"--chi-method": "all"}),
            ("curvature", {"--degree": "out", "--triangles": "transitive"}),
            (
                "report",
                {"--chi-method": "all", "--degree": "out", "--triangles": "transitive"},
            ),
        ],
    )
    def test_help_names_the_defaults_applied(self, capsys, command, defaults):
        # --degree and --triangles default to None, so that giving either
        # without --directed is an error; their help names what applies
        rc, out, _ = run_to_exit(capsys, command, "--help")
        assert rc == 0
        blocks = re.findall(r"^  (--[\w-]+)(.*(?:\n {3,}.*)*)", out, re.M)
        help_of = {option: " ".join(text.split()) for option, text in blocks}
        for option, value in defaults.items():
            assert help_of[option].endswith(f"(default: {value})"), help_of[option]


class TestBrokenPipe:
    @pytest.mark.parametrize("command", ["validate", "chi", "report"])
    def test_closed_stdout_exits_3_with_one_line(self, corpus_dir, command):
        # with descriptor 1 closed, the interpreter sets sys.stdout to None
        proc = subprocess.run(
            [
                "sh",
                "-c",
                'exec "$0" -m hyperforman.cli "$1" "$2" >&-',
                sys.executable,
                command,
                str(corpus_path(corpus_dir, NET, "example.json")),
            ],
            stderr=subprocess.PIPE,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (
            3,
            b"error: standard output is closed\n",
        )

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["validate", "chi"])
    def test_closed_reader_exits_3_with_one_line(self, corpus_dir, command, unbuffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "hyperforman.cli",
                    command,
                    str(corpus_path(corpus_dir, NET, "example.json")),
                ],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (3, b"error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_closing_mid_write_exits_3_with_one_line(self, tmp_path, unbuffered):
        # about 400 KB of report into a pipe that holds 64 KiB: the reader
        # takes a few bytes and closes while the write is under way, so a
        # short write must not pass for a whole one
        f = tmp_path / "hub.json"
        f.write_text(serialize(hub_star(600), "json"))
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        try:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "hyperforman.cli",
                    "report",
                    str(f),
                    "--chi-method",
                    "delta",
                ],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        try:
            assert os.read(read_end, 10)
        finally:
            os.close(read_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (3, b"error: [Errno 32] Broken pipe\n")


class TestOutputEncoding:
    """A label that stdout's encoding cannot carry is an I/O failure: exit
    3, one ``error:`` line naming the encoding, and nothing on stdout.
    JSON escapes every non-ASCII character, so it still prints."""

    # 'é' is not ASCII, and '日' is not Latin-1 either
    NETWORKS = {
        "undirected": "V1: café 日\n",
        "directed": "V1: café\nV2: 日\nE>: V1 V2\n",
    }

    def curvature(self, tmp_path, encoding, kind, *flags):
        f = tmp_path / "labels.hnet"
        f.write_text(self.NETWORKS[kind], encoding="utf-8")
        env = dict(os.environ, PYTHONIOENCODING=encoding)
        return subprocess.run(
            [sys.executable, "-m", "hyperforman.cli", "curvature", str(f), *flags],
            capture_output=True,
            env=env,
            timeout=60,
        )

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("undirected", ()),
            ("undirected", ("--output", "csv")),
            ("directed", ("--directed",)),
            ("directed", ("--directed", "--output", "csv")),
        ],
        ids=["human", "csv", "directed-human", "directed-csv"],
    )
    def test_an_uncarried_label_exits_3_with_one_line(
        self, tmp_path, encoding, kind, flags
    ):
        proc = self.curvature(tmp_path, encoding, kind, *flags)
        assert (proc.returncode, proc.stdout) == (3, b"")
        line = f"error: standard output's encoding {encoding} cannot carry "
        assert proc.stderr.startswith(line.encode())
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"'\n")

    @pytest.mark.parametrize("output", ["human", "csv"])
    def test_an_uncarried_label_after_the_first_chunk_exits_3_with_one_line(
        self, tmp_path, output
    ):
        # the hub's edges come first, and its edge to {hub,zé} is the last
        # of them, so the one label ASCII cannot carry is printed only
        # after the first chunk of rows; it is checked before any is
        # written
        f = tmp_path / "late.hnet"
        leaves = [f"p{i:04d}" for i in range(cli._CHUNK + 100)] + ["z\u00e9"]
        f.write_text(
            "".join(f"V{i}: hub {p}\n" for i, p in enumerate(leaves)), encoding="utf-8"
        )
        argv = [sys.executable, "-m", "hyperforman.cli", "curvature", str(f)]
        argv += ["--output", output]
        env = dict(os.environ, PYTHONIOENCODING="utf-8")
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        first = next(i for i, line in enumerate(lines) if "\u00e9" in line)
        assert first > cli._CHUNK
        env["PYTHONIOENCODING"] = "ascii"
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr == (
            b"error: standard output's encoding ascii cannot carry '\\xe9'\n"
        )

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    @pytest.mark.parametrize("kind", ["undirected", "directed"])
    def test_json_escapes_every_label(self, tmp_path, encoding, kind):
        flags = ("--directed",) if kind == "directed" else ()
        proc = self.curvature(tmp_path, encoding, kind, *flags, "--output", "json")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.isascii()
        assert b"caf\\u00e9" in proc.stdout and b"\\u65e5" in proc.stdout
