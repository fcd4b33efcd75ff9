"""Tests of the benchmark itself: generators, output checker, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import gc
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

import child  # puts the checkout's src on sys.path
import gen
import run
import speed
from check import Invocation, check_invocation, check_pass
from tracing import LayerPass, Tracer, instrument, self_times

from hyperforman import cli
from hyperforman.hypernet import from_json_obj, parse

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


# -- generators ---------------------------------------------------------------


def _load(net: gen.Network, fmt: str):
    if fmt == "hnet":
        return parse(net.to_text(), "text")
    return from_json_obj(json.loads(net.to_json()))


@pytest.mark.parametrize("seed", [0, 7])
def test_wide_is_deterministic_and_exact(seed):
    nets = gen.wide(seed, n_nodes=80, networks=2)
    assert [n.to_json() for n in nets] == [n.to_json() for n in gen.wide(seed, 80, 2)]
    other = gen.wide(seed + 1, 80, 2)[0]
    assert nets[0].to_json() != other.to_json()
    # another seed relabels the same shape
    assert sorted(map(len, nets[0].hypervertices)) == sorted(map(len, other.hypervertices))
    assert nets[0].to_json() != nets[1].to_json()
    for net in nets:
        h = _load(net, "json")
        assert (len(h.nodes), len(h.hypervertices), len(h.hyperedges)) == (80, 60, 120)
        assert len({hv.nodes for hv in h.hypervertices}) == 60
        assert all(1 <= len(hv.nodes) <= 6 for hv in h.hypervertices)


def test_deep_is_deterministic_and_exact():
    (a,) = gen.deep(3, towers=3, depth=6, networks=1)
    assert a.to_text() == gen.deep(3, towers=3, depth=6, networks=1)[0].to_text()
    h = _load(a, "hnet")
    assert (len(h.nodes), len(h.hypervertices), len(h.hyperedges)) == (18, 18, 15)
    sets = sorted((hv.nodes for hv in h.hypervertices), key=len)
    # three disjoint towers: each set of size k > 1 contains one of size k - 1
    for s in sets:
        smaller = [t for t in sets if len(t) == len(s) - 1]
        assert len(s) == 1 or any(t < s for t in smaller)


def test_dense_is_deterministic_and_exact():
    nets = gen.dense(5, networks=2)
    assert [n.to_json() for n in nets] == [n.to_json() for n in gen.dense(5, networks=2)]
    assert nets[0].to_json() != gen.dense(6, networks=1)[0].to_json()
    lo, hi = gen.DENSE_FAMILIES
    for net in nets:
        h = _load(net, "json")
        assert (len(h.nodes), len(h.hypervertices), len(h.hyperedges)) == (24, 28, 28)
        assert all(len(hv.nodes) == 4 for hv in h.hypervertices)
        assert lo <= gen.intersecting_families(net) <= hi


def _brute_families(net: gen.Network) -> int:
    hvs = [frozenset(s) for s in net.hypervertices]
    gens = hvs + [hvs[a] | hvs[b] for a, b in net.hyperedges]
    gens += [frozenset({n}) for n in net.nodes]
    maximal = gen.maximal_generators(gens)
    return sum(
        1
        for r in range(1, len(maximal) + 1)
        for family in combinations(maximal, r)
        if frozenset.intersection(*family)
    )


@pytest.mark.parametrize("seed", range(4))
def test_intersecting_families_matches_enumeration(seed):
    rng = random.Random(seed)
    nodes = [f"x{i}" for i in range(7)]
    hvs = gen._distinct_sets(rng, nodes, 6, (2, 3))
    net = gen.Network(tuple(nodes), tuple(hvs), tuple(gen._distinct_pairs(rng, 6, 4)))
    assert gen.intersecting_families(net) == _brute_families(net)


# -- output checker -------------------------------------------------------------


@pytest.fixture(scope="module")
def small_input(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("in") / "small.json"
    path.write_text(gen.wide(2, n_nodes=40, networks=1)[0].to_json())
    return path


@pytest.fixture(scope="module")
def small_pass(small_input) -> list[Invocation]:
    commands = gen.WORKLOADS["wide"].commands
    return [child.invoke(cli, c, small_input) for c in commands]


def _tampered(inv: Invocation, old: str, new: str, last: bool = False) -> Invocation:
    if last:
        head, _, tail = inv.out.rpartition(old)
        out = head + new + tail
    else:
        out = inv.out.replace(old, new, 1)
    assert out != inv.out
    return Invocation(inv.command, inv.input, inv.argv, inv.rc, out, inv.err, inv.seconds)


def test_checker_accepts_real_output(small_pass):
    problems, reference = check_pass(small_pass)
    assert problems == {}
    assert reference["small.json"]["skeleton"][0] > 0


def test_checker_flags_nonzero_residual(small_pass):
    gb = next(i for i in small_pass if i.argv[0] == "gauss-bonnet")
    problems, _ = check_invocation(_tampered(gb, "residual = 0.0", "residual = 1/2"))
    assert any("residual" in p for p in problems)


def test_checker_flags_mismatched_edge(small_pass):
    cur = next(i for i in small_pass if i.argv[0] == "curvature")
    problems, _ = check_invocation(_tampered(cur, " ok\n", " MISMATCH\n"))
    assert any("not ok" in p for p in problems)


def test_checker_flags_report_and_cross_check_breaks(small_pass):
    rep = next(i for i in small_pass if i.argv[0] == "report")
    obj = json.loads(rep.out)
    obj["chi"]["delta"] += 1
    bad = Invocation(rep.command, rep.input, rep.argv, 0, json.dumps(obj), "", 0.0)
    problems, _ = check_invocation(bad)
    assert any("alternating sum" in p for p in problems)

    filt = next(i for i in small_pass if i.argv[0] == "filtrate")
    row = filt.out.splitlines()[-1]
    f0 = row.split("f=(")[1].split(",")[0]
    shifted = _tampered(filt, f"f=({f0},", f"f=({int(f0) + 1},", last=True)
    swapped = [shifted if i is filt else i for i in small_pass]
    problems_at, _ = check_pass(swapped)
    assert swapped.index(shifted) in problems_at


def test_checker_flags_exit_code(small_pass):
    inv = small_pass[0]
    failed = Invocation(inv.command, inv.input, inv.argv, 4, inv.out, "capped", 0.0)
    problems, _ = check_invocation(failed)
    assert problems and "exit code 4" in problems[0]


def test_warnings_are_recorded_on_every_repeat(tmp_path):
    path = tmp_path / "deep.hnet"
    path.write_text(gen.deep(1, towers=1, depth=5, networks=1)[0].to_text())
    counts = [child.invoke(cli, ("curvature",), path).warnings for _ in range(2)]
    assert counts == [1, 1]


# -- speed scaling --------------------------------------------------------------


def test_calibration_keeps_the_collector_state():
    for enabled in (False, True):
        (gc.enable if enabled else gc.disable)()
        assert speed.calibrate() > 0
        assert gc.isenabled() is enabled


def test_invocations_carry_their_calibration(small_input):
    inv = child.invoke(cli, ("chi",), small_input)
    assert inv.cal > 0
    assert speed.at_reference_speed(inv.seconds, speed.CAL_REF_S) == inv.seconds


# -- tracing ------------------------------------------------------------------


def test_traced_self_times_sum_to_command_time(tmp_path):
    path = tmp_path / "deep.hnet"
    path.write_text(gen.deep(1, towers=2, depth=7, networks=1)[0].to_text())
    originals = (cli.order_complex, cli.poset_from_hypernetwork)
    tracer = Tracer()
    instrument(tracer)
    try:
        inv = child.invoke(cli, ("report",), path, tracer)
    finally:
        tracer.restore()
    assert (cli.order_complex, cli.poset_from_hypernetwork) == originals
    assert inv.rc == 0
    spans, counters = tracer.take()
    names = {s.name for s in spans}
    assert {"cli.main", "poset.poset_from_hypernetwork", "poset.chains",
            "complexes.order_complex", "hypernet.geometric_euler_characteristic"} <= names
    assert counters["curvature.forman_ricci"][0] > 0
    root = next(s for s in spans if s.name == "cli.main")
    own = self_times(spans)
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) == pytest.approx(root.seconds, rel=1e-9)
    # the root span sits inside the externally timed window
    assert 0.8 * inv.seconds <= root.seconds <= inv.seconds

    layers = LayerPass()
    layers.add_invocation(path.name, spans, inv.warnings, len(inv.out))
    layers.add_counters(counters)
    m = layers.metrics()
    assert m["poset.build_calls"] == 2  # chi_values rebuilds the poset
    assert m["complexes.order_complex_calls"] == 2
    assert m["complexes.truncation_warnings"] == 1
    assert 0 < m["complexes.useful_ratio"] < 1


# -- the declared metrics -------------------------------------------------------


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == run.LAYER_UNITS
    assert set(LayerPass().metrics()) | {"trace.overhead_ratio"} == set(layer)
