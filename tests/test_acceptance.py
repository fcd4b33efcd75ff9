"""Acceptance gate: every criterion the artifact must meet, checked at
zero tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to
see one pass line per criterion.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import pytest

from hyperforman import (
    NotRanked,
    Poset,
    RankFunction,
    curvature_filtration,
    face_poset,
    forman_ricci,
    forman_ricci_closed,
    gauss_bonnet,
    order_complex,
    parse,
    poset_from_hypernetwork,
    random_hypernetwork,
    two_skeleton,
)
from hyperforman.curvature import DirectedComplex

from conftest import CORPUS_DIR, corpus_complexes
from helpers import disjoint_union

RANDOM_SEED = 20260810
N_RANDOM = 1000


@pytest.fixture(scope="module")
def random_batch():
    """1000 random order complexes at the mandated scale, plus the time
    spent building them (charged to criterion 1's budget)."""
    t0 = perf_counter()
    rng = random.Random(RANDOM_SEED)
    batch = []
    for i in range(N_RANDOM):
        h = random_hypernetwork(rng, max_nodes=12, max_hypervertices=6)
        p = poset_from_hypernetwork(h, include_singletons=(i % 4 != 3))
        batch.append(order_complex(p, skeleton_dim=2))
    return batch, perf_counter() - t0


@pytest.fixture(scope="module")
def corpus():
    return corpus_complexes()


def test_criterion_1_exact_curvature_balance(corpus, random_batch):
    batch, build_time = random_batch
    t0 = perf_counter()
    checked = 0
    for name, k in corpus.items():
        residual = gauss_bonnet(two_skeleton(k)).residual
        assert residual == 0, f"corpus complex {name}: residual {residual}"
        checked += 1
    for k in batch:
        residual = gauss_bonnet(k).residual
        assert residual == 0, f"random complex: residual {residual}"
        checked += 1
    elapsed = build_time + (perf_counter() - t0)
    assert elapsed < 10.0, f"criterion budget is 10s, took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 exact curvature balance: PASS "
        f"({checked} complexes, every residual exactly 0, {elapsed:.2f}s)"
    )


def test_criterion_2_closed_form_oracle(corpus, random_batch):
    batch, _ = random_batch
    edges = 0
    for name, k in corpus.items():
        k2 = two_skeleton(k)
        for e in k2.edges:
            assert forman_ricci(k2, e) == forman_ricci_closed(k2, e), (name, e)
            edges += 1
    for k in batch:
        for e in k.edges:
            assert forman_ricci(k, e) == forman_ricci_closed(k, e)
            edges += 1
    # hand-pinned values
    assert forman_ricci(corpus["triangle"], (0, 1)) == 3
    assert forman_ricci(corpus["path3"], (0, 1)) == 1
    assert forman_ricci(corpus["star_k13"], (0, 1)) == 0
    assert forman_ricci(corpus["tetrahedron"], (0, 1)) == 4
    print(
        f"\nACCEPTANCE 2 closed-form curvature oracle: PASS "
        f"({edges} edges, definitional == closed form everywhere)"
    )


def test_criterion_3_face_poset_coincidence(corpus, random_batch):
    batch, _ = random_batch
    checked = 0
    for name, k in corpus.items():
        fp = face_poset(k)
        assert isinstance(fp.rank_function(), RankFunction), name
        assert fp.ranked_euler_characteristic() == k.euler_characteristic(), name
        checked += 1
    for k in batch[:100]:
        fp = face_poset(k)
        assert fp.ranked_euler_characteristic() == k.euler_characteristic()
        checked += 1
    print(
        f"\nACCEPTANCE 3 face-poset chi coincidence: PASS ({checked} complexes)"
    )


def test_criterion_4_known_chi_values(corpus):
    assert corpus["tetrahedron"].euler_characteristic() == 2
    assert corpus["torus7"].euler_characteristic() == 0

    # any poset with a maximum element has a cone order complex
    rng = random.Random(RANDOM_SEED + 1)
    cones = 0
    for _ in range(50):
        h = random_hypernetwork(rng, max_nodes=8, max_hypervertices=4)
        sets = [frozenset({v}) for v in h.nodes]
        sets.extend(hv.nodes for hv in h.hypervertices)
        sets.append(frozenset(h.nodes))  # the maximum
        p = Poset.from_sets(sets)
        assert order_complex(p).euler_characteristic() == 1
        cones += 1
    chain = Poset.from_sets([frozenset(s) for s in ("a", "ab", "abc", "abcd")])
    assert order_complex(chain).euler_characteristic() == 1

    # disjoint union additivity over corpus pairs
    names = sorted(corpus)
    pairs = 0
    for i in range(len(names)):
        for j in range(i, min(i + 3, len(names))):
            a, b = corpus[names[i]], corpus[names[j]]
            assert (
                disjoint_union(a, b).euler_characteristic()
                == a.euler_characteristic() + b.euler_characteristic()
            )
            pairs += 1
    print(
        f"\nACCEPTANCE 4 known chi values: PASS "
        f"(tetrahedron 2, torus 0, {cones + 1} cone posets, {pairs} unions)"
    )


def test_criterion_5_non_coincidence_witness():
    p = Poset.from_sets(
        [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    )
    chi_delta = order_complex(p).euler_characteristic()
    chi_rank = p.ranked_euler_characteristic()
    assert chi_delta == 1
    assert chi_rank == 0
    print(
        "\nACCEPTANCE 5 non-coincidence witness: PASS "
        "(bottomed 2-set lattice: order-complex chi 1, rank chi 0)"
    )


def test_criterion_6_directed_fidelity():
    dc = DirectedComplex.from_arcs(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])

    # independent substitution, term by term, in Fraction arithmetic:
    # out-degrees a=2 b=1 c=0; one transitive triangle above every edge
    degs = [2, 1, 0]
    assert dc.io_degrees("out") == degs
    vertex_part = sum(1 + Fraction(3, 2) * d - d * d for d in degs)
    edge_part = sum(
        4 + 3 * 1 - (degs[u] + degs[v]) for u, v in [(0, 1), (1, 2), (0, 2)]
    )
    expected = vertex_part - edge_part + 28 * 1
    assert expected == Fraction(31, 2)

    value = dc.directed_euler_formula("out", "transitive")
    assert value == expected
    assert value == Fraction(31, 2)
    assert dc.directed_euler_count("transitive") == 1

    cycle = DirectedComplex.from_arcs(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
    assert cycle.directed_euler_count("transitive") == 0
    assert cycle.directed_euler_count("cyclic") == 1
    print(
        "\nACCEPTANCE 6 directed fidelity: PASS "
        "(formula reproduces the independent 31/2; counts 1/0/1)"
    )


def test_criterion_7_rank_function_behaviour():
    conflict = Poset.from_sets(
        [frozenset(s) for s in ("a", "ab", "cd", "abcd")]
    )
    rf = conflict.rank_function()
    assert isinstance(rf, NotRanked)
    assert rf.element == frozenset("abcd")
    assert rf.ranks == (1, 2)

    files = 0
    for tier in ("networks", "directed"):
        for path in sorted((CORPUS_DIR / tier).iterdir()):
            fmt = "json" if path.suffix == ".json" else "text"
            h = parse(path.read_bytes(), fmt)
            p = poset_from_hypernetwork(h, include_singletons=True)
            rank = p.rank_function()
            assert isinstance(rank, RankFunction), path.name
            for i, e in enumerate(p.elements):
                if len(e) == 1:
                    assert rank.ranks[i] == 0, (path.name, e)
            files += 1
    print(
        f"\nACCEPTANCE 7 rank-function behaviour: PASS "
        f"(conflict witness {{a,b,c,d}} needs ranks 1 and 2; "
        f"{files} corpus networks ranked with singletons at rank 0)"
    )


def test_criterion_8_filtration(corpus):
    for name, k in corpus.items():
        k2 = two_skeleton(k)
        steps = curvature_filtration(k2, gauss_bonnet(k2).ricci)
        if k2.n_vertices == 0:
            continue
        assert steps, name
        assert steps[-1].f_vector == (k2.f_vector() + (0, 0, 0))[:3], name
        assert steps[-1].chi == k2.euler_characteristic(), name
        for a, b in zip(steps, steps[1:]):
            assert all(x <= y for x, y in zip(a.f_vector, b.f_vector)), name
    print(
        f"\nACCEPTANCE 8 filtration: PASS "
        f"({len(corpus)} complexes: monotone, final step reproduces the complex)"
    )


def test_criterion_9_report_determinism():
    inputs = [
        ("report", str(CORPUS_DIR / "networks" / "example.json")),
        ("report", str(CORPUS_DIR / "scaffolds" / "boolean2.poset.json")),
        (
            "report",
            str(CORPUS_DIR / "directed" / "chain_dag.json"),
            "--directed",
            "--degree",
            "out",
            "--triangles",
            "transitive",
        ),
    ]
    for argv in inputs:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-m", "hyperforman.cli", *argv],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            json.loads(proc.stdout)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv
    print(
        "\nACCEPTANCE 9 report determinism: PASS "
        "(byte-identical across runs and hash seeds, 3 inputs)"
    )
