from __future__ import annotations

import json
import random
import signal
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hyperforman import (
    Hypernetwork,
    Hypervertex,
    SimplicialComplex,
    order_complex,
    poset_from_hypernetwork,
)
from hyperforman.hypernet import _edge

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


def build(labels, faces) -> SimplicialComplex:
    return SimplicialComplex.from_faces(labels, faces)


def path_complex(n: int) -> SimplicialComplex:
    return build([f"p{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def cycle_complex(n: int) -> SimplicialComplex:
    return build(
        [f"c{i}" for i in range(n)],
        [(i, (i + 1) % n) for i in range(n)],
    )


def torus_complex() -> SimplicialComplex:
    # minimal 7-vertex triangulated torus: two triangle orbits mod 7
    tris = set()
    for i in range(7):
        tris.add(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.add(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    assert len(tris) == 14
    return build([f"t{i}" for i in range(7)], tris)


def example_order_complex() -> SimplicialComplex:
    # order complex of the running example's poset, transcribed by hand:
    # vertices 0..5 = {a},{b},{c},{a,b},{b,c},{a,b,c}
    labels = ["{a}", "{b}", "{c}", "{a,b}", "{b,c}", "{a,b,c}"]
    triangles = [(0, 3, 5), (1, 3, 5), (1, 4, 5), (2, 4, 5)]
    return build(labels, triangles)


def corpus_complexes() -> dict[str, SimplicialComplex]:
    """The bundled complex corpus: every shape the acceptance gate names."""
    triangle = build(["a", "b", "c"], [(0, 1, 2)])
    edge = build(["a", "b"], [(0, 1)])
    tetra = build(
        ["a", "b", "c", "d"],
        [t for t in combinations(range(4), 3)],
    )
    star = build(["hub", "x", "y", "z"], [(0, 1), (0, 2), (0, 3)])
    pendant = build(["a", "b", "c", "d"], [(0, 1, 2), (0, 3)])
    from helpers import disjoint_union

    return {
        "single_edge": edge,
        "path3": path_complex(3),
        "path5": path_complex(5),
        "cycle4": cycle_complex(4),
        "cycle5": cycle_complex(5),
        "star_k13": star,
        "triangle": triangle,
        "tetrahedron": tetra,
        "torus7": torus_complex(),
        "example_order": example_order_complex(),
        "pendant_triangle": pendant,
        "two_component_mixed": disjoint_union(triangle, edge),
        "two_component_cycles": disjoint_union(cycle_complex(4), path_complex(3)),
        "isolated_vertices": build(["u", "v", "w"], []),
    }


# on path3 (vertices 0, 1, 2; edges 01 and 12): a triangle, a vertex, a
# loop, a pair past the labels, and a vertex pair that is not an edge
ABSENT_EDGES = [(0, 1, 2), (0,), (0, 0), (1, 3), (0, 2)]
ABSENT_EDGE_IDS = ["triangle", "vertex", "loop", "out-of-range", "non-edge"]


@pytest.fixture(scope="session")
def corpus() -> dict[str, SimplicialComplex]:
    return corpus_complexes()


def example_network() -> Hypernetwork:
    return Hypernetwork(
        nodes=frozenset({"a", "b", "c"}),
        hypervertices=(
            Hypervertex("V1", frozenset({"a", "b"})),
            Hypervertex("V2", frozenset({"b", "c"})),
        ),
        hyperedges=(_edge("E12", "V1", "V2", False),),
    )


@pytest.fixture
def example_net() -> Hypernetwork:
    return example_network()


def hub_star(n: int) -> Hypernetwork:
    """n hypervertices {hub, p_i} that meet only in the hub."""
    leaves = [f"p{i}" for i in range(n)]
    return Hypernetwork(
        frozenset(["hub", *leaves]),
        tuple(
            Hypervertex(f"V{i}", frozenset({"hub", p})) for i, p in enumerate(leaves)
        ),
    )


def coatoms(n: int) -> Hypernetwork:
    """n hypervertices, each of all n nodes but one: every family of them
    has a common node, so geometric chi's intersections number 2^n."""
    nodes = [f"n{i}" for i in range(n)]
    return Hypernetwork(
        frozenset(nodes),
        tuple(
            Hypervertex(f"V{i}", frozenset(nodes[:i] + nodes[i + 1:]))
            for i in range(n)
        ),
    )


def _drawn_network(rng, n_nodes, sizes, n_hypervertices, n_hyperedges):
    """Hypervertices of sizes drawn from ``sizes`` over nodes n0, n1, ...
    (so n10 sorts before n9), joined by distinct random hyperedges."""
    nodes = [f"n{i}" for i in range(n_nodes)]
    hvs = tuple(
        Hypervertex(f"V{i}", frozenset(rng.sample(nodes, rng.choice(sizes))))
        for i in range(n_hypervertices)
    )
    pairs = rng.sample(list(combinations(range(n_hypervertices), 2)), n_hyperedges)
    edges = tuple(
        _edge(f"E{k}", f"V{a}", f"V{b}", False) for k, (a, b) in enumerate(pairs)
    )
    return Hypernetwork(frozenset(nodes), hvs, edges)


def dense_shaped(rng: random.Random) -> Hypernetwork:
    """24 nodes, 28 hypervertices of 4 nodes and 28 hyperedges: most
    generator families meet."""
    return _drawn_network(rng, 24, (4,), 28, 28)


def wide_shaped(rng: random.Random) -> Hypernetwork:
    """70-200 nodes (wider than one machine word), 0.75 hypervertices of
    1-6 nodes per node and 1.5 hyperedges per node: most meets are empty."""
    n = rng.randint(70, 200)
    return _drawn_network(rng, n, range(1, 7), 3 * n // 4, 3 * n // 2)


def overlap_network(seed: int) -> Hypernetwork:
    """35 nodes, 72 hypervertices of 1-6 nodes and 192 hyperedges: about
    6 * 10^16 families of maximal generators have a common node."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(35)]
    hvs = tuple(
        Hypervertex(f"V{i:02d}", frozenset(rng.sample(nodes, rng.randint(1, 6))))
        for i in range(72)
    )
    pairs = rng.sample(list(combinations(range(72), 2)), 192)
    edges = tuple(
        _edge(f"E{k}", f"V{a:02d}", f"V{b:02d}", False)
        for k, (a, b) in enumerate(pairs)
    )
    return Hypernetwork(frozenset(nodes), hvs, edges)


def tower_poset_json(n: int) -> str:
    """Poset input whose elements are the nested sets {n0}, {n0, n1}, ...
    up to n members: an n-chain with n(n - 1)/2 comparable pairs."""
    nodes = [f"n{i}" for i in range(n)]
    return json.dumps({"elements": [nodes[:k] for k in range(1, n + 1)]})


@contextmanager
def time_limit(seconds: int):
    """Fail the test, instead of hanging, if the block runs longer. The
    failure is not an exception that the CLI would catch and map."""

    def give_up(signum, frame):
        pytest.fail(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- hypothesis strategies ----------------------------------------------------


@st.composite
def set_families(draw, max_universe=6, max_sets=8, min_set_size=1):
    universe = list(range(draw(st.integers(1, max_universe))))
    return draw(
        st.lists(
            st.frozensets(st.sampled_from(universe), min_size=min_set_size),
            min_size=1,
            max_size=max_sets,
        )
    )


@st.composite
def hypernetworks(draw, max_nodes=7, max_hypervertices=4, covered_only=False):
    n = draw(st.integers(1, max_nodes))
    nodes = [f"n{i}" for i in range(n)]
    n_hv = draw(st.integers(0, max_hypervertices))
    hvs = []
    for i in range(n_hv):
        members = draw(
            st.sets(st.sampled_from(nodes), min_size=1, max_size=min(n, 4))
        )
        hvs.append(Hypervertex(f"V{i}", frozenset(members)))
    pairs = list(combinations(range(n_hv), 2))
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    edges = tuple(
        _edge(f"E{k + 1}", f"V{a}", f"V{b}", False)
        for k, (a, b) in enumerate(chosen)
    )
    node_set = frozenset(nodes)
    if covered_only:
        # the text format declares nodes only through hypervertices
        node_set = frozenset(x for hv in hvs for x in hv.nodes)
    return Hypernetwork(node_set, tuple(hvs), edges, False)


@st.composite
def complexes(draw):
    kind = draw(st.sampled_from(["order2", "order_full", "flag"]))
    if kind == "flag":
        from helpers import flag_two_complex

        n = draw(st.integers(1, 7))
        all_pairs = list(combinations(range(n), 2))
        edges = draw(
            st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
            if all_pairs
            else st.just([])
        )
        return flag_two_complex(n, edges)
    h = draw(hypernetworks())
    p = poset_from_hypernetwork(h, include_singletons=draw(st.booleans()))
    return order_complex(p, skeleton_dim=2 if kind == "order2" else None)
