import json
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings

from hyperforman import (
    ChainCapExceeded,
    Hypernetwork,
    HypernetworkError,
    Hypervertex,
    ParseError,
    geometric_euler_characteristic,
    parse,
    poset_from_hypernetwork,
    random_hypernetwork,
    serialize,
)
from hyperforman.hypernet import _edge, _facets

from conftest import (
    dense_shaped,
    example_network,
    hub_star,
    hypernetworks,
    overlap_network,
    wide_shaped,
)
from helpers import (
    brute_geometric_chi,
    brute_geometric_faces,
    brute_geometric_facets,
    clique_expansion,
    frozenset_geometric_walk,
    geometric_complex,
)

EXAMPLE_JSON = json.dumps(
    {
        "nodes": ["a", "b", "c"],
        "hypervertices": [
            {"id": "V1", "nodes": ["a", "b"]},
            {"id": "V2", "nodes": ["b", "c"]},
        ],
        "hyperedges": [{"id": "E12", "tail": "V1", "head": "V2"}],
    }
)

EXAMPLE_TEXT = """\
# running example
V1: a b
V2: b c
E: V1 V2
"""


def strip_edge_ids(h: Hypernetwork):
    return (
        h.nodes,
        h.hypervertices,
        tuple((e.tail, e.head, e.directed) for e in h.hyperedges),
        h.directed,
    )


class TestParsing:
    def test_json_example(self):
        h = parse(EXAMPLE_JSON, "json")
        assert len(h.nodes) == 3
        assert len(h.hypervertices) == 2
        assert len(h.hyperedges) == 1
        assert h == example_network()

    def test_text_equivalent_to_json(self):
        h_text = parse(EXAMPLE_TEXT, "text")
        h_json = parse(EXAMPLE_JSON, "json")
        assert strip_edge_ids(h_text) == strip_edge_ids(h_json)

    def test_unknown_hypervertex_reference(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hyperedges"][0]["head"] = "V9"
        with pytest.raises(HypernetworkError, match="unknown hypervertex 'V9'"):
            parse(json.dumps(bad), "json")

    def test_unknown_node_reference(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hypervertices"][0]["nodes"] = ["a", "zz"]
        with pytest.raises(HypernetworkError, match="unknown node 'zz'"):
            parse(json.dumps(bad), "json")

    def test_duplicate_hypervertex_id(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hypervertices"][1]["id"] = "V1"
        with pytest.raises(HypernetworkError, match="duplicate hypervertex id"):
            parse(json.dumps(bad), "json")

    def test_duplicate_hyperedge_id(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hypervertices"].append({"id": "V3", "nodes": ["a"]})
        bad["hyperedges"].append({"id": "E12", "tail": "V1", "head": "V3"})
        with pytest.raises(HypernetworkError, match="duplicate hyperedge id"):
            parse(json.dumps(bad), "json")

    def test_hyper_loop_rejected(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hyperedges"][0]["head"] = "V1"
        with pytest.raises(HypernetworkError, match="hyper-loop"):
            parse(json.dumps(bad), "json")

    def test_empty_hypervertex_rejected(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hypervertices"][0]["nodes"] = []
        with pytest.raises(HypernetworkError, match="empty hypervertex"):
            parse(json.dumps(bad), "json")

    def test_duplicate_pair_rejected(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hyperedges"].append({"id": "E21", "tail": "V2", "head": "V1"})
        with pytest.raises(HypernetworkError, match="same hypervertex pair"):
            parse(json.dumps(bad), "json")

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ParseError, match="JSON nests too deeply"):
            parse("[" * 100_000 + "]" * 100_000, "json")

    def test_oversized_integer_rejected(self):
        # past Python's int-string digit limit json.loads raises a bare
        # ValueError, not JSONDecodeError
        with pytest.raises(ParseError, match="^invalid JSON: an integer has more than"):
            parse('{"nodes": [], "x": ' + "1" * 5000 + "}", "json")

    # a str, unlike UTF-8 bytes, can carry a raw surrogate code point
    def test_raw_surrogate_rejected_in_json(self):
        with pytest.raises(ParseError, match=r"surrogate code point \\ud800"):
            parse('{"nodes": ["a", "\ud800"]}', "json")

    def test_raw_surrogate_rejected_in_text(self):
        with pytest.raises(ParseError, match=r"surrogate code point \\udc00"):
            parse("V1: a \udc00\n", "text")

    def test_repeated_member_rejected(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hypervertices"][0]["nodes"] = ["a", "b", "a"]
        with pytest.raises(ParseError, match=r"\[0\]\.nodes repeats node 'a'"):
            parse(json.dumps(bad), "json")
        with pytest.raises(ParseError, match="line 2: hypervertex 'V2' repeats node"):
            parse("V1: a b\nV2: b c b\n", "text")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse("{invalid", "json")
        with pytest.raises(ParseError, match="line 2"):
            parse("V1: a\nE: V1\n", "text")

    def test_kary_edge_rejected_in_text(self):
        with pytest.raises(ParseError, match="exactly two"):
            parse("V1: a\nV2: b\nV3: c\nE: V1 V2 V3\n", "text")

    def test_kary_edge_rejected_in_json(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["hyperedges"][0]["nodes"] = ["V1", "V2", "V9"]
        with pytest.raises(ParseError, match="exactly two"):
            parse(json.dumps(bad), "json")

    def test_directed_flag_requires_directed_edges(self):
        bad = json.loads(EXAMPLE_JSON)
        bad["directed"] = True
        with pytest.raises(HypernetworkError, match="marked directed"):
            parse(json.dumps(bad), "json")

    def test_text_comments_and_blank_lines(self):
        h = parse("\n# c\n  # another\nV1: a b\n\n", "text")
        assert len(h.hypervertices) == 1

    def test_directed_text_edges(self):
        h = parse("A: a\nB: b\nE>: A B\n", "text")
        assert h.directed
        assert h.hyperedges[0].directed

    def test_empty_network(self):
        h = parse('{"nodes": [], "hypervertices": [], "hyperedges": []}', "json")
        assert h == Hypernetwork()

    def test_undirected_edge_normalized(self):
        h = parse(
            '{"nodes": ["a"], "hypervertices": [{"id": "Z", "nodes": ["a"]},'
            ' {"id": "A", "nodes": ["a"]}],'
            ' "hyperedges": [{"id": "E1", "tail": "Z", "head": "A"}]}',
            "json",
        )
        assert (h.hyperedges[0].tail, h.hyperedges[0].head) == ("A", "Z")


# two unwritable nodes and three unknown ones; each error must name the
# least of them, not the one that set order happens to put first
NAMING_SCRIPT = """
from hyperforman import Hypernetwork, HypernetworkError, Hypervertex, serialize
nodes = ["c:d", "a b", "q", "x", "y", "z"]
h = Hypernetwork(frozenset(nodes), (Hypervertex("V", frozenset(nodes)),))
try:
    serialize(h, "text")
except ValueError as ex:
    print(ex)
try:
    Hypernetwork(frozenset("q"), (Hypervertex("V", frozenset("qzyx")),))
except HypernetworkError as ex:
    print(ex)
"""


def test_errors_name_the_same_node_under_every_hash_seed():
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", NAMING_SCRIPT], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs == [
        b"token 'a b' cannot be written in text format\n"
        b"hypervertex 'V' references unknown node 'x'\n"
    ] * 2


class TestRoundTrip:
    @given(hypernetworks())
    def test_json_round_trip(self, h):
        assert parse(serialize(h, "json"), "json") == h

    @given(hypernetworks(covered_only=True))
    def test_text_round_trip(self, h):
        assert parse(serialize(h, "text"), "text") == h

    def test_round_trip_directed_corpus(self, corpus_dir):
        for path in sorted((corpus_dir / "directed").iterdir()):
            h = parse(path.read_bytes(), "json")
            assert parse(serialize(h, "json"), "json") == h, path.name
            assert parse(serialize(h, "text"), "text") == h, path.name

    def test_text_cannot_express_isolated_nodes(self):
        h = Hypernetwork(nodes=frozenset({"a"}))
        with pytest.raises(ValueError, match="text format"):
            serialize(h, "text")

    def test_text_cannot_express_mismatched_directed_flag(self):
        # a single directed edge with the network flag left false is
        # JSON-expressible, but the text reader would infer "directed"
        h = Hypernetwork(
            frozenset("ab"),
            (Hypervertex("A", frozenset("a")), Hypervertex("B", frozenset("b"))),
            (_edge("E1", "A", "B", directed=True),),
            directed=False,
        )
        assert parse(serialize(h, "json"), "json") == h
        with pytest.raises(ValueError, match="directed flag"):
            serialize(h, "text")


class TestCliqueExpansion:
    """The graph-view oracle of ``test_clique_expansion_is_one_skeleton``,
    pinned on hand-checked networks."""

    def test_example(self, example_net):
        cx = clique_expansion(example_net)
        assert cx.labels == ("a", "b", "c")
        assert cx.faces(1) == [(0, 1), (0, 2), (1, 2)]
        assert cx.dim == 1

    def test_single_hypervertex_is_clique(self):
        h = Hypernetwork(
            frozenset("abc"), (Hypervertex("V", frozenset("abc")),), ()
        )
        cx = clique_expansion(h)
        assert cx.f_vector() == (3, 3)

    def test_disjoint_cliques(self):
        h = Hypernetwork(
            frozenset("abcd"),
            (Hypervertex("V1", frozenset("ab")), Hypervertex("V2", frozenset("cd"))),
            (),
        )
        cx = clique_expansion(h)
        assert cx.f_vector() == (4, 2)
        assert set(cx.faces(1)) == {
            tuple(sorted((cx.labels.index("a"), cx.labels.index("b")))),
            tuple(sorted((cx.labels.index("c"), cx.labels.index("d")))),
        }

    def test_overlapping_sides_skip_shared_nodes(self):
        # shared node must not pair with itself across the hyperedge
        h = Hypernetwork(
            frozenset("abc"),
            (Hypervertex("V1", frozenset("ab")), Hypervertex("V2", frozenset("bc"))),
            (_edge("E", "V1", "V2", False),),
        )
        cx = clique_expansion(h)
        assert all(len(set(e)) == 2 for e in cx.faces(1))


class TestGeometricComplex:
    def test_example_fills_triangle(self, example_net):
        # oracle: subsets of {a,b,c} with at most 3 members
        cx = geometric_complex(example_net)
        assert cx.f_vector() == (3, 3, 1)
        assert cx.euler_characteristic() == 1

    def test_two_disjoint_segments(self):
        h = Hypernetwork(
            frozenset("abcd"),
            (Hypervertex("V1", frozenset("ab")), Hypervertex("V2", frozenset("cd"))),
            (),
        )
        cx = geometric_complex(h)
        assert cx.f_vector() == (4, 2)
        assert cx.euler_characteristic() == 2

    def test_four_set_truncates_to_two_skeleton(self):
        h = Hypernetwork(
            frozenset("abcd"), (Hypervertex("V", frozenset("abcd")),), ()
        )
        cx = geometric_complex(h)
        # C(4,1), C(4,2), C(4,3) faces of the solid simplex
        assert cx.f_vector() == (4, 6, 4)
        assert cx.euler_characteristic() == 2

    @given(hypernetworks())
    def test_clique_expansion_is_one_skeleton(self, h):
        assert set(clique_expansion(h).faces(1)) == set(
            geometric_complex(h).faces(1)
        )
        assert clique_expansion(h).labels == geometric_complex(h).labels


def facet_sets(h: Hypernetwork, masks: list[int]) -> list[frozenset]:
    """Node bitmasks of h as node sets, in their order."""
    labels = sorted(h.nodes)
    return [frozenset(n for i, n in enumerate(labels) if m >> i & 1) for m in masks]


def vertex(hv_id: str, nodes: str) -> Hypervertex:
    return Hypervertex(hv_id, frozenset(nodes))


class TestFacets:
    """``_facets`` on the poset built with singletons and on the one
    built without, against the generators no generator strictly
    contains."""

    def assert_facets(self, h):
        found = []
        for include_singletons in (True, False):
            p = poset_from_hypernetwork(h, include_singletons=include_singletons)
            masks = _facets(h, p)
            assert masks == sorted(set(masks), key=lambda m: (m.bit_count(), m))
            found.append(facet_sets(h, masks))
        # in order too: the order fixes the walk's visit counts
        assert found[0] == found[1]
        assert set(found[0]) == brute_geometric_facets(h)
        return found[0]

    @pytest.mark.parametrize(
        "h, expected",
        [
            (Hypernetwork(), []),
            # an isolated node is a facet of its own
            (Hypernetwork(frozenset("abc"), (vertex("V", "ab"),)), ["c", "ab"]),
            # an edgeless hypervertex inside another one is no facet
            (
                Hypernetwork(frozenset("abc"), (vertex("V", "abc"), vertex("W", "ab"))),
                ["abc"],
            ),
            # a hypervertex equal to an edge union counts once
            (
                Hypernetwork(
                    frozenset("abcd"),
                    (
                        vertex("A", "a"),
                        vertex("B", "b"),
                        vertex("U", "ab"),
                        vertex("W", "cd"),
                    ),
                    (_edge("E1", "A", "B", False),),
                ),
                ["ab", "cd"],
            ),
            # nested endpoints: the union is the outer hypervertex
            (
                Hypernetwork(
                    frozenset("abcd"),
                    (vertex("A", "abc"), vertex("B", "ab"), vertex("C", "d")),
                    (_edge("E1", "A", "B", False), _edge("E2", "B", "C", False)),
                ),
                ["abc", "abd"],
            ),
            # directed edges, both ways, span the same unions
            (
                Hypernetwork(
                    frozenset("abcd"),
                    (vertex("A", "ab"), vertex("B", "bc"), vertex("C", "d")),
                    (
                        _edge("E1", "A", "B", True),
                        _edge("E2", "B", "A", True),
                        _edge("E3", "C", "B", True),
                    ),
                    directed=True,
                ),
                ["abc", "bcd"],
            ),
        ],
        ids=[
            "empty",
            "isolated-node",
            "hypervertex-in-hypervertex",
            "hypervertex-equals-union",
            "nested-endpoints",
            "directed",
        ],
    )
    def test_hand_made(self, h, expected):
        assert self.assert_facets(h) == [frozenset(f) for f in expected]

    @pytest.mark.parametrize(
        "draw, count",
        [(random_hypernetwork, 250), (dense_shaped, 40), (wide_shaped, 10)],
        ids=["random", "dense", "wide"],
    )
    def test_seeded_draws(self, draw, count):
        rng = random.Random(f"facets-{draw.__name__}")
        for _ in range(count):
            self.assert_facets(draw(rng))

    @given(hypernetworks())
    def test_hypothesis_draws(self, h):
        self.assert_facets(h)


class TestGeometricChi:
    @given(hypernetworks(max_nodes=6))
    @settings(max_examples=60)
    def test_matches_materialized_face_count(self, h):
        p = poset_from_hypernetwork(h)
        assert geometric_euler_characteristic(h, p) == brute_geometric_chi(h)

    def test_two_skeleton_agrees_when_low_dimensional(self, example_net):
        faces = brute_geometric_faces(example_net)
        assert max(len(f) for f in faces) <= 3
        assert (
            geometric_complex(example_net).euler_characteristic()
            == geometric_euler_characteristic(
                example_net, poset_from_hypernetwork(example_net)
            )
        )

    def test_empty_network(self):
        h = Hypernetwork()
        assert geometric_euler_characteristic(h, poset_from_hypernetwork(h)) == 0

    def test_matches_materialized_face_count_on_random_networks(self):
        rng = random.Random(0)
        for i in range(250):
            h = random_hypernetwork(rng)
            p = poset_from_hypernetwork(h)
            assert geometric_euler_characteristic(h, p) == brute_geometric_chi(h), i

    @pytest.mark.parametrize(
        "draw, count",
        [(random_hypernetwork, 250), (dense_shaped, 40), (wide_shaped, 10)],
        ids=["random", "dense", "wide"],
    )
    @pytest.mark.parametrize(
        "include_singletons", [True, False], ids=["singletons", "no-singletons"]
    )
    def test_masks_match_the_frozenset_walk(self, draw, count, include_singletons):
        rng = random.Random(f"geometric-{draw.__name__}")
        for i in range(count):
            h = draw(rng)
            p = poset_from_hypernetwork(h, include_singletons=include_singletons)
            chi, visits = frozenset_geometric_walk(h)
            assert geometric_euler_characteristic(h, p, cap=visits) == chi, i
            if not h.nodes:
                continue  # no generator, so no cap can be passed
            with pytest.raises(ChainCapExceeded) as ex:
                geometric_euler_characteristic(h, p, cap=visits - 1)
            assert ex.value.count == visits, i

    def test_hub_star_is_contractible(self):
        h = hub_star(1200)
        assert geometric_euler_characteristic(h, poset_from_hypernetwork(h)) == 1

    def test_heavily_overlapping_network_finishes(self):
        h = overlap_network(0)

        def give_up(signum, frame):
            raise TimeoutError("geometric chi took more than 10 s")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(10)
        try:
            chi = geometric_euler_characteristic(h, poset_from_hypernetwork(h))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert chi == brute_geometric_chi(h)


class TestModelIndependence:
    """chi agreement between the poset route and the simplex view."""

    def test_holds_on_network_corpus(self, corpus_dir):
        from hyperforman import order_complex

        for path in sorted((corpus_dir / "networks").iterdir()):
            fmt = "json" if path.suffix == ".json" else "text"
            h = parse(path.read_bytes(), fmt)
            p = poset_from_hypernetwork(h)
            delta = order_complex(p).euler_characteristic()
            assert delta == geometric_euler_characteristic(h, p), path.name

    def test_known_violation_is_pinned(self, corpus_dir):
        # two triples glued along a pair, with no hyperedge: the poset
        # route sees a circle, the simplex view a disk
        from hyperforman import order_complex

        h = parse(
            (corpus_dir / "scaffolds" / "overlapping_triples.json").read_bytes(),
            "json",
        )
        p = poset_from_hypernetwork(h)
        delta = order_complex(p).euler_characteristic()
        geo = geometric_euler_characteristic(h, p)
        assert delta == 0
        assert geo == 1
