import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperforman import (
    ChainCapExceeded,
    Poset,
    SimplicialComplex,
    forman_ricci,
    forman_ricci_closed,
    order_complex,
    poset_from_hypernetwork,
    random_hypernetwork,
)

from conftest import (
    ABSENT_EDGE_IDS,
    ABSENT_EDGES,
    complexes,
    hypernetworks,
    set_families,
)
from helpers import brute_chains, grouped_chains

F = frozenset


class TestConstruction:
    def test_closure_adds_subfaces(self):
        k = SimplicialComplex.from_faces(["a", "b", "c"], [(0, 1, 2)])
        assert k.f_vector() == (3, 3, 1)

    def test_all_labels_become_vertices(self):
        k = SimplicialComplex.from_faces(["a", "b", "c"], [(0, 1)])
        assert k.f_vector() == (3, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SimplicialComplex.from_faces(["a"], [(0, 1)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeats"):
            SimplicialComplex.from_faces(["a", "b"], [(0, 0)])

    def test_rejects_unclosed_claim(self):
        # the raw constructor trusts the buckets but still checks closure
        vertices = F({(0,), (1,), (2,)})
        with pytest.raises(ValueError, match="not downward closed"):
            SimplicialComplex(("a", "b", "c"), (vertices, F(), F({(0, 1, 2)})))
        with pytest.raises(ValueError, match=r"\(0, 1\) lacks \(1,\)"):
            SimplicialComplex(("a", "b"), (F({(0,)}), F({(0, 1)})))

    @pytest.mark.parametrize(
        "faces, message",
        [
            ((F({(0,), (1,)}), F({(1, 0)})), r"\(1, 0\) is not 2 strictly increasing"),
            ((F({(0,), (1,)}), F({(0,)})), r"\(0,\) is not 2 strictly increasing"),
            (([(0,), (1,)], [(0, 1), (0, 1)]), r"\(0, 1\) is listed twice"),
            (([(0,), (1,), (0,)], []), r"\(0,\) is listed twice"),
        ],
        ids=["decreasing-edge", "vertex-in-edges", "edge-twice", "vertex-twice"],
    )
    def test_rejects_malformed_buckets(self, faces, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(("a", "b"), faces)

    @given(complexes(), st.randoms(use_true_random=False))
    def test_sorts_shuffled_buckets_like_from_faces(self, k, rng):
        expected = SimplicialComplex.from_faces(
            k.labels, [f for b in k.faces_by_dim for f in b]
        )
        shuffled = []
        for bucket in expected.faces_by_dim:
            faces = list(bucket)
            rng.shuffle(faces)
            shuffled.append(faces)
        assert SimplicialComplex(expected.labels, tuple(shuffled)) == expected
        assert all(type(b) is tuple for b in expected.faces_by_dim)

    @pytest.mark.parametrize(
        "labels, faces",
        [(("a",), (((0,),), ())), ((), ((),))],
        ids=["empty-edges", "empty-vertices"],
    )
    def test_rejects_empty_top_bucket(self, labels, faces):
        # the same faces would otherwise make a complex one dimension up,
        # unequal to the one from_faces builds
        with pytest.raises(ValueError, match=r"top bucket \(dimension \d\) is empty"):
            SimplicialComplex(labels, faces)
        assert SimplicialComplex(labels, faces[:-1]) == SimplicialComplex.from_faces(
            labels, []
        )

    @pytest.mark.parametrize(
        "labels, faces",
        [
            (("a", "b"), (F({(0,)}),)),
            (("a",), (F({(0,), (1,)}), F({(0, 1)}))),
            (("a",), ()),
        ],
        ids=["missing-vertex", "vertex-past-labels", "no-faces"],
    )
    def test_rejects_vertices_that_disagree_with_labels(self, labels, faces):
        with pytest.raises(ValueError, match="vertices do not match"):
            SimplicialComplex(labels, faces)

    def test_empty_complex(self):
        k = SimplicialComplex.from_faces([], [])
        assert k.dim == -1
        assert k.f_vector() == ()
        assert k.euler_characteristic() == 0
        assert SimplicialComplex((), ()) == k

    @given(complexes())
    def test_has_face_agrees_with_faces(self, k):
        assert not k.has_face(())
        for d in range(k.dim + 3):
            present = set(k.faces(d))
            # every present face, and absent ones: non-faces, faces past
            # dim and faces through the vertex past the labels
            tried = islice(combinations(range(k.n_vertices + 1), d + 1), 300)
            for f in present.union(tried):
                assert k.has_face(f) == (f in present), f
                assert k.has_face(reversed(f)) == (f in present), f

    @given(complexes())
    def test_always_downward_closed(self, k):
        for d in range(1, k.dim + 1):
            for f in k.faces(d):
                for sub in combinations(f, d):
                    assert k.has_face(sub)


def assert_same_complex(k, checked, note):
    """k equals the checked complex, and so do the edge -> triangles
    index and the degrees cached from it. Dataclass equality compares
    the sorted buckets, so it covers the order of the edges and
    triangles, but never looks at those caches."""
    assert k == checked, note
    for e in checked.edges:
        assert k.triangles_containing(e) == checked.triangles_containing(e), note
    for v in range(checked.n_vertices):
        assert k.degree(v) == checked.degree(v), note


def assert_order_complex_matches_brute_chains(p):
    labels = [p.element_label(i) for i in range(len(p))]
    for d in (None, 0, 1, 2):
        chains = brute_chains(p.elements, None if d is None else d + 1)
        checked = SimplicialComplex.from_faces(labels, chains)
        assert_same_complex(order_complex(p, d), checked, d)


class TestOrderComplex:
    def test_example_poset(self, example_net):
        p = poset_from_hypernetwork(example_net)
        cx = order_complex(p)
        assert cx.f_vector() == (6, 9, 4)
        assert cx.dim == 2
        assert cx.euler_characteristic() == 1

    def test_matches_hand_transcription(self, example_net, corpus):
        p = poset_from_hypernetwork(example_net)
        assert order_complex(p) == corpus["example_order"]

    def test_boolean_lattice_cone(self):
        p = Poset.from_sets([F(""), F("a"), F("b"), F("ab")])
        cx = order_complex(p)
        assert cx.f_vector() == (4, 5, 2)
        assert cx.euler_characteristic() == 1

    def test_antichain(self):
        p = Poset.from_sets([F("a"), F("b"), F("c")])
        cx = order_complex(p)
        assert cx.f_vector() == (3,)
        assert cx.dim == 0

    def test_skeleton_dim_bounds_faces(self, example_net):
        p = poset_from_hypernetwork(example_net)
        cx = order_complex(p, skeleton_dim=1)
        assert cx.f_vector() == (6, 9)
        with pytest.raises(ValueError, match="skeleton dimension"):
            order_complex(p, skeleton_dim=-1)

    @given(hypernetworks(max_nodes=6, max_hypervertices=3))
    @settings(max_examples=50)
    def test_f_vector_counts_chains(self, h):
        p = poset_from_hypernetwork(h)
        cx = order_complex(p)
        by_size: dict[int, int] = {}
        for c in brute_chains(p.elements):
            by_size[len(c)] = by_size.get(len(c), 0) + 1
        assert cx.f_vector() == tuple(
            by_size.get(m, 0) for m in range(1, max(by_size, default=1) + 1)
        )

    @given(set_families(max_universe=5, max_sets=7))
    @settings(max_examples=60)
    def test_matches_brute_chains(self, fam):
        assert_order_complex_matches_brute_chains(Poset.from_sets(fam))

    @pytest.mark.parametrize(
        "fam", [[], [F("a"), F("b"), F("c")]], ids=["empty", "antichain"]
    )
    def test_matches_brute_chains_without_edges(self, fam):
        assert_order_complex_matches_brute_chains(Poset.from_sets(fam))

    @pytest.mark.parametrize("singletons", [True, False])
    def test_matches_brute_chains_on_random_networks(self, singletons):
        rng = random.Random(11 + singletons)
        for _ in range(40):
            h = random_hypernetwork(rng, max_nodes=6, max_hypervertices=4)
            assert_order_complex_matches_brute_chains(
                poset_from_hypernetwork(h, include_singletons=singletons)
            )

    def test_cap_is_counted_before_listing(self, example_net, monkeypatch):
        def listing(*args, **kwargs):
            raise AssertionError("Poset.chains or Poset.chain_counts was called")

        p = poset_from_hypernetwork(example_net)  # f = (6, 9, 4)
        monkeypatch.setattr(Poset, "chains", listing)
        monkeypatch.setattr(Poset, "chain_counts", listing)
        with pytest.raises(ChainCapExceeded) as caught:
            order_complex(p, chain_cap=10)
        assert (caught.value.count, caught.value.cap) == (15, 10)
        assert str(caught.value) == (
            "order complex has 15 faces up to dimension 1, "
            "over the chain cap of 10"
        )
        assert order_complex(p, chain_cap=19).f_vector() == (6, 9, 4)

    @pytest.mark.parametrize("skeleton_dim", [None, 0, 1, 2, 4])
    def test_levels_match_the_chain_listing(self, skeleton_dim):
        max_length = None if skeleton_dim is None else skeleton_dim + 1
        rng = random.Random(23)
        posets = [Poset.from_sets([])]
        for i in range(60):
            h = random_hypernetwork(rng, max_nodes=16, max_hypervertices=9)
            posets.append(poset_from_hypernetwork(h, include_singletons=i % 4 != 3))
        assert max(len(grouped_chains(p)) for p in posets) > 5
        for p in posets:
            cx = order_complex(p, skeleton_dim)
            assert cx.faces_by_dim == grouped_chains(p, max_length)
            assert all(list(b) == sorted(b) for b in cx.faces_by_dim)

    @given(hypernetworks(max_nodes=6, max_hypervertices=3))
    @settings(max_examples=40)
    def test_chi_invariant_under_node_relabeling(self, h):
        from hyperforman import Hypernetwork, Hypervertex

        # reverse the lexicographic order of the node labels so the
        # canonical element indexing genuinely changes
        ren = {n: f"m{99 - int(n[1:])}" for n in h.nodes}
        relabeled = Hypernetwork(
            frozenset(ren[n] for n in h.nodes),
            tuple(
                Hypervertex(hv.id, frozenset(ren[n] for n in hv.nodes))
                for hv in h.hypervertices
            ),
            h.hyperedges,
            h.directed,
        )
        chi = order_complex(poset_from_hypernetwork(h)).euler_characteristic()
        chi2 = order_complex(
            poset_from_hypernetwork(relabeled)
        ).euler_characteristic()
        assert chi == chi2


class TestEulerCharacteristic:
    def test_known_values(self, corpus):
        assert corpus["tetrahedron"].f_vector() == (4, 6, 4)
        assert corpus["tetrahedron"].euler_characteristic() == 2
        assert corpus["torus7"].f_vector() == (7, 21, 14)
        assert corpus["torus7"].euler_characteristic() == 0

    def test_torus_is_a_closed_surface(self, corpus):
        torus = corpus["torus7"]
        for e in torus.edges:
            assert len(torus.triangles_containing(e)) == 2


def assert_skeletons_match_closed_faces(checked):
    for d in range(checked.dim + 2):
        faces = [f for b in checked.faces_by_dim[: d + 1] for f in b]
        expected = SimplicialComplex.from_faces(checked.labels, faces)
        assert_same_complex(checked.skeleton(d), expected, d)


class TestSkeleton:
    def test_tetrahedron_one_skeleton(self, corpus):
        k1 = corpus["tetrahedron"].skeleton(1)
        assert k1.f_vector() == (4, 6)
        assert k1.euler_characteristic() == -2

    def test_identity_when_dim_not_exceeded(self, corpus):
        k = corpus["triangle"]
        assert k.skeleton(2) is k
        assert k.skeleton(5) is k

    def test_zero_skeleton(self, corpus):
        k0 = corpus["triangle"].skeleton(0)
        assert k0.f_vector() == (3,)
        assert k0.euler_characteristic() == 3

    @given(complexes())
    def test_matches_closed_faces_of_a_checked_complex(self, k):
        assert_skeletons_match_closed_faces(SimplicialComplex(k.labels, k.faces_by_dim))

    def test_matches_closed_faces_of_a_4_simplex(self):
        # every cut from 0 to past dim, a cut keeping the triangles included
        assert_skeletons_match_closed_faces(
            SimplicialComplex.from_faces("abcdef", [(0, 1, 2, 3, 4), (4, 5)])
        )

    @given(complexes())
    def test_chi_is_alternating_prefix_sum(self, k):
        f = k.f_vector()
        for d in range(k.dim + 1):
            expected = sum((-1) ** i * f[i] for i in range(d + 1))
            assert k.skeleton(d).euler_characteristic() == expected


class TestDegree:
    @given(complexes())
    def test_matches_brute_count(self, k):
        for v in range(k.n_vertices):
            assert k.degree(v) == sum(1 for e in k.faces(1) if v in e)

    # degrees sit in a tuple, where -1 would silently name the last vertex
    @pytest.mark.parametrize("v", [-1, 3], ids=["negative", "past-labels"])
    def test_absent_vertex_raises(self, corpus, v):
        with pytest.raises(ValueError, match="not in the complex"):
            corpus["path3"].degree(v)


EDGE_QUERIES = (
    SimplicialComplex.triangles_containing,
    forman_ricci,
    forman_ricci_closed,
)


class TestTrianglesContaining:
    def test_tetrahedron_every_edge_in_two(self, corpus):
        k = corpus["tetrahedron"]
        for e in k.edges:
            assert len(k.triangles_containing(e)) == 2

    def test_single_triangle(self, corpus):
        assert corpus["triangle"].triangles_containing((0, 1)) == ((0, 1, 2),)

    def test_path_edge_has_none(self, corpus):
        assert corpus["path3"].triangles_containing((0, 1)) == ()

    @pytest.mark.parametrize("e", ABSENT_EDGES, ids=ABSENT_EDGE_IDS)
    def test_absent_edge_raises(self, corpus, e):
        with pytest.raises(ValueError, match="not a face"):
            corpus["path3"].triangles_containing(e)

    @given(complexes())
    def test_any_form_of_an_edge_gives_the_same_answer(self, k):
        for u, v in k.edges:
            for query in EDGE_QUERIES:
                expected = query(k, (u, v))
                assert query(k, (v, u)) == expected
                assert query(k, [u, v]) == expected
                assert query(k, [v, u]) == expected

    @pytest.mark.parametrize("e", ABSENT_EDGES, ids=ABSENT_EDGE_IDS)
    @pytest.mark.parametrize("query", EDGE_QUERIES, ids=lambda q: q.__name__)
    def test_absent_edge_as_a_list_raises(self, corpus, query, e):
        with pytest.raises(ValueError, match="not a face"):
            query(corpus["path3"], list(e))

    @given(complexes())
    def test_sorted_like_brute_force(self, k):
        for e in k.edges:
            assert k.triangles_containing(e) == tuple(
                sorted(t for t in k.triangles if set(e) <= set(t))
            )


def parallel_count(k, e) -> int:
    """The number of edges parallel to e, read back from the curvature:
    ric(e) = #triangles on e - #parallels + 2."""
    return len(k.triangles_containing(e)) - forman_ricci(k, e) + 2


class TestParallelEdges:
    def test_path_neighbour_is_parallel(self, corpus):
        assert parallel_count(corpus["path3"], (0, 1)) == 1

    def test_triangle_has_none(self, corpus):
        # the other two edges share both a vertex and the triangle
        assert parallel_count(corpus["triangle"], (0, 1)) == 0

    def test_tetrahedron_has_none(self, corpus):
        k = corpus["tetrahedron"]
        for e in k.edges:
            assert parallel_count(k, e) == 0

    @pytest.mark.parametrize("e", ABSENT_EDGES, ids=ABSENT_EDGE_IDS)
    def test_absent_edge_raises(self, corpus, e):
        with pytest.raises(ValueError, match="not a face"):
            forman_ricci(corpus["path3"], e)
