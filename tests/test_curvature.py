import random
import warnings
from fractions import Fraction
from itertools import chain, combinations, permutations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperforman import (
    ChainCapExceeded,
    Poset,
    SimplicialComplex,
    curvature_filtration,
    filtration_balance,
    forman_ricci,
    forman_ricci_closed,
    gauss_bonnet,
    order_complex,
    poset_curvature_filtration,
    poset_from_hypernetwork,
    poset_gauss_bonnet,
    random_hypernetwork,
    two_skeleton,
    vertex_curvature,
)
from hyperforman.cli import load_input
from hyperforman.curvature import (
    DirectedComplex,
    DirectionError,
    _comparability_masks,
    poset_degrees,
    poset_edge_rows,
)

from conftest import ABSENT_EDGE_IDS, ABSENT_EDGES, complexes, hypernetworks
from helpers import (
    brute_balance_residual,
    brute_cliques,
    brute_directed_formula,
    brute_directed_triangles,
    brute_filtration,
    brute_neighbour_bits,
    brute_parallel,
    brute_ricci,
)


def subdivided_tetrahedron() -> SimplicialComplex:
    """The order complex of the nonempty subsets of a 4-set: the
    barycentric subdivision of a solid tetrahedron, dimension 3."""
    p = Poset.from_sets(
        frozenset(c) for r in range(1, 5) for c in combinations("abcd", r)
    )
    k = order_complex(p)
    assert k.dim == 3
    return k


def hub_and_fan(seed: int) -> SimplicialComplex:
    """A hub joined to every leaf, where a random share of the hub's
    edges lie in triangles: fan triangles on consecutive leaves, chords
    to random leaves, and a few triangles and bare edges among leaves
    alone. Parallels are counted from the hub's high degree minus the
    edges of shared triangles, so this is where a miscount shows."""
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    leaves = range(1, n + 1)
    faces: list[tuple[int, ...]] = [(0, i) for i in leaves]
    for i in range(1, n):
        if rng.random() < 0.5:
            faces.append((0, i, i + 1))
    for _ in range(rng.randint(0, 3)):
        faces.append((0, *rng.sample(leaves, 2)))
        faces.append(tuple(rng.sample(leaves, 3)))
        faces.append(tuple(rng.sample(leaves, 2)))
    return SimplicialComplex.from_faces([f"v{i}" for i in range(n + 1)], faces)


def refuse_skeleton(self, d):
    raise AssertionError("only edges and triangles may be read; no skeleton")


class TestFormanRicci:
    def test_triangle_edge(self, corpus):
        assert forman_ricci(corpus["triangle"], (0, 1)) == 1 - 0 + 2 == 3

    def test_path_edge(self, corpus):
        assert forman_ricci(corpus["path3"], (0, 1)) == 0 - 1 + 2 == 1

    def test_star_edge(self, corpus):
        assert forman_ricci(corpus["star_k13"], (0, 1)) == 0 - 2 + 2 == 0

    def test_closed_form_tetrahedron(self, corpus):
        k = corpus["tetrahedron"]
        for e in k.edges:
            assert forman_ricci_closed(k, e) == 4
            assert forman_ricci(k, e) == 2 - 0 + 2 == 4

    def test_closed_form_isolated_edge(self, corpus):
        assert forman_ricci_closed(corpus["single_edge"], (0, 1)) == 2

    def test_closed_form_four_cycle(self, corpus):
        assert forman_ricci_closed(corpus["cycle4"], (0, 1)) == 0
        assert forman_ricci(corpus["cycle4"], (0, 1)) == 0 - 2 + 2 == 0

    def test_absent_edge_raises(self, corpus):
        with pytest.raises(ValueError, match="not a face"):
            forman_ricci(corpus["triangle"], (0, 3))

    # the definitional route's five shapes are in TestParallelEdges
    @pytest.mark.parametrize("e", ABSENT_EDGES, ids=ABSENT_EDGE_IDS)
    def test_closed_form_absent_edge_raises(self, corpus, e):
        with pytest.raises(ValueError, match="not a face"):
            forman_ricci_closed(corpus["path3"], e)

    @given(complexes())
    def test_matches_brute_force(self, k):
        # the balance's one-pass table, taken on the 2-skeleton, matches too
        table = gauss_bonnet(k.skeleton(2) if k.dim > 2 else k).ricci
        assert list(table) == list(k.edges)
        for e in k.edges:
            brute = brute_ricci(k, e)
            assert forman_ricci(k, e) == brute
            assert table[e] == brute == forman_ricci_closed(k, e), e

    @given(complexes())
    def test_either_vertex_order(self, k):
        for e in k.edges:
            r = e[::-1]
            assert forman_ricci(k, r) == forman_ricci(k, e)
            assert forman_ricci_closed(k, r) == forman_ricci_closed(k, e)
            assert k.triangles_containing(r) == k.triangles_containing(e)

    def test_hub_and_fan_match_brute_force(self):
        for seed in range(20):
            k = hub_and_fan(seed)
            table = gauss_bonnet(k).ricci
            assert list(table) == list(k.edges)
            for e in k.edges:
                ric = forman_ricci(k, e)
                assert ric == brute_ricci(k, e) == forman_ricci_closed(k, e), (seed, e)
                assert table[e] == ric, (seed, e)

    def test_both_routes_on_corpus(self, corpus):
        for name, k in corpus.items():
            for e in k.edges:
                definitional = forman_ricci(k, e)
                assert definitional == forman_ricci_closed(k, e), (name, e)
                assert definitional == brute_ricci(k, e), (name, e)

    def test_high_dimensional_complex_needs_no_skeleton(self, monkeypatch):
        k = subdivided_tetrahedron()
        k2 = k.skeleton(2)
        expected = {
            e: (forman_ricci(k2, e), forman_ricci_closed(k2, e)) for e in k2.edges
        }
        monkeypatch.setattr(SimplicialComplex, "skeleton", refuse_skeleton)
        assert {
            e: (forman_ricci(k, e), forman_ricci_closed(k, e)) for e in k.edges
        } == expected

    @given(complexes())
    def test_definitional_equals_closed_form(self, k):
        if k.dim > 2:
            k = k.skeleton(2)
        for e in k.edges:
            assert forman_ricci(k, e) == forman_ricci_closed(k, e)


class TestVertexAndTriangleTerms:
    def test_degree_one(self, corpus):
        assert vertex_curvature(corpus["single_edge"], 0) == Fraction(3, 2)

    def test_degree_two(self, corpus):
        assert vertex_curvature(corpus["path3"], 1) == 0

    def test_isolated_vertex_counts_one(self, corpus):
        assert vertex_curvature(corpus["isolated_vertices"], 0) == 1

    def test_triangle_term_is_ten_everywhere(self, corpus):
        for name, k in corpus.items():
            assert gauss_bonnet(k).triangle_sum == 10 * len(k.triangles), name

    def test_no_triangles_zero_sum(self, corpus):
        assert gauss_bonnet(corpus["star_k13"]).triangle_sum == 0

    def test_absent_vertex(self, corpus):
        with pytest.raises(ValueError):
            vertex_curvature(corpus["triangle"], 9)


def assert_sums_consistent(k, rep) -> None:
    """Each sum of k's report adds up its terms, and the residual is the
    alternating total against chi."""
    terms = (vertex_curvature(k, v) for v in range(k.n_vertices))
    assert rep.vertex_sum == sum(terms, Fraction(0))
    assert rep.ricci_sum == sum(rep.ricci.values())
    assert rep.residual == rep.vertex_sum - rep.ricci_sum + rep.triangle_sum - rep.chi


class TestGaussBonnet:
    def test_single_triangle_sums(self, corpus):
        rep = gauss_bonnet(corpus["triangle"])
        assert rep.vertex_sum == 0
        assert rep.ricci_sum == 9
        assert rep.triangle_sum == 10
        assert rep.chi == 1
        assert rep.residual == 0
        assert_sums_consistent(corpus["triangle"], rep)

    def test_tetrahedron_sums(self, corpus):
        rep = gauss_bonnet(corpus["tetrahedron"])
        assert rep.vertex_sum == -14
        assert rep.ricci_sum == 24
        assert rep.triangle_sum == 40
        assert rep.chi == 2
        assert rep.residual == 0

    def test_example_order_complex_sums(self, corpus):
        rep = gauss_bonnet(corpus["example_order"])
        assert rep.vertex_sum == -27
        assert rep.ricci_sum == 12
        assert rep.triangle_sum == 40
        assert rep.chi == 1
        assert rep.residual == 0

    def test_example_order_complex_edge_table(self, corpus):
        # frozen from the hand enumeration over vertices
        # 0..5 = {a},{b},{c},{a,b},{b,c},{a,b,c}
        rep = gauss_bonnet(corpus["example_order"])
        assert rep.ricci == {
            (0, 3): 2,
            (0, 5): 0,
            (1, 3): 1,
            (1, 4): 1,
            (1, 5): 2,
            (2, 4): 2,
            (2, 5): 0,
            (3, 5): 2,
            (4, 5): 2,
        }

    def test_zero_residual_on_whole_corpus(self, corpus):
        for name, k in corpus.items():
            rep = gauss_bonnet(k)
            assert rep.residual == 0, name
            assert brute_balance_residual(k) == Fraction(0), name
            assert_sums_consistent(k, rep)

    def test_high_dimensional_complex_warns_and_truncates(self):
        from hyperforman import Poset

        # a 4-chain's order complex is the solid tetrahedron
        p = Poset.from_sets(
            [frozenset(s) for s in ("a", "ab", "abc", "abcd")]
        )
        cx = order_complex(p)
        assert cx.dim == 3
        with pytest.warns(UserWarning, match="2-skeleton"):
            rep = gauss_bonnet(cx)
        assert rep.chi == 2  # chi of the boundary sphere
        assert rep.residual == 0

    @given(complexes())
    def test_residual_zero_on_random_complexes(self, k):
        if k.dim > 2:
            k = k.skeleton(2)
        assert gauss_bonnet(k).residual == 0


def balance_numbers(rep) -> tuple:
    return (rep.vertex_sum, rep.ricci_sum, rep.triangle_sum, rep.chi, rep.residual)


def assert_counts_match_the_complex(p: Poset, skeleton: int | None) -> None:
    """The counted balance of p at ``--skeleton`` equals gauss_bonnet on
    the order complex cut to dimension min(skeleton, 2)."""
    f = p.chain_counts(None if skeleton is None else skeleton + 1)
    k = order_complex(p, 2 if skeleton is None else min(skeleton, 2))
    counted = poset_gauss_bonnet(p, f)
    assert balance_numbers(counted) == balance_numbers(gauss_bonnet(k))
    assert counted.residual == 0


SKELETONS = (None, 0, 1, 2)


class TestPosetGaussBonnet:
    @pytest.mark.parametrize("singletons", [True, False])
    def test_matches_the_complex_on_random_draws(self, singletons):
        rng = random.Random(20261018 + singletons)
        for _ in range(150):
            p = poset_from_hypernetwork(
                random_hypernetwork(rng), include_singletons=singletons
            )
            for skeleton in SKELETONS:
                assert_counts_match_the_complex(p, skeleton)

    @given(hypernetworks(), st.booleans(), st.sampled_from(SKELETONS))
    def test_matches_the_complex_on_drawn_networks(self, h, singletons, skeleton):
        p = poset_from_hypernetwork(h, include_singletons=singletons)
        assert_counts_match_the_complex(p, skeleton)

    def test_a_miscounted_f_vector_unbalances(self):
        # residual = 1.5 (sum deg - 2 f1) - 3 (sum T - 3 f2), with the
        # degrees and T from the up and down sizes
        p = Poset.from_sets(frozenset(s) for s in ("a", "b", "ab", "abc"))
        f0, f1, f2 = p.chain_counts(3)
        assert poset_gauss_bonnet(p, (f0, f1, f2)).residual == 0
        assert poset_gauss_bonnet(p, (f0, f1 + 1, f2)).residual == -3
        assert poset_gauss_bonnet(p, (f0, f1, f2 + 1)).residual == 9
        assert poset_gauss_bonnet(p, (f0 + 1, f1, f2)).residual == -1


def assert_table_matches_the_complex(
    p: Poset, skeleton: int | None, brute: bool = True
) -> None:
    """The counted degrees, edge rows, filtration and balance of p at
    ``--skeleton`` equal the complex route on the order complex cut to
    dimension min(skeleton, 2): gauss_bonnet, forman_ricci,
    forman_ricci_closed and curvature_filtration, and with ``brute``
    also the parallels counted edge by edge. The filtration, which
    ``filtrate`` and ``report`` print, is held there and to the
    threshold-by-threshold rebuild, and the balance ``report`` reads back
    from it to gauss_bonnet's."""
    f = p.chain_counts(None if skeleton is None else skeleton + 1)
    k = order_complex(p, 2 if skeleton is None else min(skeleton, 2))
    report = gauss_bonnet(k)
    degrees = poset_degrees(p, f)
    assert degrees == list(k._degrees)
    expected = []
    for e in k.edges:
        t, ric = len(k.triangles_containing(e)), forman_ricci(k, e)
        assert ric == report.ricci[e]
        if brute:
            assert t + 2 - ric == len(brute_parallel(k, e))
        expected.append((*e, t, t + 2 - ric, ric, forman_ricci_closed(k, e)))
    assert list(chain.from_iterable(poset_edge_rows(p, f, degrees))) == expected
    steps = poset_curvature_filtration(p, f)
    assert steps == curvature_filtration(k, report.ricci)
    assert steps == brute_filtration(k, report.ricci)
    balance = filtration_balance(degrees, f, steps)
    assert balance_numbers(balance) == balance_numbers(report)
    assert balance.residual == 0


def corpus_posets(corpus_dir):
    """(name, poset) for every corpus file, networks with and without
    their node singletons."""
    for path in sorted(p for p in corpus_dir.rglob("*") if p.is_file()):
        loaded = load_input(path, "auto")
        if loaded.kind == "poset":
            yield path.name, loaded.poset
            continue
        for singletons in (True, False):
            p = poset_from_hypernetwork(loaded.network, include_singletons=singletons)
            yield f"{path.name} singletons={singletons}", p


class TestCountedTable:
    @pytest.mark.parametrize("skeleton", SKELETONS)
    def test_matches_the_complex_on_the_corpus(self, corpus_dir, skeleton):
        for _, p in corpus_posets(corpus_dir):
            assert_table_matches_the_complex(p, skeleton)

    @pytest.mark.parametrize("singletons", [True, False])
    def test_matches_the_complex_on_random_draws(self, singletons):
        rng = random.Random(20261019 + singletons)
        for _ in range(150):
            p = poset_from_hypernetwork(
                random_hypernetwork(rng, max_nodes=12, max_hypervertices=7),
                include_singletons=singletons,
            )
            for skeleton in SKELETONS:
                assert_table_matches_the_complex(p, skeleton, brute=False)

    @given(hypernetworks(), st.booleans(), st.sampled_from(SKELETONS))
    def test_matches_the_complex_on_drawn_networks(self, h, singletons, skeleton):
        p = poset_from_hypernetwork(h, include_singletons=singletons)
        assert_table_matches_the_complex(p, skeleton)

    @given(hypernetworks(), st.booleans())
    def test_the_bitsets_are_the_comparable_pairs(self, h, singletons):
        # built from the covers alone, they hold every pair found by
        # testing every two elements for inclusion
        p = poset_from_hypernetwork(h, include_singletons=singletons)
        e = p.elements
        pairs = [(x, y) for x, y in permutations(range(len(e)), 2) if e[x] < e[y]]
        up, down = brute_neighbour_bits(len(e), pairs)
        assert _comparability_masks(p._children) == list(map(or_, up, down))

    def test_the_residual_ties_the_bitsets_to_the_chain_counts(self):
        # the edge sum comes from the filtration, walked from the bitsets,
        # and chi from f, so a miscounted f moves the residual by -chi's
        # change plus 10 per triangle
        p = Poset.from_sets(frozenset(s) for s in ("a", "b", "ab", "abc"))
        f0, f1, f2 = p.chain_counts(3)

        def residual(f):
            steps = poset_curvature_filtration(p, f)
            return filtration_balance(poset_degrees(p, f), f, steps).residual

        assert residual((f0, f1, f2)) == 0
        assert residual((f0, f1 + 1, f2)) == 1
        assert residual((f0, f1, f2 + 1)) == 9
        assert residual((f0 + 1, f1, f2)) == -1

    def test_the_skeleton_is_read_from_the_length_of_f(self):
        p = Poset.from_sets(frozenset(s) for s in ("a", "b", "ab", "abc"))

        def rows(m):
            f = p.chain_counts(m)
            return list(chain.from_iterable(poset_edge_rows(p, f, poset_degrees(p, f))))

        assert poset_degrees(p, p.chain_counts(1)) == [0, 0, 0, 0]
        assert rows(0) == rows(1) == []
        # without triangles every other edge at either end is parallel
        assert [row[2:4] for row in rows(2)] == [(0, 3)] * 4 + [(0, 4)]
        assert {row[2] for row in rows(3)} == {1, 2}


def filtration(k):
    return curvature_filtration(k, gauss_bonnet(k).ricci)


class TestFiltration:
    def test_uniform_tetrahedron(self, corpus):
        steps = filtration(corpus["tetrahedron"])
        assert len(steps) == 1
        assert steps[0].threshold == 4
        assert steps[0].f_vector == (4, 6, 4)
        assert steps[0].chi == 2

    def test_uniform_star(self, corpus):
        steps = filtration(corpus["star_k13"])
        assert len(steps) == 1
        assert steps[0].threshold == 0
        assert steps[0].f_vector == (4, 3, 0)
        assert steps[0].chi == 1

    def test_pendant_triangle_steps(self, corpus):
        # brute per-edge values: pendant 0, hub edges 2, far edge 3
        k = corpus["pendant_triangle"]
        expected_ric = {e: brute_ricci(k, e) for e in k.edges}
        assert sorted(set(expected_ric.values())) == [0, 2, 3]
        steps = curvature_filtration(k, expected_ric)
        assert [s.threshold for s in steps] == [0, 2, 3]
        assert [s.f_vector for s in steps] == [(4, 1, 0), (4, 3, 0), (4, 4, 1)]
        assert [s.chi for s in steps] == [3, 1, 1]

    def test_final_step_reproduces_complex(self, corpus):
        for name, k in corpus.items():
            k2 = two_skeleton(k)
            steps = filtration(k2)
            if k2.n_vertices == 0:
                assert steps == []
                continue
            full = (k2.f_vector() + (0, 0, 0))[:3]
            assert steps[-1].f_vector == full, name
            assert steps[-1].chi == k2.euler_characteristic(), name

    def test_vertices_kept_at_every_threshold(self, corpus):
        for name, k in corpus.items():
            for s in filtration(k):
                assert s.f_vector[0] == k.n_vertices, name

    @given(complexes())
    def test_the_balance_reads_back_from_the_steps(self, k):
        # each step adds its threshold once per edge it adds
        if k.dim > 2:
            k = k.skeleton(2)
        report = gauss_bonnet(k)
        steps = curvature_filtration(k, report.ricci)
        balance = filtration_balance(k._degrees, k.f_vector(), steps)
        assert balance_numbers(balance) == balance_numbers(report)

    @given(complexes())
    @settings(max_examples=60)
    def test_monotone_f_vectors(self, k):
        if k.dim > 2:
            k = k.skeleton(2)
        steps = filtration(k)
        for a, b in zip(steps, steps[1:]):
            assert all(x <= y for x, y in zip(a.f_vector, b.f_vector))

    @given(complexes())
    @settings(max_examples=80)
    def test_matches_threshold_by_threshold_oracle(self, k):
        # test_matches_brute_force holds forman_ricci to brute_ricci on
        # this strategy; brute_ricci itself is O(E T) per complex
        k2 = k.skeleton(2)
        ric = {e: forman_ricci(k2, e) for e in k2.edges}
        assert curvature_filtration(k2, ric) == brute_filtration(k2, ric)

    @pytest.mark.parametrize("singletons", [True, False])
    def test_matches_oracle_on_random_order_complexes(self, singletons):
        rng = random.Random(20261017 + singletons)
        for _ in range(150):
            h = random_hypernetwork(rng)
            p = poset_from_hypernetwork(h, include_singletons=singletons)
            k = order_complex(p, skeleton_dim=2)
            ric = gauss_bonnet(k).ricci
            assert curvature_filtration(k, ric) == brute_filtration(k, ric), h

    def test_empty_complex(self):
        assert filtration(SimplicialComplex.from_faces([], [])) == []

    def test_high_dimensional_complex_needs_no_skeleton(self, monkeypatch):
        k = subdivided_tetrahedron()
        k2 = k.skeleton(2)
        ric = gauss_bonnet(k2).ricci
        expected = curvature_filtration(k2, ric)
        monkeypatch.setattr(SimplicialComplex, "skeleton", refuse_skeleton)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert curvature_filtration(k, ric) == expected

    def test_edgeless_complex_single_step(self, corpus):
        from hyperforman import FiltrationStep

        steps = filtration(corpus["isolated_vertices"])
        assert steps == [FiltrationStep(0, (3, 0, 0), 3)]


DAG_ARCS = [(0, 1), (1, 2), (0, 2)]  # a->b, b->c, a->c with the triangle filled


def dag_fixture() -> DirectedComplex:
    return DirectedComplex.from_arcs(["a", "b", "c"], DAG_ARCS)


def cycle_fixture() -> DirectedComplex:
    return DirectedComplex.from_arcs(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])


def random_arcs(rng, n: int, density: float) -> list[tuple[int, int]]:
    """Each pair of the n vertices joined with probability ``density`` by
    one arc of random direction, in random order, some listed twice."""
    arcs = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in combinations(range(n), 2)
        if rng.random() < density
    ]
    arcs += rng.sample(arcs, len(arcs) // 4)
    rng.shuffle(arcs)
    return arcs


def seeded_arc_sets(seed: int, count: int, max_nodes: int = 8):
    """(labels, arcs) draws: the empty network first, then random graphs
    of up to ``max_nodes`` vertices at every density, tournaments
    included."""
    rng = random.Random(seed)
    yield [], []
    for _ in range(count):
        n = rng.randint(1, max_nodes)
        density = rng.choice([0.0, 0.3, 0.6, 1.0])
        yield [f"x{i}" for i in range(n)], random_arcs(rng, n, density)


def walked(dc: DirectedComplex, mode: str) -> list[tuple[int, ...]]:
    """The triangles :meth:`DirectedComplex.directed_triangles` walks, as
    vertex triples."""
    index = {x: i for i, x in enumerate(dc.labels)}
    return [tuple(map(index.__getitem__, t)) for t in dc.directed_triangles(mode)]


MODES = [
    (degree_mode, triangle_mode)
    for degree_mode in ("in", "out")
    for triangle_mode in ("transitive", "cyclic")
]


class TestDirectedOracles:
    def test_walked_triangles_are_the_cliques(self):
        for labels, arcs in seeded_arc_sets(3, 150):
            dc = DirectedComplex.from_arcs(labels, arcs)
            both = walked(dc, "transitive") + walked(dc, "cyclic")
            assert sorted(both) == brute_cliques(len(labels), arcs), (labels, arcs)
            assert dc.labels == tuple(labels)
            assert (dc._out, dc._in) == brute_neighbour_bits(len(labels), arcs)

    def test_triangles_match_the_orientation_oracle(self):
        for labels, arcs in seeded_arc_sets(5, 150):
            dc = DirectedComplex.from_arcs(labels, arcs)
            for mode in ("transitive", "cyclic"):
                expected = brute_directed_triangles(len(labels), arcs, mode)
                assert walked(dc, mode) == expected

    def test_counts_match_the_orientation_oracle(self):
        draws = list(seeded_arc_sets(9, 150, max_nodes=12))
        rng = random.Random(11)
        draws += [
            ([f"t{i}" for i in range(n)], random_arcs(rng, n, 1.0))
            for n in range(13)
        ]
        for labels, arcs in draws:
            dc = DirectedComplex.from_arcs(labels, arcs)
            n, edges = len(labels), {tuple(sorted(a)) for a in arcs}
            for degree_mode, triangle_mode in MODES:
                chosen = brute_directed_triangles(n, arcs, triangle_mode)
                assert dc.triangle_count(triangle_mode) == len(chosen)
                assert dc.directed_euler_formula(degree_mode, triangle_mode) == (
                    brute_directed_formula(n, arcs, degree_mode, triangle_mode)
                )
                assert dc.directed_euler_count(triangle_mode) == (
                    n - len(edges) + len(chosen)
                )

    def test_only_from_arcs_builds_a_directed_complex(self):
        with pytest.raises(TypeError, match="from_arcs"):
            DirectedComplex(("a", "b"), {(0, 1): (0, 1)})
        with pytest.raises(TypeError, match="from_arcs"):
            DirectedComplex(labels=("a",), _out=(0,))

    def test_the_cap_counts_every_face(self):
        for labels, arcs in seeded_arc_sets(13, 100):
            dc = DirectedComplex.from_arcs(labels, arcs)
            edges = {tuple(sorted(a)) for a in arcs}
            faces = len(labels) + len(edges) + len(brute_cliques(len(labels), edges))
            assert DirectedComplex.from_arcs(labels, arcs, faces) == dc
            if faces == 0:
                continue
            with pytest.raises(ChainCapExceeded) as caught:
                DirectedComplex.from_arcs(labels, arcs, faces - 1)
            assert (caught.value.count, caught.value.cap) == (faces, faces - 1)
            assert str(caught.value) == (
                f"directed complex has {faces} faces, "
                f"over the chain cap of {faces - 1}"
            )


class TestDirected:
    def test_out_and_in_degrees(self):
        dc = dag_fixture()
        assert dc.io_degrees("out") == [2, 1, 0]
        assert dc.io_degrees("in") == [0, 1, 2]

    def test_isolated_vertex_degree_zero(self):
        dc = DirectedComplex.from_arcs(["a", "b", "c"], [(0, 1)])
        assert dc.io_degrees("out") == [1, 0, 0]
        assert dc.io_degrees("in") == [0, 1, 0]

    def test_directed_triangles_dag(self):
        dc = dag_fixture()
        assert list(dc.directed_triangles("transitive")) == [("a", "b", "c")]
        assert list(dc.directed_triangles("cyclic")) == []

    def test_directed_triangles_cycle(self):
        dc = cycle_fixture()
        assert list(dc.directed_triangles("transitive")) == []
        assert list(dc.directed_triangles("cyclic")) == [("a", "b", "c")]

    def test_no_faces_no_directed_triangles(self):
        # a square without a chord has no 3-clique
        arcs = [(0, 1), (1, 2), (2, 3), (3, 0)]
        dc = DirectedComplex.from_arcs(["a", "b", "c", "d"], arcs)
        assert list(dc.directed_triangles("transitive")) == []
        assert list(dc.directed_triangles("cyclic")) == []

    def test_formula_on_dag(self):
        value = dag_fixture().directed_euler_formula("out", "transitive")
        # independent Fraction evaluation
        assert value == brute_directed_formula(3, DAG_ARCS, "out", "transitive")
        assert value == Fraction(31, 2)

    def test_formula_single_arc(self):
        dc = DirectedComplex.from_arcs(["a", "b"], [(0, 1)])
        value = dc.directed_euler_formula("out", "transitive")
        assert value == brute_directed_formula(2, [(0, 1)], "out", "transitive")
        assert value == Fraction(-1, 2)

    def test_formula_empty(self):
        dc = DirectedComplex.from_arcs([], [])
        assert dc.directed_euler_formula("out", "transitive") == 0
        assert dc.directed_euler_count("transitive") == 0

    def test_count_form(self):
        assert dag_fixture().directed_euler_count("transitive") == 3 - 3 + 1 == 1
        assert cycle_fixture().directed_euler_count("transitive") == 0
        assert cycle_fixture().directed_euler_count("cyclic") == 1

    def test_random_tournaments_match_fraction_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            arcs = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
            dc = DirectedComplex.from_arcs([f"x{i}" for i in range(n)], arcs)
            for degree_mode, triangle_mode in MODES:
                assert dc.directed_euler_formula(degree_mode, triangle_mode) == (
                    brute_directed_formula(n, arcs, degree_mode, triangle_mode)
                )

    def test_every_filled_triangle_is_transitive_or_cyclic(self):
        dc = dag_fixture()
        both = walked(dc, "transitive") + walked(dc, "cyclic")
        assert sorted(both) == brute_cliques(3, DAG_ARCS) == [(0, 1, 2)]

    def test_conflicting_directions_rejected(self):
        with pytest.raises(DirectionError, match=r"conflicting .* a\|b: a->b and b->a"):
            DirectedComplex.from_arcs(["a", "b"], [(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "labels, arcs, message",
        [
            ("ab", [(0, 1), (0, 1), (1, 0)], "edge a|b: a->b and b->a"),
            ("ab", [(1, 0), (1, 0), (0, 1)], "edge a|b: b->a and a->b"),
            ("xyz", [(2, 0), (1, 2), (2, 0), (0, 2)], "edge x|z: z->x and x->z"),
        ],
    )
    def test_antiparallel_arc_after_a_repeat_names_both(self, labels, arcs, message):
        with pytest.raises(DirectionError) as caught:
            DirectedComplex.from_arcs(labels, arcs)
        assert str(caught.value) == f"conflicting directions for {message}"

    def test_one_arc_set_gives_equal_hashable_complexes(self):
        dc = dag_fixture()
        assert hash(dc) == hash(dag_fixture())
        repeated = [(0, 2), (0, 1), (0, 2), (1, 2)]
        for arcs in (DAG_ARCS[::-1], DAG_ARCS + [(1, 2)], repeated):
            same = DirectedComplex.from_arcs(["a", "b", "c"], arcs)
            assert same == dc and hash(same) == hash(dc)
        assert len({dc, cycle_fixture(), dag_fixture()}) == 2

    def test_reversing_one_arc_gives_an_unequal_complex(self):
        dc = dag_fixture()
        for i, (tail, head) in enumerate(DAG_ARCS):
            arcs = DAG_ARCS[:i] + [(head, tail)] + DAG_ARCS[i + 1 :]
            assert DirectedComplex.from_arcs(["a", "b", "c"], arcs) != dc
        assert DirectedComplex.from_arcs("ab", [(0, 1)]) != (
            DirectedComplex.from_arcs("ab", [(1, 0)])
        )

    def test_loop_arc_rejected(self):
        with pytest.raises(DirectionError, match="loop arc at node 'a'"):
            DirectedComplex.from_arcs(["a"], [(0, 0)])

    @pytest.mark.parametrize("arc", [(0, 5), (5, 0), (-1, 0), (0, -1), (5, 5)])
    def test_out_of_range_arc_rejected(self, arc):
        message = rf"arc \({arc[0]}, {arc[1]}\) .*out of range"
        with pytest.raises(ValueError, match=message):
            DirectedComplex.from_arcs(["a", "b"], [(0, 1), arc])

    def test_bad_modes_rejected(self):
        dc = dag_fixture()
        with pytest.raises(ValueError):
            dc.io_degrees("sideways")
        with pytest.raises(ValueError):
            list(dc.directed_triangles("rotational"))


class TestRandomizedBalance:
    def test_seeded_batch(self):
        rng = random.Random(42)
        for _ in range(100):
            h = random_hypernetwork(rng, max_nodes=10, max_hypervertices=5)
            k = order_complex(poset_from_hypernetwork(h), skeleton_dim=2)
            assert gauss_bonnet(k).residual == 0
