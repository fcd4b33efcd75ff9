import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from hyperforman import (
    ChainCapExceeded,
    NotRanked,
    NotRankedError,
    Poset,
    RankFunction,
    SimplicialComplex,
    face_poset,
    order_complex,
    poset_from_hypernetwork,
    random_hypernetwork,
)

from conftest import complexes, set_families
from helpers import (
    brute_chains,
    brute_covers,
    brute_less,
    brute_rank_function,
    codim1_face_poset,
    pairwise_poset,
)

F = frozenset


def chain_poset(*sets):
    return Poset.from_sets([F(s) for s in sets])


def pairs_family(n):
    """Every 2-subset of n nodes and the n coatoms."""
    nodes = F(f"n{i}" for i in range(n))
    pairs = list(map(F, itertools.combinations(nodes, 2)))
    return pairs + [nodes - {x} for x in nodes]


def assert_store_matches_brute_force(p):
    """Each row of ``_children`` and ``_above`` ascends, and they hold the
    covers and the strict inclusions found by testing every pair."""
    for table, expected in ((p._children, brute_covers), (p._above, brute_less)):
        assert all(list(row) == sorted(set(row)) for row in table)
        pairs = {(i, j) for i, row in enumerate(table) for j in row}
        assert pairs == expected(p.elements)


class TestConstruction:
    def test_example_network_poset(self, example_net):
        p = poset_from_hypernetwork(example_net)
        labels = [p.element_label(i) for i in range(len(p))]
        assert labels == ["{a}", "{b}", "{c}", "{a,b}", "{b,c}", "{a,b,c}"]
        assert set(p.covers) == brute_covers(p.elements)
        assert len(p.covers) == 6

    def test_without_singletons(self, example_net):
        p = poset_from_hypernetwork(example_net, include_singletons=False)
        assert [p.element_label(i) for i in range(len(p))] == [
            "{a,b}",
            "{b,c}",
            "{a,b,c}",
        ]
        assert len(p.covers) == 2

    def test_labels_read_each_element_sorted_once(self):
        # ints sort numerically, and only sets of one size are compared
        p = Poset.from_sets([{10, 9}, {"b"}, {2, 10, 9}])
        assert p._members == (("b",), (9, 10), (2, 9, 10))
        assert p.elements == tuple(map(frozenset, p._members))
        labels = [p.element_label(i) for i in range(len(p))]
        assert labels == ["{b}", "{9,10}", "{2,9,10}"]

    def test_duplicate_sets_are_merged(self):
        p = Poset.from_sets([F("a"), F("a")])
        assert len(p) == 1

    @pytest.mark.parametrize(
        "args", [(), ((F("a"), F("ab")), [(0, 1)])], ids=["none", "covers"]
    )
    def test_only_from_sets_builds_a_poset(self, args):
        with pytest.raises(TypeError, match=r"Poset\.from_sets"):
            Poset(*args)

    @given(set_families())
    def test_covers_match_brute_force(self, fam):
        p = Poset.from_sets(fam)
        assert set(p.covers) == brute_covers(p.elements)

    @given(set_families(min_set_size=0))
    def test_matches_pairwise_oracle(self, fam):
        p = Poset.from_sets(fam)
        assert (p.elements, p.covers) == pairwise_poset(fam)

    @pytest.mark.parametrize("singletons", [True, False])
    def test_matches_pairwise_oracle_on_random_networks(self, singletons):
        rng = random.Random(7 + singletons)
        for i in range(150):
            h = random_hypernetwork(
                rng, max_nodes=16, max_hypervertices=10, edge_probability=0.5
            )
            p = poset_from_hypernetwork(h, include_singletons=singletons)
            sets = h.generator_sets()
            if singletons:
                sets.extend(F({v}) for v in h.nodes)
            assert (p.elements, p.covers) == pairwise_poset(sets), i

    @given(set_families(min_set_size=0))
    def test_store_matches_brute_force(self, fam):
        assert_store_matches_brute_force(Poset.from_sets(fam))

    def test_store_matches_brute_force_on_random_networks(self):
        rng = random.Random(5)
        for i in range(100):
            h = random_hypernetwork(
                rng, max_nodes=16, max_hypervertices=10, edge_probability=0.5
            )
            assert_store_matches_brute_force(poset_from_hypernetwork(h))

    def test_deep_tower(self):
        # nested sets 0..300 (the empty set included) in scrambled order
        sets = [F(range(k)) for k in range(301)]
        random.Random(0).shuffle(sets)
        p = Poset.from_sets(sets)
        assert p.elements == tuple(F(range(k)) for k in range(301))
        assert p.covers == frozenset((k, k + 1) for k in range(300))
        assert (p.elements, p.covers) == pairwise_poset(sets)
        assert p.comparable_pair_count() == 301 * 300 // 2

    @pytest.mark.parametrize("empty", [False, True], ids=["", "empty"])
    @pytest.mark.parametrize(
        "sets",
        [
            pairs_family(7),
            [F({"hub", f"p{i}"}) for i in range(6)],
            [F(f"t{i}" for i in range(k)) for k in range(2, 8)],
            [F("ab"), F("abc"), F("bcd")],
        ],
        ids=["pairs", "hub", "tower", "lone"],
    )
    def test_singleton_up_sets_match_brute_force(self, sets, empty):
        # every node's singleton, one node ("z") held by nothing else
        nodes = set().union(*sets) | {"z"}
        sets = sets + [F({x}) for x in nodes] + [F()] * empty
        p = Poset.from_sets(sets)
        assert_store_matches_brute_force(p)
        assert (p.elements, p.covers) == pairwise_poset(sets)

    def test_build_holds_about_the_poset_it_returns(self):
        # the up sets are stored as tuples as they are built, so the
        # build's peak stays near the size of what it keeps
        sets = pairs_family(80)
        sets += [F({x}) for x in sets[-1] | sets[-2]]
        tracemalloc.start()
        try:
            p = Poset.from_sets(sets)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.comparable_pair_count() == 80 * 2 * 79 + 80 * 79 // 2 * 78
        assert peak <= 1.5 * kept

    @given(set_families())
    def test_reachability_equals_comparability(self, fam):
        p = Poset.from_sets(fam)
        above = {i: set(p._above[i]) for i in range(len(p))}
        for i in range(len(p)):
            for j in range(len(p)):
                assert (j in above[i]) == (p.elements[i] < p.elements[j])


class TestRankFunction:
    def test_example_ranks(self, example_net):
        p = poset_from_hypernetwork(example_net)
        rf = p.rank_function()
        assert isinstance(rf, RankFunction)
        assert rf.ranks == (0, 0, 0, 1, 1, 2)
        assert rf.max_rank == 2
        assert rf.level_counts() == (3, 2, 1)

    def test_conflict_witness(self):
        # a < b < d and c < d with a, c minimal: d needs rank 1 and 2
        p = chain_poset("a", "ab", "cd", "abcd")
        rf = p.rank_function()
        assert isinstance(rf, NotRanked)
        assert rf.element == F("abcd")
        assert rf.ranks == (1, 2)

    def test_antichain_all_rank_zero(self):
        p = Poset.from_sets([F("a"), F("b"), F("c")])
        rf = p.rank_function()
        assert rf.ranks == (0, 0, 0)
        assert rf.max_rank == 0

    @given(set_families())
    def test_propagation_matches_exhaustive_oracle(self, fam):
        p = Poset.from_sets(fam)
        assert p.rank_function() == brute_rank_function(p.elements, p.covers)

    def test_witness_is_the_first_conflict_with_its_extremes(self):
        # {a,b,c,e,f,g} is pushed 3 by {a,b,c}, 2 by {e,f} and 1 by {g};
        # {p,...,v} conflicts too, but comes later in index order
        p = chain_poset(
            "a", "ab", "abc", "e", "ef", "g", "abcefg", "p", "pq", "r", "pqrstuv"
        )
        top = F("abcefg")
        assert p.rank_function() == NotRanked(p.elements.index(top), top, (1, 3))


class TestRankedEuler:
    def test_example_value(self, example_net):
        p = poset_from_hypernetwork(example_net)
        assert p.ranked_euler_characteristic() == 3 - 2 + 1 == 2

    def test_boolean_lattice_with_bottom(self):
        p = Poset.from_sets([F(""), F("a"), F("b"), F("ab")])
        assert len(p) == 4
        assert p.rank_function().level_counts() == (1, 2, 1)
        assert p.ranked_euler_characteristic() == 0

    def test_single_element(self):
        p = Poset.from_sets([F("a")])
        assert p.ranked_euler_characteristic() == 1

    def test_empty_poset(self):
        p = Poset.from_sets([])
        assert p.ranked_euler_characteristic() == 0

    def test_unranked_raises_with_witness(self):
        p = chain_poset("a", "ab", "cd", "abcd")
        with pytest.raises(NotRankedError, match="rank 1 and rank 2"):
            p.ranked_euler_characteristic()

    @given(set_families())
    def test_is_the_signed_count_of_elements_by_rank(self, fam):
        p = Poset.from_sets(fam)
        rf = p.rank_function()
        if isinstance(rf, NotRanked):
            return
        signed = sum((-1) ** r for r in rf.ranks)
        assert rf.euler_characteristic() == p.ranked_euler_characteristic() == signed


class TestFacePoset:
    def test_single_triangle(self):
        k = SimplicialComplex.from_faces(["a", "b", "c"], [(0, 1, 2)])
        p = face_poset(k)
        assert len(p) == 7
        rf = p.rank_function()
        assert rf.level_counts() == (3, 3, 1)
        assert p.ranked_euler_characteristic() == 1

    def test_single_edge(self):
        k = SimplicialComplex.from_faces(["a", "b"], [(0, 1)])
        p = face_poset(k)
        assert len(p) == 3
        assert p.ranked_euler_characteristic() == 1

    def test_empty_complex(self):
        k = SimplicialComplex.from_faces([], [])
        p = face_poset(k)
        assert len(p) == 0
        assert p.ranked_euler_characteristic() == 0

    def test_rank_equals_dimension(self, corpus):
        for name, k in corpus.items():
            p = face_poset(k)
            rf = p.rank_function()
            assert isinstance(rf, RankFunction), name
            for i, e in enumerate(p.elements):
                assert rf.ranks[i] == len(e) - 1, name

    def test_covers_agree_with_generic_reduction(self, corpus):
        # the reduction from_sets finds must be the codimension-1 covers
        for name, k in corpus.items():
            p = face_poset(k)
            assert (p.elements, p.covers) == codim1_face_poset(k), name

    @given(complexes())
    @settings(max_examples=80)
    def test_matches_codim1_oracle(self, k):
        p = face_poset(k)
        assert (p.elements, p.covers) == codim1_face_poset(k)

    @pytest.mark.parametrize("singletons", [True, False])
    def test_matches_codim1_oracle_on_order_complexes(self, singletons):
        rng = random.Random(20261018 + singletons)
        for _ in range(100):
            h = random_hypernetwork(rng)
            k = order_complex(poset_from_hypernetwork(h, include_singletons=singletons))
            p = face_poset(k)
            assert (p.elements, p.covers) == codim1_face_poset(k), h


class TestChains:
    def test_chain_poset_powerset(self):
        p = chain_poset("a", "ab", "abc")
        chains = list(p.chains())
        assert len(chains) == 7  # 2^3 - 1
        assert set(chains) == brute_chains(p.elements)

    def test_antichain_only_singletons(self):
        p = Poset.from_sets([F("a"), F("b"), F("c")])
        assert list(p.chains()) == [(0,), (1,), (2,)]

    def test_example_bounded_count(self, example_net):
        p = poset_from_hypernetwork(example_net)
        chains = list(p.chains(max_length=3))
        assert len(chains) == 19  # 6 + 9 + 4
        assert set(chains) == brute_chains(p.elements, 3)

    def test_lexicographic_emission(self, example_net):
        p = poset_from_hypernetwork(example_net)
        chains = list(p.chains(max_length=3))
        assert chains == sorted(chains)
        assert len(set(chains)) == len(chains)

    def test_cap_is_an_error_not_truncation(self, example_net):
        p = poset_from_hypernetwork(example_net)  # f = (6, 9, 4)
        with pytest.raises(ChainCapExceeded, match="15 faces up to dimension 1"):
            order_complex(p, chain_cap=10)
        assert order_complex(p, chain_cap=19).f_vector() == (6, 9, 4)

    @given(set_families())
    def test_pair_chains_count_comparable_pairs(self, fam):
        p = Poset.from_sets(fam)
        pairs = [c for c in p.chains(max_length=2) if len(c) == 2]
        assert len(pairs) == p.comparable_pair_count()

    @given(set_families(max_universe=5, max_sets=6))
    @settings(max_examples=50)
    def test_bounded_chains_match_brute_force(self, fam):
        p = Poset.from_sets(fam)
        assert set(p.chains(max_length=3)) == brute_chains(p.elements, 3)


def assert_counts_match_oracles(p):
    """chain_counts at each bound equals the size histogram of the brute
    chains and the f-vector of the enumerated order complex."""
    for m in (None, 1, 2, 3):
        sizes = Counter(len(c) for c in brute_chains(p.elements, m))
        histogram = tuple(sizes[k] for k in range(1, len(sizes) + 1))
        listed = order_complex(p, skeleton_dim=None if m is None else m - 1)
        assert p.chain_counts(m) == histogram == listed.f_vector(), m


class TestChainCounts:
    def test_chain_is_binomial(self):
        p = chain_poset("a", "ab", "abc", "abcd")
        assert p.chain_counts() == (4, 6, 4, 1)
        assert p.chain_counts(2) == (4, 6)

    def test_cap_stops_at_the_dimension_that_passes_it(self):
        p = chain_poset("a", "ab", "abc", "abcd")  # f = (4, 6, 4, 1)
        for cap, count, dim in ((3, 4, 0), (10, 14, 2), (14, 15, 3)):
            with pytest.raises(ChainCapExceeded) as caught:
                p.chain_counts(cap=cap)
            assert (caught.value.count, caught.value.cap) == (count, cap)
            assert str(caught.value) == (
                f"order complex has {count} faces up to dimension {dim}, "
                f"over the chain cap of {cap}"
            )
        assert p.chain_counts(cap=15) == (4, 6, 4, 1)
        assert p.chain_counts(2, cap=10) == (4, 6)

    def test_empty_and_nonpositive_bound(self, example_net):
        assert Poset.from_sets([]).chain_counts() == ()
        assert poset_from_hypernetwork(example_net).chain_counts(0) == ()

    @given(set_families(max_universe=5, max_sets=7))
    @settings(max_examples=80)
    def test_match_oracles(self, fam):
        assert_counts_match_oracles(Poset.from_sets(fam))

    @pytest.mark.parametrize("singletons", [True, False])
    def test_match_oracles_on_random_networks(self, singletons):
        rng = random.Random(3 + singletons)
        for _ in range(40):
            h = random_hypernetwork(rng, max_nodes=6, max_hypervertices=4)
            assert_counts_match_oracles(
                poset_from_hypernetwork(h, include_singletons=singletons)
            )


def alternating_sum(counts) -> int:
    return sum((-1) ** d * n for d, n in enumerate(counts))


def assert_chi_and_dimension_match_counts(p):
    """The Moebius pass gives the alternating sum of the counted f-vector
    and of the brute chains' sizes, and the longest-chain pass gives the
    top dimension of the counted f-vector."""
    counts = p.chain_counts()
    brute = Counter(len(c) for c in brute_chains(p.elements))
    assert p.chain_euler_characteristic() == alternating_sum(counts)
    assert alternating_sum(counts) == sum(
        (-1) ** (k - 1) * n for k, n in brute.items()
    )
    assert p.chain_dimension() == len(counts) - 1


def assert_cap_raises_as_chain_counts(p, cap):
    raised = []
    for count in (p.chain_counts, p.chain_euler_characteristic):
        with pytest.raises(ChainCapExceeded) as caught:
            count(cap=cap)
        raised.append((caught.value.count, caught.value.cap, str(caught.value)))
    assert raised[0] == raised[1]


class TestChainEulerCharacteristic:
    @pytest.mark.parametrize("singletons", [True, False])
    def test_matches_counts_and_brute_chains_on_random_networks(self, singletons):
        rng = random.Random(11 + singletons)
        for i in range(60):
            h = random_hypernetwork(rng, max_nodes=7, max_hypervertices=5)
            p = poset_from_hypernetwork(h, include_singletons=singletons)
            assert_chi_and_dimension_match_counts(p)
            f0, f1 = len(p), p.comparable_pair_count()
            # a cap below f0, then below f0 + f1, stops both counts alike
            for cap in {f0 - 1, f0 + f1 - 1} - {-1, 0}:
                assert_cap_raises_as_chain_counts(p, cap)
            assert p.chain_euler_characteristic(cap=max(f0 + f1, 1)) == (
                alternating_sum(p.chain_counts())
            ), i

    @pytest.mark.parametrize(
        "sets",
        [[], [F("a")], [F("a"), F("b"), F("c")], [F("a"), F("ab"), F("abc"), F("c")]],
        ids=["empty", "single", "antichain", "chain-and-point"],
    )
    def test_matches_counts_on_small_shapes(self, sets):
        assert_chi_and_dimension_match_counts(Poset.from_sets(sets))

    def test_thousand_chain(self):
        # 2^1000 - 1 chains, every one a face of one simplex: chi 1; the
        # f-vector is the binomials C(1000, k + 1), too many to count
        p = Poset.from_sets([F(range(k)) for k in range(1, 1001)])
        assert p.chain_euler_characteristic() == 1
        assert alternating_sum(math.comb(1000, k + 1) for k in range(1000)) == 1
        assert p.chain_dimension() == 999
        tower = Poset.from_sets([F(range(k)) for k in range(1, 41)])
        assert tower.chain_euler_characteristic() == alternating_sum(
            tower.chain_counts()
        )
        assert tower.chain_dimension() == len(tower.chain_counts()) - 1 == 39

    def test_cap_stops_at_the_vertices_then_at_the_edges(self, example_net):
        p = poset_from_hypernetwork(example_net)  # f = (6, 9, 4)
        for cap, count, dim in ((5, 6, 0), (14, 15, 1)):
            with pytest.raises(ChainCapExceeded) as caught:
                p.chain_euler_characteristic(cap=cap)
            assert (caught.value.count, caught.value.cap) == (count, cap)
            assert str(caught.value) == (
                f"order complex has {count} faces up to dimension {dim}, "
                f"over the chain cap of {cap}"
            )
            assert_cap_raises_as_chain_counts(p, cap)
        # f2 is never counted, so a cap of f0 + f1 holds
        assert p.chain_euler_characteristic(cap=15) == 1
