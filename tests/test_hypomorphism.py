import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from reconlab import (
    DegenerateOrder,
    DimensionMismatch,
    Hypomorphism,
    Permutation,
    SearchTooLarge,
    SymmetricMatrix,
    deck,
    find_hypomorphism,
    gen_pair,
    good_position_shift,
    graph6_decode,
    lambda0_search,
    perm_similarity,
    verify_eq1,
    verify_hypomorphism,
    verify_main1_t_agreement,
    verify_main2,
    verify_main_theorem,
    verify_tutte,
)
from reconlab.graph6 import Graph6Record, graph6_encode
from reconlab import hypomorphism
from reconlab.hypomorphism import (CORPUS_MIN_ORDER, EXACT_TOL, cycle_adjacency,
                                   cycle_pair_corpus)
from reconlab.matrixcore import card_index, leave_one_out, scale

from conftest import (
    CARD_SCALE_RAW,
    card_class_tau,
    complete_adjacency,
    deck_dets,
    identity_hypomorphism,
    path_adjacency,
    signed_cycle_near_miss,
    symmetric_matrices,
)


def brute_force_exists(A, B, tol=EXACT_TOL) -> bool:
    """Oracle: enumerate every full family of permutations, no pruning."""
    n = A.n
    deck_a = [card.entries for card in deck(A)]
    deck_b = [card.entries for card in deck(B)]
    perms = [np.array(p) for p in itertools.permutations(range(n - 1))]
    for combo in itertools.product(range(len(perms)), repeat=n):
        ok = True
        for i, pick in enumerate(combo):
            p = perms[pick]
            # B_i = sigma A_i sigma^T reads entrywise as B_i[p[k], p[l]] == A_i[k, l]
            if not np.allclose(deck_b[i][np.ix_(p, p)], deck_a[i], atol=tol):
                ok = False
                break
        if ok:
            return True
    return False


def per_card_gate(A, B, sigma, tol=EXACT_TOL):
    """Oracle: the deck gate as a loop over per-card matrices, at tol * scale(A, B)."""
    deck_a, deck_b = deck(A), deck(B)
    threshold = tol * scale(A.entries, B.entries)
    worst, failing = 0.0, None
    for i in range(A.n):
        mapped = perm_similarity(deck_a[i], sigma.sigmas[i])
        resid = float(np.max(np.abs(deck_b[i].entries - mapped.entries)))
        worst = max(worst, resid)
        if resid > threshold and failing is None:
            failing = i
    return failing is None, worst, failing


def random_circulant(rng, n, integer):
    """Symmetric circulant: vertex transitive, so every relabeling has a certificate."""
    m = n // 2 + 1
    half = rng.integers(-3, 4, m).astype(float) if integer else rng.normal(size=m)
    row = np.array([half[min(k, n - k)] for k in range(n)])
    return SymmetricMatrix(np.array([np.roll(row, i) for i in range(n)]))


def random_symmetric(rng, n, integer):
    a = rng.integers(-3, 4, (n, n)).astype(float) if integer else rng.normal(size=(n, n))
    return SymmetricMatrix(np.triu(a) + np.triu(a, 1).T)


class TestTypedErrors:
    def test_too_few_permutations(self):
        with pytest.raises(DimensionMismatch, match="at least 3"):
            Hypomorphism((Permutation.identity(1), Permutation.identity(1)))

    def test_wrong_degree(self):
        with pytest.raises(DimensionMismatch, match="sigma degree 3 != 2"):
            Hypomorphism((Permutation.identity(2),) * 2 + (Permutation.identity(3),))

    def test_verify_on_orders_that_differ(self):
        with pytest.raises(DimensionMismatch, match="orders differ"):
            verify_hypomorphism(cycle_adjacency(5), cycle_adjacency(6), identity_hypomorphism(5))

    def test_find_on_orders_that_differ(self):
        with pytest.raises(DimensionMismatch, match="orders differ"):
            find_hypomorphism(cycle_adjacency(5), cycle_adjacency(6))


class TestVerify:
    def test_identity_family_on_identity(self):
        cert = verify_hypomorphism(SymmetricMatrix(np.eye(3)), SymmetricMatrix(np.eye(3)),
                                   identity_hypomorphism(3))
        assert cert.valid and cert.worst_residual == 0.0 and cert.failing_index is None

    def test_failing_index_reported(self):
        j_minus_i = SymmetricMatrix(np.ones((3, 3)) - np.eye(3))
        cert = verify_hypomorphism(SymmetricMatrix(np.eye(3)), j_minus_i,
                                   identity_hypomorphism(3))
        assert not cert.valid
        assert cert.failing_index == 0
        assert cert.worst_residual == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_matrices(min_n=3))
    def test_identity_family_is_always_valid(self, A):
        assert verify_hypomorphism(A, A, identity_hypomorphism(A.n)).valid

    def test_matches_per_card_loop(self, monkeypatch):
        rng = np.random.default_rng(20261018)
        valid_seen = failing_seen = 0
        for trial in range(240):
            n = 3 + trial % 7
            integer = trial % 2 == 0
            if trial % 3:
                A = random_circulant(rng, n, integer)
                B = perm_similarity(A, Permutation(tuple(rng.permutation(n))))
                sigma = find_hypomorphism(A, B)
                assert sigma is not None
            else:
                A = random_symmetric(rng, n, integer)
                B, sigma = A, identity_hypomorphism(n)
            if trial % 4 == 1:  # residuals near the tolerance on both sides
                noise = rng.normal(scale=1e-12, size=(n, n))
                B = SymmetricMatrix(B.entries + noise + noise.T)
            # a true certificate, one sigma_i corrupted, or several
            corrupted = (0, 1, int(rng.integers(2, n + 1)))[int(rng.integers(0, 3))]
            sigmas = list(sigma.sigmas)
            for i in rng.choice(n, size=corrupted, replace=False):
                sigmas[i] = Permutation(tuple(rng.permutation(n - 1)))
            sigma = Hypomorphism(tuple(sigmas))
            valid, worst, failing = per_card_gate(A, B, sigma)
            # a residual equal to the threshold passes
            for tol in (EXACT_TOL, worst / scale(A.entries, B.entries)):
                with monkeypatch.context() as m:
                    m.setattr(hypomorphism, "EXACT_TOL", tol)
                    cert = verify_hypomorphism(A, B, sigma)
                ref_valid, _, ref_failing = per_card_gate(A, B, sigma, tol)
                assert cert.valid == ref_valid and cert.failing_index == ref_failing
                assert cert.worst_residual == worst  # bit-equal, not approximate
                assert cert.tol == tol * scale(A.entries, B.entries)
            valid_seen += valid
            failing_seen += not valid
        assert valid_seen > 40 and failing_seen > 40

    def test_card_scale_does_not_tighten_symmetry(self):
        A = SymmetricMatrix(CARD_SCALE_RAW)
        cert = verify_hypomorphism(A, A, identity_hypomorphism(3))
        assert cert.valid and cert.worst_residual == 0.0 and cert.failing_index is None
        assert verify_tutte(A, A, identity_hypomorphism(3)).passed

    # the stored matrix is exactly symmetric, so no card can fail its own check
    @pytest.mark.parametrize("call", [
        pytest.param(lambda A: len(deck(A)) == 3, id="deck"),
        pytest.param(lambda A: find_hypomorphism(A, A) is not None, id="find_hypomorphism"),
    ])
    def test_card_scale_does_not_tighten_deck_symmetry(self, call):
        assert call(SymmetricMatrix(CARD_SCALE_RAW))


class TestKeptResiduals:
    """sigma keeps only its own index tables; the residuals of a pair are computed at every call."""

    @pytest.fixture
    def computed(self, monkeypatch):
        # the index tables are built only where leave_one_out is called
        calls = []
        loo = hypomorphism.leave_one_out

        def counting(n):
            calls.append(n)
            return loo(n)

        monkeypatch.setattr(hypomorphism, "leave_one_out", counting)
        return calls

    @staticmethod
    def pair():
        A = cycle_adjacency(6)
        B = perm_similarity(A, Permutation.swap(6, 1, 3))
        return A, B, find_hypomorphism(A, B)

    def test_repeated_checks_compute_once(self, computed):
        # the tables are a function of sigma alone: built once per sigma object
        A, B, sigma = self.pair()
        first = verify_hypomorphism(A, B, sigma)
        assert all(verify_hypomorphism(A, B, sigma) == first for _ in range(4))
        assert first.valid and len(computed) == 1
        # a fresh sigma with the same permutations builds its own, equal tables
        assert verify_hypomorphism(A, B, Hypomorphism(sigma.sigmas)) == first
        assert len(computed) == 2

    def test_verifier_chain_builds_the_tables_once(self, computed):
        # the atlas pipeline: the explicit gate and four verifiers on one (A, B, sigma),
        # then verify_main2 on the good-position shifts under the same sigma
        A, B, sigma = self.pair()
        assert verify_hypomorphism(A, B, sigma).valid
        verify_tutte(A, B, sigma)
        verify_eq1(A, B, sigma)
        lam = max(lambda0_search(A), lambda0_search(B)) + 1.0
        verify_main1_t_agreement(A, B, sigma, lam)
        verify_main_theorem(A, B, sigma)
        assert verify_main2(good_position_shift(A, lam), good_position_shift(B, lam), sigma).passed
        assert computed == [6]

    def test_equal_entries_in_another_object_are_recomputed(self):
        A, B, sigma = self.pair()
        cert = verify_hypomorphism(A, B, sigma)
        twin = SymmetricMatrix(B.entries.copy())
        assert verify_hypomorphism(A, twin, sigma) == cert
        assert verify_hypomorphism(SymmetricMatrix(A.entries.copy()), twin, sigma) == cert

    def test_forged_pair_after_a_valid_one(self):
        A, B, sigma = self.pair()
        assert verify_hypomorphism(A, B, sigma).valid
        forged = B.entries.copy()
        forged[0, 0] += 1e-3
        cert = verify_hypomorphism(A, SymmetricMatrix(forged), sigma)
        assert not cert.valid and cert.worst_residual == pytest.approx(1e-3)
        assert cert.failing_index is not None
        # and the valid pair, checked again, passes on its own residuals
        again = verify_hypomorphism(A, B, sigma)
        assert again.valid and again.worst_residual == 0.0

    def test_tolerance_applies_at_every_call(self, monkeypatch):
        A, B, sigma = self.pair()
        noisy = B.entries.copy()
        noisy[0, 1] = noisy[1, 0] = noisy[0, 1] + 1e-9
        B = SymmetricMatrix(noisy)
        assert not verify_hypomorphism(A, B, sigma).valid
        monkeypatch.setattr(hypomorphism, "EXACT_TOL", 1e-8)
        cert = verify_hypomorphism(A, B, sigma)
        assert cert.valid and cert.failing_index is None
        assert cert.tol == 1e-8 * scale(A.entries, B.entries)

    def test_sigma_holds_no_matrix(self):
        A, B, sigma = self.pair()
        a, b = A.entries, B.entries
        refs = []
        for _ in range(1000):
            A2, B2 = SymmetricMatrix(a.copy()), SymmetricMatrix(b.copy())
            refs.append((weakref.ref(A2), weakref.ref(B2)))
            assert verify_hypomorphism(A2, B2, sigma).valid
            assert verify_hypomorphism(a.copy(), b.copy(), sigma).valid  # fresh raw arrays
        del A2, B2
        gc.collect()
        assert not any(ra() or rb() for ra, rb in refs)
        assert set(vars(sigma)) == {"sigmas", "index_tables"}
        # the table is read-only and kept: sigma cannot be made to hold another's
        moved = sigma.index_tables
        assert not moved.flags.writeable
        with pytest.raises(ValueError):
            moved[0, 0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sigma.index_tables = card_index(sigma.n)
        assert sigma.index_tables is moved


class TestFind:
    def test_identity_pair_returns_identities(self):
        sigma = find_hypomorphism(SymmetricMatrix(np.eye(4)), SymmetricMatrix(np.eye(4)))
        assert sigma is not None
        for s in sigma.sigmas:
            assert s.image == tuple(range(3))

    def test_rotated_cycle(self):
        A = cycle_adjacency(6)
        B = perm_similarity(A, Permutation.rotation(6))
        sigma = find_hypomorphism(A, B)
        assert sigma is not None
        assert verify_hypomorphism(A, B, sigma).valid

    def test_path_vs_triangle_has_none(self):
        assert find_hypomorphism(path_adjacency(3), complete_adjacency(3)) is None

    def test_search_cap(self):
        with pytest.raises(SearchTooLarge):
            find_hypomorphism(cycle_adjacency(10), cycle_adjacency(10))

    def test_soundness_on_random_relabelings(self, rng):
        for n in (4, 5, 6, 7):
            for _ in range(5):
                adj = np.zeros((n, n))
                for j in range(n):
                    for i in range(j):
                        adj[i, j] = adj[j, i] = float(rng.integers(0, 2))
                A = SymmetricMatrix(adj)
                tau = Permutation(tuple(rng.permutation(n)))
                B = perm_similarity(A, tau)
                sigma = find_hypomorphism(A, B)
                if sigma is not None:
                    assert verify_hypomorphism(A, B, sigma).valid

    def test_agrees_with_brute_force_on_paths(self):
        # P4 relabeled by a swap moves the deck around; check both verdict kinds
        A = path_adjacency(4)
        for tau_img in itertools.permutations(range(4)):
            tau = Permutation(tau_img)
            B = perm_similarity(A, tau)
            found = find_hypomorphism(A, B)
            assert (found is not None) == brute_force_exists(A, B)
            if found is not None:
                assert verify_hypomorphism(A, B, found).valid

    @pytest.mark.parametrize("rel, found", [(1e-13, True), (1e-11, False)])
    def test_search_and_gate_share_the_relative_threshold(self, rel, found):
        # at scale 1e6 the threshold is EXACT_TOL * 1e6 = 1e-6: a perturbation of
        # 1e-7 matches, one of 1e-5 does not, in the search and in the gate alike
        A = SymmetricMatrix(1e6 * cycle_adjacency(6).entries)
        B = perm_similarity(A, Permutation.swap(6, 1, 3))
        B_near = SymmetricMatrix(B.entries * (1.0 + rel))
        assert (find_hypomorphism(A, B_near) is not None) == found
        cert = verify_hypomorphism(A, B_near, find_hypomorphism(A, B))
        assert cert.valid == found and cert.tol == EXACT_TOL * scale(A.entries, B_near.entries)

    @pytest.mark.parametrize("case", ["row-sums", "spectrum"])
    def test_finds_what_the_gate_accepts(self, case):
        # each entry moves by less than the gate's threshold, yet a card's sorted row
        # sums (row-sums) or its spectrum at the card's own unit scale (spectrum) move
        # further: the search tests only the gate's entrywise rule, so it finds sigma
        a = cycle_adjacency(6).entries.copy()
        if case == "row-sums":
            a *= 1e13
            b = a.copy()
            # 0.9 * the threshold 1e-12 * scale(A, B) = 1e-12 * 2^43 = 8.80, along row and
            # column 0
            b[0] += 7.9
            b[1:, 0] += 7.9
            b[2, 3] = b[3, 2] = a[2, 3] + 7.9
        else:
            a[0, 3] = a[3, 0] = 1e13  # card 0 drops it: unit scale, threshold still 8.80
            b = a.copy()
            b[2, 4] = b[4, 2] = a[2, 4] + 0.5
        A, B = SymmetricMatrix(a), SymmetricMatrix(b)
        sigma = find_hypomorphism(A, B)
        assert sigma is not None
        assert all(s.image == tuple(range(5)) for s in sigma.sigmas)
        assert verify_hypomorphism(A, B, sigma).valid

    @pytest.mark.parametrize("n, degrees", [(8, (3, 4)), (9, (2, 4))])
    def test_regular_graphs_against_card_isomorphism(self, n, degrees):
        # regular graphs, where row sums carry no information and sorted rows little:
        # a second seed's graph, or a card-class relabelling (every card pair matches),
        # judged against a networkx isomorphism oracle on every card pair
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(20261020)
        outcomes = []
        for seed in range(25):
            for d in degrees:
                g = nx.random_regular_graph(d, n, seed=seed)
                A = SymmetricMatrix(nx.to_numpy_array(g, nodelist=range(n)))
                others = (nx.to_numpy_array(nx.random_regular_graph(d, n, seed=seed + 1000),
                                            nodelist=range(n)),
                          perm_similarity(A, card_class_tau(g, rng)).entries)
                for b in others:
                    B, h = SymmetricMatrix(b), nx.from_numpy_array(b)
                    cards_match = all(
                        nx.is_isomorphic(g.subgraph(set(range(n)) - {i}),
                                         h.subgraph(set(range(n)) - {i}))
                        for i in range(n))
                    sigma = find_hypomorphism(A, B)
                    assert (sigma is not None) == cards_match, (seed, d, b)
                    if sigma is not None:
                        assert verify_hypomorphism(A, B, sigma).valid
                    outcomes.append(cards_match)
        assert sum(outcomes) >= 50 and outcomes.count(False) >= 30


def reference_match_submatrix(a, b, atol):
    """The per-card search tested fit by fit on numpy entries: each (k, cand) fit
    checked at the node where the backtracking reaches it, with no table."""
    m = a.shape[0]
    rows_a, rows_b = np.sort(a, axis=1), np.sort(b, axis=1)
    image, used = [-1] * m, [False] * m

    def extend(k):
        if k == m:
            return True
        for cand in range(m):
            if used[cand] or abs(b[cand, cand] - a[k, k]) > atol:
                continue
            if np.max(np.abs(rows_b[cand] - rows_a[k])) > atol:
                continue
            if any(abs(b[cand, image[l]] - a[k, l]) > atol for l in range(k)):
                continue
            image[k], used[cand] = cand, True
            if extend(k + 1):
                return True
            image[k], used[cand] = -1, False
        return False

    return Permutation(tuple(image)) if extend(0) else None


class TestSearchAgainstReference:
    """The table-driven card search returns the reference's permutation or None on
    the cards of the atlas graphs on 3-6 vertices."""

    @pytest.mark.parametrize("relabelling", ["identity", "card-class", "random"])
    def test_atlas_graphs_on_3_to_6_vertices(self, relabelling):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(20261019)
        graphs = [g for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6]
        assert len(graphs) == 205
        found = cards = 0
        for g in graphs:
            n = g.number_of_nodes()
            A = SymmetricMatrix(nx.to_numpy_array(g, nodelist=range(n)))
            if relabelling == "identity":
                tau = Permutation.identity(n)
            elif relabelling == "card-class":
                tau = card_class_tau(g, rng)
            else:
                tau = Permutation(tuple(int(v) for v in rng.permutation(n)))
            B = perm_similarity(A, tau)
            atol = EXACT_TOL * scale(A.entries, B.entries)
            deck_a, deck_b = deck(A), deck(B)
            # card i against card i, as find_hypomorphism pairs them; under the identity
            # every (i, j), so that isomorphic cards meet under other labellings too
            pairs = (itertools.product(range(n), repeat=2) if relabelling == "identity"
                     else zip(range(n), range(n)))
            for i, j in pairs:
                a, b = deck_a[i].entries, deck_b[j].entries
                match = hypomorphism._match_submatrix(a, b, atol)
                assert match == reference_match_submatrix(a, b, atol), (list(g.edges), tau, i, j)
                found += match is not None
            cards += n
        if relabelling == "card-class":  # every card has an isomorphic partner
            assert found == cards
        else:
            assert found >= 400


class TestGenPair:
    def test_rotated_cycle_certified(self):
        rec = Graph6Record(n=5, adjacency=cycle_adjacency(5).entries.astype(int))
        A, B, sigma = gen_pair(rec, Permutation.rotation(5))
        assert sigma is not None
        assert verify_hypomorphism(A, B, sigma).valid

    def test_identity_relabeling(self):
        rec = Graph6Record(n=5, adjacency=cycle_adjacency(5).entries.astype(int))
        A, B, sigma = gen_pair(rec, Permutation.identity(5))
        assert np.array_equal(A.entries, B.entries)
        assert sigma is not None

    def test_path_swap_mismatches_at_center(self):
        rec = Graph6Record(n=3, adjacency=path_adjacency(3).entries.astype(int))
        A, B, sigma = gen_pair(rec, Permutation.swap(3, 0, 1))
        assert sigma is None
        # index 0 deletes a leaf of A but the relocated center of B
        assert deck(A)[0].entries.sum() == 2
        assert deck(B)[0].entries.sum() == 0

    def test_round_trips_through_graph6(self):
        rec = graph6_decode(graph6_encode(cycle_adjacency(6).entries))
        A, B, sigma = gen_pair(rec, Permutation.reflection(6))
        assert sigma is not None and verify_hypomorphism(A, B, sigma).valid


class TestCorpus:
    def test_majors_match_across_corpus(self):
        for pair in cycle_pair_corpus(ns=(5, 6)):
            if pair["name"].endswith("shuffle"):
                continue
            np.testing.assert_allclose(deck_dets(pair["A"]), deck_dets(pair["B"]), atol=1e-10)

    def test_certificates_reverify(self):
        for pair in cycle_pair_corpus(ns=(5, 6, 7)):
            if not pair["name"].endswith("rotation"):
                continue
            assert verify_hypomorphism(pair["A"], pair["B"], pair["sigma"]).valid

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orders_below_the_bound_raise_before_any_pair(self, monkeypatch, n):
        # swap(1, 3) is out of range on C2 and C3 and an automorphism of C4
        assert CORPUS_MIN_ORDER == 5
        built = []
        monkeypatch.setattr(hypomorphism, "matrix_pair", lambda *args: built.append(args))
        with pytest.raises(DegenerateOrder, match=f"start at 5, got {n}"):
            cycle_pair_corpus(ns=(5, n))
        assert built == []

    def test_orders_from_a_generator(self):
        # the bound check must not use up the orders the corpus is built from
        names = [p["name"] for p in cycle_pair_corpus(ns=(n for n in (5, 6)))]
        assert [name for name in names if name.endswith("shuffle")] == ["C5-shuffle", "C6-shuffle"]


def fancy_index_residuals(A, B, sigma):
    """The gate's per-card residuals by 3-D fancy indexing, the reindexing the flat
    gathers replace: B[moved[i, p], moved[i, q]] - A[keep[i, p], keep[i, q]]."""
    n = A.n
    keep = leave_one_out(n)
    moved = keep[np.arange(n)[:, None], [s.image for s in sigma.sigmas]]
    diff = (B.entries[moved[:, :, None], moved[:, None, :]]
            - A.entries[keep[:, :, None], keep[:, None, :]])
    return np.abs(diff).reshape(n, -1).max(axis=1)


class TestFlatGathers:
    """The gate's two flat gathers, A.take(card_index(n)) and B.take(sigma.index_tables),
    subtract the same two floats per entry as the 3-D fancy index, so every residual,
    and with it valid, failing_index and worst_residual, is bit-identical."""

    @staticmethod
    def assert_matches_reference(A, B, sigma):
        ref = fancy_index_residuals(A, B, sigma)
        gathered = np.abs(B.entries.take(sigma.index_tables)
                          - A.entries.take(card_index(A.n))).reshape(A.n, -1).max(axis=1)
        assert gathered.tobytes() == ref.tobytes()
        cert = verify_hypomorphism(A, B, sigma)
        failing = np.flatnonzero(ref > cert.tol)
        assert cert.worst_residual == float(ref.max())
        assert cert.valid == (failing.size == 0)
        assert cert.failing_index == (int(failing[0]) if failing.size else None)
        return cert

    def test_atlas_pairs_on_3_to_6_vertices(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(32)
        graphs = [g for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6]
        assert len(graphs) == 205
        for g in graphs:
            n = g.number_of_nodes()
            tau = card_class_tau(g, rng)
            A = SymmetricMatrix(nx.to_numpy_array(g))
            B = perm_similarity(A, tau)
            assert self.assert_matches_reference(A, B, find_hypomorphism(A, B)).valid
            # seeded weights on the edges and the diagonal under a seeded sigma family:
            # residuals that are neither 0 nor 1
            w = nx.to_numpy_array(g) * rng.uniform(0.5, 2.0, (n, n))
            A = SymmetricMatrix(np.triu(w) + np.triu(w, 1).T + np.diag(rng.uniform(-1, 1, n)))
            sigma = Hypomorphism(tuple(Permutation(tuple(rng.permutation(n - 1)))
                                       for _ in range(n)))
            assert not self.assert_matches_reference(A, perm_similarity(A, tau), sigma).valid

    def test_cycle_corpus(self):
        for pair in cycle_pair_corpus():
            cert = self.assert_matches_reference(pair["A"], pair["B"], pair["sigma"])
            assert cert.valid and cert.worst_residual == 0.0
            A, B = signed_cycle_near_miss(np.ones(pair["A"].n), np.zeros(pair["A"].n))
            assert not self.assert_matches_reference(A, B, pair["sigma"]).valid

    def test_index_table_is_sigmas_order_of_bs_cards(self):
        A, B = cycle_adjacency(6), perm_similarity(cycle_adjacency(6), Permutation.swap(6, 1, 3))
        sigma = find_hypomorphism(A, B)
        cards_b = B.entries.take(sigma.index_tables)
        for i, card in enumerate(deck(B)):
            image = list(sigma.sigmas[i].image)
            assert cards_b[i].tobytes() == card.entries[np.ix_(image, image)].tobytes()
