import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from reconlab import (
    Hypomorphism,
    NotSymmetric,
    Permutation,
    SearchTooLarge,
    SymmetricMatrix,
    deck,
    find_hypomorphism,
    gen_pair,
    graph6_decode,
    perm_similarity,
    verify_hypomorphism,
    verify_tutte,
)
from reconlab.graph6 import Graph6Record, graph6_encode
from reconlab import hypomorphism
from reconlab.hypomorphism import EXACT_TOL, cycle_adjacency, cycle_pair_corpus
from reconlab.matrixcore import scale

from conftest import (
    complete_adjacency,
    deck_dets,
    identity_hypomorphism,
    path_adjacency,
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
        # asymmetry 5e-8 is within 1e-10 * 1000, the tolerance at A's own scale;
        # the card that deletes row 0 has scale 1, where it would not be
        A = SymmetricMatrix([[0.0, 1000.0, 0.0], [1000.0, 0.0, 0.5], [0.0, 0.5 + 5e-8, 0.0]])
        cert = verify_hypomorphism(A, A, identity_hypomorphism(3))
        assert cert.valid and cert.worst_residual == 0.0 and cert.failing_index is None
        assert verify_tutte(A, A, identity_hypomorphism(3)).passed

    # deck() rebuilds each card as a SymmetricMatrix, whose asymmetry tolerance is
    # relative to the card's own scale; deck slices validated once would mend it
    @pytest.mark.xfail(strict=True, raises=NotSymmetric,
                       reason="each deck card is validated at its own smaller scale")
    @pytest.mark.parametrize("call", [
        pytest.param(lambda A: len(deck(A)) == 3, id="deck"),
        pytest.param(lambda A: find_hypomorphism(A, A) is not None, id="find_hypomorphism"),
    ])
    def test_card_scale_does_not_tighten_deck_symmetry(self, call):
        A = SymmetricMatrix([[0.0, 1000.0, 0.0], [1000.0, 0.0, 0.5], [0.0, 0.5 + 5e-8, 0.0]])
        assert call(A)


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
        for pair in cycle_pair_corpus(ns=(5, 6), kinds=("rotation", "reflection")):
            np.testing.assert_allclose(deck_dets(pair["A"]), deck_dets(pair["B"]), atol=1e-10)

    def test_certificates_reverify(self):
        for pair in cycle_pair_corpus(ns=(5, 6, 7), kinds=("rotation",)):
            assert verify_hypomorphism(pair["A"], pair["B"], pair["sigma"]).valid
