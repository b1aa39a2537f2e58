import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconlab import (
    DegenerateOrder,
    DimensionMismatch,
    NotFinite,
    NotSymmetric,
    Permutation,
    SymmetricMatrix,
    deck,
    perm_similarity,
)
from reconlab.hypomorphism import cycle_adjacency, matrix_pair
from reconlab.matrixcore import leave_one_out, shifted_det_grid

from conftest import CARD_SCALE_RAW, deck_dets, path_adjacency, symmetric_matrices


def det_cofactor(a: np.ndarray) -> float:
    """Independent determinant oracle by first-row cofactor expansion."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(a[1:], j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * det_cofactor(minor)
    return total


class TestSymmetricMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SymmetricMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_accepts_subtolerance_noise(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        assert SymmetricMatrix(a).n == 2

    def test_subtolerance_noise_stores_the_lower_triangle_mirrored(self):
        stored = SymmetricMatrix(CARD_SCALE_RAW).entries
        assert np.array_equal(stored, stored.T)
        mirrored = np.tril(CARD_SCALE_RAW) + np.tril(CARD_SCALE_RAW, -1).T
        np.testing.assert_array_equal(stored, mirrored)
        # eigh reads the lower triangle, so the stored matrix decomposes bit for bit alike
        for got, raw in zip(np.linalg.eigh(stored), np.linalg.eigh(CARD_SCALE_RAW)):
            assert got.tobytes() == raw.tobytes()

    def test_exactly_symmetric_input_keeps_its_bytes(self, rng):
        w = rng.standard_normal((6, 6))
        a = w + w.T
        a[0, 1] = a[1, 0] = -0.0
        assert SymmetricMatrix(a).entries.tobytes() == a.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        off_diagonal = np.array([[0.0, bad], [bad, 0.0]])
        diagonal = np.diag([bad, 1.0])
        for a in (off_diagonal, diagonal):
            with pytest.raises(NotFinite):
                SymmetricMatrix(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_entries_write_protected(self):
        m = SymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestDeck:
    def test_identity(self):
        for card in deck(SymmetricMatrix(np.eye(3))):
            np.testing.assert_array_equal(card.entries, np.eye(2))

    def test_all_ones(self):
        for card in deck(SymmetricMatrix(np.ones((3, 3)))):
            np.testing.assert_array_equal(card.entries, np.ones((2, 2)))

    def test_path(self):
        cards = deck(path_adjacency(3))
        np.testing.assert_array_equal(cards[1].entries, np.zeros((2, 2)))
        np.testing.assert_array_equal(cards[0].entries, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(cards[2].entries, [[0, 1], [1, 0]])

    def test_too_small(self):
        with pytest.raises(DegenerateOrder):
            deck(SymmetricMatrix(np.array([[3.0]])))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_row_and_column_deletion(self, n, rng):
        w = rng.standard_normal((n, n))
        A = SymmetricMatrix(w + w.T)
        cards = deck(A)
        assert len(cards) == n
        for i, card in enumerate(cards):
            ref = np.delete(np.delete(A.entries, i, axis=0), i, axis=1)
            assert card.entries.tobytes() == ref.tobytes()
            assert card.entries.flags.c_contiguous and not card.entries.flags.writeable

    def test_card_scale_matrix(self):
        cards = deck(SymmetricMatrix(CARD_SCALE_RAW))
        assert len(cards) == 3
        # card 0 keeps rows 1 and 2, whose lower-triangle entry is 0.5 + 5e-8
        np.testing.assert_array_equal(cards[0].entries, [[0.0, 0.5 + 5e-8], [0.5 + 5e-8, 0.0]])


@pytest.mark.parametrize("n", range(2, 10))
def test_leave_one_out_rows(n):
    expected = np.array([np.delete(np.arange(n), i) for i in range(n)])
    np.testing.assert_array_equal(leave_one_out(n), expected)


class TestShiftedDet:
    def test_identity(self):
        grid = shifted_det_grid(SymmetricMatrix(np.eye(3)), [0.0], [0.0])
        assert grid[0, 0] == pytest.approx(1.0)

    def test_rank_one_spectrum(self):
        # t*J on the zero matrix has eigenvalues {3t, 0, 0}
        grid = shifted_det_grid(SymmetricMatrix(np.zeros((3, 3))), [1.0], [1.0])
        assert grid[0, 0] == pytest.approx(2.0)

    def test_against_cofactor_oracle(self, rng):
        for _ in range(10):
            w = rng.standard_normal((4, 4))
            a = SymmetricMatrix(0.5 * (w + w.T))
            lam, t = rng.uniform(-2, 2, size=2)
            expected = det_cofactor(a.entries - lam * np.eye(4) + t * np.ones((4, 4)))
            got = shifted_det_grid(a, [lam], [t])[0, 0]
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(symmetric_matrices(max_n=8), st.floats(-3, 3, allow_nan=False))
    def test_char_poly_product(self, A, lam):
        values = np.linalg.eigvalsh(A.entries)
        expected = float(np.prod(values - lam))
        scale = max(1.0, abs(expected))
        assert abs(shifted_det_grid(A, [lam], [0.0])[0, 0] - expected) <= 1e-8 * scale


class TestPermSimilarity:
    def test_identity(self, rng):
        w = rng.standard_normal((4, 4))
        a = SymmetricMatrix(0.5 * (w + w.T))
        b = perm_similarity(a, Permutation.identity(4))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_path_swap_by_hand(self):
        b = perm_similarity(path_adjacency(3), Permutation.swap(3, 0, 1))
        np.testing.assert_array_equal(b.entries, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_degree_mismatch(self):
        with pytest.raises(DimensionMismatch):
            perm_similarity(SymmetricMatrix(np.eye(3)), Permutation.identity(4))

    def test_involution_exact(self, rng):
        w = rng.standard_normal((5, 5))
        a = SymmetricMatrix(0.5 * (w + w.T))
        tau = Permutation(tuple(rng.permutation(5)))
        inverse = Permutation(tuple(int(k) for k in np.argsort(tau.image)))
        back = perm_similarity(perm_similarity(a, tau), inverse)
        assert np.array_equal(back.entries, a.entries)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_matrices(), st.randoms(use_true_random=False))
    def test_spectrum_invariant(self, A, rnd):
        img = list(range(A.n))
        rnd.shuffle(img)
        tau = Permutation(tuple(img))
        np.testing.assert_allclose(np.linalg.eigvalsh(perm_similarity(A, tau).entries),
                                   np.linalg.eigvalsh(A.entries), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_matrices(min_n=3), st.randoms(use_true_random=False))
    def test_deck_commutes_with_relabeling(self, A, rnd):
        img = list(range(A.n))
        rnd.shuffle(img)
        tau = Permutation(tuple(img))
        deck_a = deck(A)
        deck_b = deck(perm_similarity(A, tau))
        for i in range(A.n):
            np.testing.assert_allclose(
                np.linalg.eigvalsh(deck_b[tau(i)].entries),
                np.linalg.eigvalsh(deck_a[i].entries), atol=1e-9)


class TestMajors:
    def test_hypomorphic_pair_agrees(self):
        A, B, sigma = matrix_pair(cycle_adjacency(5), Permutation.rotation(5))
        assert sigma is not None
        np.testing.assert_allclose(deck_dets(A), deck_dets(B), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(symmetric_matrices(), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, A, rnd):
        img = list(range(A.n))
        rnd.shuffle(img)
        tau = Permutation(tuple(img))
        np.testing.assert_allclose(deck_dets(perm_similarity(A, tau)), deck_dets(A),
                                   atol=1e-10)
