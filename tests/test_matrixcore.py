import dataclasses

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
from reconlab.matrixcore import (DEFAULT_GRID, card_index, default_lambdas, leave_one_out,
                                 scale, shifted_det_grid)

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

    def test_rejects_order_zero(self):
        with pytest.raises(DegenerateOrder, match="at least 1"):
            SymmetricMatrix(np.zeros((0, 0)))

    def test_entries_write_protected(self):
        m = SymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestKeptScale:
    """The constructor keeps scale(entries) of the stored entries, the power of two
    2^k with the largest |entry| in [2^k, 2^(k+1)), with no floor at 1; the spectrum
    reads it."""

    @pytest.mark.parametrize("raw, want", [
        pytest.param(np.array([[2.0, -3.5], [-3.5, 0.25]]), 2.0, id="exactly-symmetric"),
        # stored as the lower triangle mirrored: the peak 1024 + 1e-8 above it, whose
        # unit is 1024, is not kept
        pytest.param(np.array([[0.0, 1024.0 + 1e-8], [np.nextafter(1024.0, 0.0), 0.0]]), 512.0,
                     id="mirrored-peak"),
        pytest.param(CARD_SCALE_RAW, 512.0, id="card-scale-raw"),
        pytest.param(1e-13 * cycle_adjacency(5).entries, 2.0 ** -44, id="1e-13*C5"),
        pytest.param(1e13 * cycle_adjacency(8).entries, 2.0 ** 43, id="1e13*C8"),
    ])
    def test_scale_of_the_stored_entries(self, raw, want):
        M = SymmetricMatrix(raw)
        assert M.scale == scale(M.entries) == want
        spec = M.spectrum
        assert spec.scale == M.scale
        # the spectrum's own extremes give the same peak: the largest |entry| of A
        # lies off the diagonal or at a diagonal extreme
        assert max(spec.off_peak, abs(spec.diag_lo), abs(spec.diag_hi)) == np.abs(M.entries).max()

    @pytest.mark.parametrize("peak, want", [
        (0.0, 1.0), (1.0, 1.0), (np.nextafter(2.0, 0.0), 1.0), (2.0, 2.0), (0.75, 0.5),
        (5e-324, 5e-324), (1.7e308, 2.0 ** 1023)])
    def test_scale_is_the_power_of_two_unit(self, peak, want):
        assert scale(np.array([[peak, -0.5 * peak]]), -peak) == want
        assert SymmetricMatrix(np.array([[peak]])).scale == want

    def test_kept_and_frozen(self):
        M = SymmetricMatrix(np.eye(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            M.scale = 2.0
        assert "scale" not in repr(M)


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

    @staticmethod
    def per_point(A, lams, ts):
        """np.linalg.det of each A - lam I + t J taken on its own."""
        return np.array([[np.linalg.det(A.entries - lam * np.eye(A.n) + t * np.ones((A.n, A.n)))
                          for t in ts] for lam in lams])

    @pytest.mark.parametrize("n", range(3, 12))
    def test_linear_in_t_matches_per_point_lu(self, rng, n):
        # det(M + tJ) = det M + t 1^T adj(M) 1 against one LU per point, at every scale;
        # the t = 0 column is det(A - lam I) itself
        lams, ts = default_lambdas(n), np.array(DEFAULT_GRID)
        assert ts[4] == 0.0
        for exponent in range(-8, 9, 2):
            w = rng.standard_normal((n, n))
            factor = 10.0 ** exponent
            A = SymmetricMatrix(factor * (w + w.T))
            grid = shifted_det_grid(A, factor * lams, factor * ts)
            reference = self.per_point(A, factor * lams, factor * ts)
            np.testing.assert_array_equal(grid[:, 4], reference[:, 4])
            peak = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(grid - reference)) <= 1e-12 * peak, exponent

    @pytest.mark.parametrize("t_count", [1, 2, 9, 40])
    def test_two_lu_stacks_for_any_t_grid(self, monkeypatch, t_count):
        calls = []
        det = np.linalg.det

        def counting(m):
            calls.append(np.shape(m))
            return det(m)

        monkeypatch.setattr(np.linalg, "det", counting)
        A = cycle_adjacency(6)
        grid = shifted_det_grid(A, default_lambdas(6), np.linspace(-2.0, 2.0, t_count))
        assert grid.shape == (9, t_count)
        assert calls == [(9, 6, 6), (9, 7, 7)]  # det(A - lam I), then the bordered stack


class TestPairStackedGrid:
    """shifted_det_grid over a tuple of matrices factors each one on its own: every grid
    is bit-identical to LU of each shifted and bordered matrix taken alone."""

    @pytest.mark.parametrize("n", range(3, 12))
    def test_each_entry_is_its_own_lu(self, rng, n):
        lams, ts = default_lambdas(n), np.array(DEFAULT_GRID)
        for exponent in (-6, 0, 6):
            pair = tuple(SymmetricMatrix(10.0 ** exponent * (w + w.T))
                         for w in rng.standard_normal((2, n, n)))
            grids = shifted_det_grid(pair, lams, ts)
            assert grids.shape == (2, len(lams), len(ts))
            for M, grid in zip(pair, grids):
                bordered = np.ones((n + 1, n + 1))
                bordered[n, n] = 0.0
                for k, lam in enumerate(lams):
                    shifted = M.entries - lam * np.eye(n)
                    bordered[:n, :n] = shifted
                    p, q = np.linalg.det(shifted), -np.linalg.det(bordered)
                    assert grid[k, 4] == p  # t = 0
                    assert grid[k].tobytes() == (p + q * ts).tobytes()
                assert grid.tobytes() == shifted_det_grid(M, lams, ts).tobytes()

    def test_two_det_calls_for_the_pair(self, monkeypatch):
        calls = []
        det = np.linalg.det

        def counting(m):
            calls.append(np.shape(m))
            return det(m)

        monkeypatch.setattr(np.linalg, "det", counting)
        A, B, _ = matrix_pair(cycle_adjacency(6), Permutation.swap(6, 1, 3))
        shifted_det_grid((A, B), default_lambdas(6), DEFAULT_GRID)
        assert calls == [(2, 9, 6, 6), (2, 9, 7, 7)]


class TestPerOrderTables:
    """leave_one_out, card_index and default_lambdas are kept once per order, read-only."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_shared_and_read_only(self, n):
        for table in (leave_one_out, card_index, default_lambdas):
            assert table(n) is table(n)
            assert not table(n).flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table(n).flat[0] = 1

    @pytest.mark.parametrize("n", range(2, 10))
    def test_card_index_cuts_every_card(self, rng, n):
        w = rng.standard_normal((n, n))
        a = w + w.T
        keep = leave_one_out(n)
        assert card_index(n).shape == (n, n - 1, n - 1)
        assert a.take(card_index(n)).tobytes() == a[keep[:, :, None], keep[:, None, :]].tobytes()


class TestDefaultDetGrid:
    """The default grids with verify_eq1's lam = 0 row appended: each row is the
    one a grid of that lam alone gives, so the appended row changes no other."""

    @pytest.mark.parametrize("n", range(3, 12))
    def test_bit_equal_to_a_fresh_grid(self, rng, n):
        w = rng.standard_normal((n, n))
        A = SymmetricMatrix(w + w.T)
        lams = np.linspace(-4.0, 4.0, max(9, n + 1))
        np.testing.assert_array_equal(default_lambdas(n), lams)
        grid = shifted_det_grid(A, list(lams) + [0.0], DEFAULT_GRID)
        assert grid.shape == (len(lams) + 1, 9)
        assert grid[-1].tobytes() == shifted_det_grid(A, [0.0], DEFAULT_GRID)[0].tobytes()
        assert grid[:-1].tobytes() == shifted_det_grid(A, lams, DEFAULT_GRID).tobytes()


class TestPermutation:
    @pytest.mark.parametrize("image", [(0.5, 1.7, 2), (True, False, 2), (0, 1, 2.0), ("0", 1, 2)],
                             ids=["floats", "bools", "integral-float", "string"])
    def test_non_integer_entry_rejected(self, image):
        # int() would read (0.5, 1.7, 2) as the identity and (True, False, 2) as a swap
        bad = next(i for i in image if isinstance(i, (bool, float, str)))
        with pytest.raises(DimensionMismatch, match=f"entry {bad!r} is not an integer"):
            Permutation(image)

    def test_numpy_integers_accepted(self):
        tau = Permutation(tuple(np.array([2, 0, 1])))
        assert tau.image == (2, 0, 1)
        assert all(type(i) is int for i in tau.image)


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

    @pytest.mark.parametrize("i, j", [(0, 5), (5, 0), (-1, 2), (2, -5)])
    def test_swap_out_of_range(self, i, j):
        # a negative index would otherwise count from the end: swap(-1, 2) read as swap(4, 2)
        with pytest.raises(DimensionMismatch, match="out of range"):
            Permutation.swap(5, i, j)

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
                np.linalg.eigvalsh(deck_b[tau.image[i]].entries),
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
