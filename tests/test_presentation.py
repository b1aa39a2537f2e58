import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconlab import (
    BadPosition,
    DimensionMismatch,
    GoodPositionReason,
    NotCertified,
    NotFinite,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    Presentation,
    SymmetricMatrix,
    factor_presentation,
    good_position_report,
    good_position_shift,
    lambda0_search,
    per1_report,
    perturb_presentation,
    project_origin,
    t_of_lambda,
    verify_main2,
    volume_eigenvector,
)
from reconlab.geometry_suite import random_good_position_presentation, random_pd_matrix
from reconlab.hypomorphism import cycle_adjacency, cycle_pair_corpus
from reconlab.matrixcore import POS_MARGIN, REL_TOL, Spectrum, scale

EQUILATERAL = SymmetricMatrix(np.array([
    [1.0, -0.5, -0.5],
    [-0.5, 1.0, -0.5],
    [-0.5, -0.5, 1.0],
]))


def planar_example_presentation():
    cols = np.array([[2.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
    return Presentation(cols)


def affine_distance_sq(points: np.ndarray) -> float:
    """Least-squares oracle: squared distance from the origin to aff(points)."""
    base = points[:, 0]
    dirs = points[:, 1:] - base[:, None]
    coef, _, _, _ = np.linalg.lstsq(dirs, -base, rcond=None)
    closest = base + dirs @ coef
    return float(closest @ closest)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_presentation_rejects_non_finite(bad):
    with pytest.raises(NotFinite):
        Presentation(np.array([[bad, 1.0], [1.0, 0.0]]))


class TestFactor:
    def test_presentation_must_be_square(self):
        with pytest.raises(DimensionMismatch, match="square"):
            Presentation(np.zeros((2, 3)))

    def test_identity(self):
        U = factor_presentation(SymmetricMatrix(np.eye(3)))
        np.testing.assert_allclose(U.gram.entries, np.eye(3), atol=1e-12)

    def test_all_ones_collapses_to_one_direction(self):
        U = factor_presentation(SymmetricMatrix(np.ones((3, 3))))
        for i in range(3):
            for j in range(3):
                assert U.columns[:, i] @ U.columns[:, j] == pytest.approx(1.0, abs=1e-10)

    def test_gram_of_random_factor(self, rng):
        for n in (3, 5, 8):
            w = rng.standard_normal((n, n))
            a = SymmetricMatrix(w.T @ w)
            U = factor_presentation(a)
            assert np.max(np.abs(U.gram.entries - a.entries)) <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            factor_presentation(SymmetricMatrix(-np.eye(3)))


class TestGoodPosition:
    def test_equilateral_triangle(self):
        rep = good_position_report(EQUILATERAL)
        assert rep.is_good and rep.reason is GoodPositionReason.GOOD
        np.testing.assert_allclose(rep.kernel_vector, np.ones(3) / 3, atol=1e-12)

    def test_full_rank_is_not_good(self):
        rep = good_position_report(SymmetricMatrix(np.eye(3)))
        assert not rep.is_good
        assert rep.rank == 3
        assert rep.reason is GoodPositionReason.RANK_NOT_N_MINUS_1

    def test_hand_solved_kernel(self):
        # a(2,0) + b(0,1) + c(-1,-1) = 0 forces (a,b,c) parallel to (1,2,2)
        rep = good_position_report(planar_example_presentation().gram)
        assert rep.is_good
        np.testing.assert_allclose(rep.kernel_vector, [0.2, 0.4, 0.4], atol=1e-12)

    def test_mixed_sign_kernel_detected(self):
        # {e1, e2, e1+e2}: the kernel combo is (1, 1, -1), so 0 is on the hull
        # boundary's far side and the sign test must reject
        cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        rep = good_position_report(Presentation(cols).gram)
        assert not rep.is_good
        assert rep.reason is GoodPositionReason.KERNEL_SIGN_MIXED

    @pytest.mark.parametrize("kernel", [(-0.5, 0.3, 0.2), (0.5, -0.3, -0.2), (0.0, -0.6, 0.4),
                                        (1e-14, 0.6, -0.4)])
    def test_mixed_kernel_leads_with_its_first_entry_above_tolerance(self, kernel):
        # the projector onto kernel's complement is PSD of rank n - 1 with that kernel;
        # entries at or below _KERNEL_POS_TOL do not set the sign
        v = np.array(kernel)
        rep = good_position_report(SymmetricMatrix(np.eye(3) - np.outer(v, v) / (v @ v)))
        assert rep.reason is GoodPositionReason.KERNEL_SIGN_MIXED
        lead = next(i for i, x in enumerate(kernel) if abs(x) > 1e-12)
        assert rep.kernel_vector[lead] > 0.0
        np.testing.assert_allclose(rep.kernel_vector, np.sign(kernel[lead]) * v / np.abs(v).sum(),
                                   atol=1e-12)


class TestVolumeEigenvector:
    def test_equilateral_symmetry(self):
        U = factor_presentation(EQUILATERAL)
        np.testing.assert_allclose(volume_eigenvector(U), np.ones(3) / 3, atol=1e-9)

    def test_planar_triangle_areas(self):
        # areas (1/2, 1, 1) normalized
        np.testing.assert_allclose(volume_eigenvector(planar_example_presentation()),
                                   [0.2, 0.4, 0.4], atol=1e-12)

    def test_lies_in_kernel(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            alpha = rng.uniform(0.2, 1.0, n)
            lead = rng.standard_normal((n - 1, n - 1))
            last = -(lead @ alpha[:n - 1]) / alpha[n - 1]
            U = Presentation(np.vstack([np.column_stack([lead, last]), np.zeros(n)]))
            vec = volume_eigenvector(U)
            a = U.gram.entries
            assert np.max(np.abs(a @ vec)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
            assert np.min(vec) > 0

    def test_requires_good_position(self):
        with pytest.raises(BadPosition):
            volume_eigenvector(Presentation(np.eye(3)))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_per_index_determinants(self, n):
        # the batched determinant against one np.delete + det per index, bit for bit
        rng = np.random.default_rng([2024, n])
        fact = float(math.factorial(n - 1))
        for _ in range(50):
            U = random_good_position_presentation(rng, n)
            coords = np.linalg.svd(U.columns)[0][:, :n - 1].T @ U.columns
            alpha = np.empty(n)
            for i in range(n):
                alpha[i] = abs(np.linalg.det(np.delete(coords, i, axis=1))) / fact
            np.testing.assert_array_equal(volume_eigenvector(U), alpha / np.sum(alpha))


class TestProjectOrigin:
    def test_standard_simplex_centroid(self):
        path = project_origin(Presentation(np.eye(3)))
        np.testing.assert_allclose(path.u0, np.ones(3) / 3, atol=1e-12)
        assert path.u0_norm_sq == pytest.approx(1.0 / 3.0)

    def test_distance_oracle(self):
        U = Presentation(np.diag([1.0, 2.0]))
        path = project_origin(U)
        assert path.u0_norm_sq == pytest.approx(0.8)
        assert path.u0_norm_sq == pytest.approx(affine_distance_sq(U.columns))

    def test_orthogonality_residual(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            w = rng.standard_normal((n, n))
            U = factor_presentation(SymmetricMatrix(w.T @ w + 0.3 * np.eye(n)))
            path = project_origin(U)
            scale = max(1.0, float(np.max(np.abs(U.columns))) ** 2)
            for i in range(n):
                assert abs(path.u0 @ (U.columns[:, i] - path.u0)) <= 1e-9 * scale

    def test_rejects_singular_gram(self):
        U = factor_presentation(EQUILATERAL)
        with pytest.raises(NotPositiveDefinite):
            project_origin(U)


def _lu_inverse_ones(A: SymmetricMatrix) -> np.ndarray:
    """A^-1 1 by an LU solve: an oracle independent of the kept spectrum."""
    return np.linalg.solve(A.entries, np.ones(A.n))


def _rel_gap(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


class TestInverseOnesAgainstLU:
    """project_origin and per1_report read A^-1 1 from the kept spectrum; an LU solve agrees."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_project_origin(self, n):
        rng = np.random.default_rng(2000 + n)
        for _ in range(20):
            U = factor_presentation(random_pd_matrix(rng, n))
            path = project_origin(U)
            x = _lu_inverse_ones(U.gram)
            norm_sq = 1.0 / float(x.sum())
            assert _rel_gap(path.u0_norm_sq, norm_sq) <= 1e-12
            assert _rel_gap(path.u0, (U.columns @ x) * norm_sq) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_per1_report(self, n):
        rng = np.random.default_rng(3000 + n)
        for _ in range(20):
            A = random_pd_matrix(rng, n)
            rep = per1_report(A)
            x = _lu_inverse_ones(A)
            w = x / float(x.sum())
            assert _rel_gap(rep.weights, w) <= 1e-12
            assert rep.cond3 == bool(np.min(x) > 0.0)
            assert rep.cond2 == bool(np.min(w) > 0.0)


class TestPerturbation:
    def test_s_zero_identity(self):
        U = Presentation(np.eye(3))
        np.testing.assert_array_equal(perturb_presentation(U, 0.0).columns, U.columns)

    def test_s_two_reflection_preserves_gram(self, rng):
        w = rng.standard_normal((4, 4))
        U = factor_presentation(SymmetricMatrix(w.T @ w + 0.5 * np.eye(4)))
        reflected = perturb_presentation(U, 2.0)
        np.testing.assert_allclose(reflected.gram.entries, U.gram.entries, atol=1e-9)
        assert not np.allclose(reflected.columns, U.columns)

    def test_s_one_hits_the_boundary(self):
        shifted = perturb_presentation(Presentation(np.eye(3)), 1.0)
        np.testing.assert_allclose(shifted.gram.entries,
                                   np.eye(3) - np.ones((3, 3)) / 3.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(shifted.gram.entries)
        np.testing.assert_allclose(sorted(eigs), [0.0, 1.0, 1.0], atol=1e-12)

    def test_gram_law_on_grid(self, rng):
        w = rng.standard_normal((5, 5))
        a = SymmetricMatrix(w.T @ w + 0.5 * np.eye(5))
        U = factor_presentation(a)
        path = project_origin(U)
        j = np.ones((5, 5))
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            target = a.entries + (s * s - 2 * s) * path.u0_norm_sq * j
            got = perturb_presentation(U, s).gram.entries
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(got - target)) <= 1e-9 * scale


class TestTOfLambda:
    def test_scalar_matrix(self):
        assert t_of_lambda(SymmetricMatrix(np.zeros((3, 3))), 3.0) == pytest.approx(-1.0)

    def test_identity(self):
        assert t_of_lambda(SymmetricMatrix(np.eye(3)), 0.0) == pytest.approx(-1.0 / 3.0)

    def test_always_negative(self, rng):
        for _ in range(10):
            w = rng.standard_normal((4, 4))
            a = SymmetricMatrix(0.5 * (w + w.T))
            lam = float(-np.linalg.eigvalsh(a.entries)[0] + rng.uniform(0.5, 3.0))
            assert t_of_lambda(a, lam) < 0

    def test_cross_formula_with_projection(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            w = rng.standard_normal((n, n))
            a = SymmetricMatrix(w.T @ w + 0.5 * np.eye(n))
            lam = float(rng.uniform(0.1, 2.0))
            shifted = SymmetricMatrix(a.entries + lam * np.eye(n))
            path = project_origin(factor_presentation(shifted))
            assert abs(t_of_lambda(a, lam) + path.u0_norm_sq) <= 1e-10

    def test_rejects_indefinite_shift(self):
        with pytest.raises(NotPositiveDefinite):
            t_of_lambda(SymmetricMatrix(np.eye(3)), -1.0)


class TestLambda0:
    def test_identity_post_check(self):
        lam0 = lambda0_search(SymmetricMatrix(np.eye(3)))
        assert Spectrum(SymmetricMatrix(np.eye(3))).certified(lam0)

    def test_anti_diagonal_closed_form(self):
        # (A + lam I)^-1 1 = (1/(lam-1)) * 1, positive only past lam = 1
        a = SymmetricMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        lam0 = lambda0_search(a)
        assert lam0 >= 1.0
        assert Spectrum(a).certified(lam0)

    def test_random_post_check_scales(self, rng):
        for _ in range(5):
            w = rng.standard_normal((5, 5))
            a = SymmetricMatrix(0.5 * (w + w.T))
            lam0 = lambda0_search(a)
            spec = Spectrum(a)
            assert spec.certified(lam0) and spec.certified(10.0 * lam0)

    def test_large_scale_certifies(self):
        # (A + lam I)^-1 1 ~ 1/lam, so the margin must shrink with the scale of A
        a = SymmetricMatrix(1e13 * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                                             [1.0, 1.0, 0.0]]))
        lam0 = lambda0_search(a)
        assert Spectrum(a).certified(lam0)

    def test_exhausted_doubling_is_typed(self):
        # at scale 1e308 the 10 lam probe overflows to inf, where (A + p I)^-1 1 is 0, so
        # the search gives up before any numpy arithmetic overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotCertified, match="overflow"):
                lambda0_search(SymmetricMatrix(1e308 * np.eye(3)))
            a = SymmetricMatrix(1e307 * np.eye(3))
            assert Spectrum(a).certified(lambda0_search(a))

    def test_overflowing_shifted_spectrum_is_typed(self):
        # 10 lam is finite but mu + 10 lam is not: the probe reads x = 0 and fails. For
        # c (J - I) at c = 1.6e307, mu = (-c, -c, 2c) and theta = c: 10c is finite, 12c is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotCertified, match="overflow"):
                lambda0_search(SymmetricMatrix(1.6e307 * (np.ones((3, 3)) - np.eye(3))))

    @pytest.mark.parametrize("entries", [
        np.ones((3, 3)), np.ones((5, 5)), np.ones((9, 9)), 2.0 ** 40 * np.ones((4, 4)),
        1.7 * 2.0 ** 1018 * np.ones((3, 3)),
    ])
    def test_all_ones_reads_the_floor_in_one_probe(self, monkeypatch, entries):
        # -mu_0 of c J is a rounding-level positive number, below REL_TOL * A.scale, so
        # the one candidate is the floor A.scale / 2, and it certifies
        probed = []
        probe = Spectrum.certified
        monkeypatch.setattr(Spectrum, "certified",
                            lambda spec, lam: probed.append(lam) or probe(spec, lam))
        A = SymmetricMatrix(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda0_search(A) == A.scale / 2
        assert probed == [A.scale / 2]

    def test_least_subnormal_unit_is_typed(self):
        # at A.scale = 2^-1074 the floor A.scale / 2 rounds to 0, which no doubling leaves
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotCertified, match="overflow"):
                lambda0_search(SymmetricMatrix(np.array([[5e-324, 0.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("entries", [np.array([[-5e-324]]),
                                         2.0 ** -1070 * cycle_adjacency(5).entries],
                             ids=["1x1", "C5"])
    def test_subnormal_unit_certifies_a_nonsingular_shift(self, entries):
        # REL_TOL * A.scale rounds to 0 here, so PD must be w > tol: at lambda0 = -mu_0
        # (5e-324 for the 1x1 case) A + lambda0 I is singular. Between adjacent subnormals
        # the bisection's midpoint rounds onto an end, so the search must stop there
        A = SymmetricMatrix(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam0 = lambda0_search(A)
        assert lam0 + A.spectrum.mu[0] > 0.0
        assert A.spectrum.certified(lam0)

    @pytest.mark.parametrize("entries", [-1e-300 * np.eye(3), np.array([[-1e-300]])])
    def test_tiny_scale_certifies_without_warnings(self, entries):
        # near the PD boundary mu + p is about the tolerance 1e-10 * A.scale ~ 1e-310, so
        # c / (mu + p) leaves the float range; the probe reads that as inf or NaN, silently
        A = SymmetricMatrix(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam0 = lambda0_search(A)
            assert 1e-300 < lam0 <= 1e-300 * (1.0 + 2.0 ** -16)
            assert A.spectrum.certified(lam0)

    def test_overflow_edge_of_a_scaled_identity(self):
        # c I has theta = -c <= 0, so lambda0 is the floor u / 2 (u = scale(c I)) while the
        # floor's 10x probe, mu + 5u, stays finite: for every c below 2^1022. From c = 2^1022
        # on that probe overflows, and the bisection starts at c + u >= 2^1023, whose 10 lam
        # is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (1e307, 1.5e307, 2.0 ** 1020, np.nextafter(2.0 ** 1022, 0.0)):
                assert lambda0_search(SymmetricMatrix(c * np.eye(3))) == scale(c) / 2
            for c in (2.0 ** 1022, 1.5 * 2.0 ** 1022):
                with pytest.raises(NotCertified, match="overflow"):
                    lambda0_search(SymmetricMatrix(c * np.eye(3)))


def reference_bisection(spec):
    """The deck-free search as a plain function: start at max|mu| + A.scale, double
    until the certificate holds, then 40 bisection steps downward."""
    hi = float(np.abs(spec.mu).max()) + spec.scale
    while not spec.certified(hi):
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if spec.certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def atlas_graphs(n_lo, n_hi):
    """(atlas index, graph) for every atlas graph on n_lo..n_hi vertices."""
    nx = pytest.importorskip("networkx")
    return [(index, g) for index, g in enumerate(nx.graph_atlas_g())
            if n_lo <= g.number_of_nodes() <= n_hi]


class TestDeckRoot:
    """Spectrum.lambda0's one search: the deck root, its ladder, the floor, the
    doubling, the pole bisection and the typed overflow."""

    @pytest.mark.parametrize("a", [-3.0, -0.75, 0.0, 2.0, 5e-9])
    def test_one_by_one_has_no_cards(self, a):
        # the (1, 0, 0) card stack has no eigenvalue, so theta = -mu_0 = -a
        spec = SymmetricMatrix(np.array([[a]])).spectrum
        assert spec.deck_root() == -a
        lam0 = spec.lambda0
        assert spec.certified(lam0)
        if a >= 0.0:
            assert lam0 == scale(a) / 2  # the floor; scale(0) = 1
        else:
            assert -a < lam0 <= -a * (1.0 + 2.0 ** -16)

    @pytest.mark.parametrize("entries", [
        np.zeros((3, 3)), np.zeros((7, 7)), 2.0 ** -30 * np.eye(3), 3.0 * np.eye(5),
        np.diag([1.0, 2.0, 7.0]), 2.0 ** 40 * (np.eye(4) + 0.1 * np.ones((4, 4))),
    ])
    def test_floor_when_theta_is_not_positive(self, entries):
        # the empty graphs, as in the atlas, read 0.5
        A = SymmetricMatrix(entries)
        spec = A.spectrum
        assert spec.deck_root() <= 0.0
        assert spec.lambda0 == A.scale / 2
        assert spec.certified(spec.lambda0)

    def test_pole_bisection_of_atlas_236(self):
        # -2 is a non-main least eigenvalue of atlas 236: its pole cancels, the root of
        # each det(K_i + lam I) at lam = 2 is defective, and eigvals reads it high
        nx = pytest.importorskip("networkx")
        spec = SymmetricMatrix(nx.to_numpy_array(nx.graph_atlas(236))).spectrum
        pole, theta = -float(spec.mu[0]), spec.deck_root()
        assert theta - pole <= 2.0 ** -16 * theta
        assert theta > 2.0 + 1e-8 > spec.lambda0 > 2.0
        assert spec.certified(spec.lambda0)

    def test_defective_root_off_the_real_axis(self):
        # component 2 of (A + lam I)^-1 1 touches 0 at lam = 4, a double root of
        # det(K_2 + lam I) that eigvals may return as a pair just off the real axis; a
        # lambda0 below 4 would leave that zero on the ray
        a = np.array([[0, 0, 2, -3], [0, -3, 0, 1], [2, 0, 0, 1], [-3, 1, 1, 3]])
        spec = SymmetricMatrix(a.astype(float)).spectrum
        assert min(exact_inverse_ones(a, Fraction(4))) == 0
        assert abs(spec.deck_root() - 4.0) <= 1e-12
        assert 4.0 < spec.lambda0 <= 4.0 * (1.0 + 2.0 ** -16)

    def test_missed_root_still_certifies(self, monkeypatch):
        # half of -mu_0 leaves A + lam I indefinite on every rung, so the search doubles
        # past the rungs and bisects back down
        nx = pytest.importorskip("networkx")
        arrays = [nx.to_numpy_array(g) for _, g in atlas_graphs(3, 6) if g.number_of_edges()]
        assert len(arrays) == 201
        with monkeypatch.context() as patched:
            patched.setattr(Spectrum, "deck_root", lambda spec: -0.5 * float(spec.mu[0]))
            specs = [Spectrum(SymmetricMatrix(a)) for a in arrays]
            got = [spec.lambda0 for spec in specs]
        for spec, lam0 in zip(specs, got):
            assert spec.certified(lam0)
            assert lam0 <= reference_bisection(spec) * (1.0 + 2.0 ** -38)

    def test_overflowing_root_raises(self, monkeypatch):
        # a root near overflow: the first rung's 10x probe is inf, so nothing can certify
        with monkeypatch.context() as patched:
            patched.setattr(Spectrum, "deck_root", lambda spec: 1e308)
            for a in (np.eye(3), np.ones((4, 4)) - np.eye(4)):
                spec = Spectrum(SymmetricMatrix(a))
                with pytest.raises(NotCertified, match="overflow"):
                    spec.lambda0
                assert "lambda0" not in spec.__dict__


def _lambda_calls(M, S, lam, copy):
    """lambda0 and t(lam) of M, and the good-position report and factor of S, each
    call on copy(M) or copy(S); floats as bytes, so that comparisons are bit for bit."""
    rep = good_position_report(copy(S))
    kernel = None if rep.kernel_vector is None else rep.kernel_vector.tobytes()
    return [np.float64(lambda0_search(copy(M))).tobytes(),
            np.float64(t_of_lambda(copy(M), lam)).tobytes(),
            rep.rank, rep.reason, kernel, factor_presentation(copy(S)).columns.tobytes()]


class TestKeptSpectrum:
    """Calls that read a kept spectrum give, bit for bit, what a fresh matrix gives."""

    def assert_kept_matches_fresh(self, M):
        lam = lambda0_search(M) + 1.0  # keeps M's spectrum and lambda0
        S = good_position_shift(M, lam)
        factor_presentation(S)  # keeps S's spectrum
        kept = _lambda_calls(M, S, lam, lambda X: X)
        assert kept == _lambda_calls(M, S, lam, lambda X: SymmetricMatrix(X.entries.copy()))
        assert M.spectrum.lambda0 == lambda0_search(M)

    def test_atlas_graphs_on_3_to_6_vertices(self):
        nx = pytest.importorskip("networkx")
        graphs = [SymmetricMatrix(nx.to_numpy_array(g))
                  for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6]
        assert len(graphs) == 205
        for M in graphs:
            self.assert_kept_matches_fresh(M)

    @pytest.mark.parametrize("exponent", range(-8, 14))
    def test_cycle_corpus_scale_sweep(self, exponent):
        for pair in cycle_pair_corpus():
            for M in (pair["A"], pair["B"]):
                self.assert_kept_matches_fresh(SymmetricMatrix(10.0 ** exponent * M.entries))

    def test_kept_arrays_are_read_only(self):
        M = SymmetricMatrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        lambda0_search(M)
        spec = M.spectrum
        for kept in (spec.mu, spec.q, spec.c, spec.c_sq):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.0

    PATH_DATA = {"c", "c_sq", "c_col", "mu_col", "diag_lo", "diag_hi", "off_peak"}

    def test_mu_and_q_alone_build_no_path_data(self):
        # good_position_report and factor_presentation read mu and Q only; volume_eigenvector
        # reads the Gram's spectrum through good_position_report
        S = good_position_shift(EQUILATERAL, 1.0)
        good_position_report(S)
        U = factor_presentation(S)
        volume_eigenvector(U)
        for M in (S, U.gram):
            assert not self.PATH_DATA & set(vars(M.spectrum))

    def test_t_of_lambda_builds_its_data_once(self):
        M = cycle_adjacency(5)
        t = t_of_lambda(M, 3.0)
        spec = M.spectrum
        built = {name: spec.__dict__[name] for name in self.PATH_DATA & set(vars(spec))}
        assert set(built) == {"c", "c_sq", "diag_lo", "diag_hi", "off_peak"}
        assert t_of_lambda(M, 3.0) == t and t_of_lambda(M, 4.0) != t
        assert all(spec.__dict__[name] is kept for name, kept in built.items())
        for name in self.PATH_DATA:  # and each reads as a fresh spectrum computes it
            fresh = getattr(Spectrum(SymmetricMatrix(M.entries.copy())), name)
            assert np.asarray(getattr(spec, name)).tobytes() == np.asarray(fresh).tobytes()

    def test_pipeline_builds_path_data_on_its_two_matrices_only(self):
        pair = {p["name"]: p for p in cycle_pair_corpus(ns=(6,))}["C6-shuffle"]
        A, B, sigma = pair["A"], pair["B"], pair["sigma"]
        lam = max(lambda0_search(A), lambda0_search(B)) + 1.0
        shifts = [good_position_shift(M, lam) for M in (A, B)]
        assert verify_main2(*shifts, sigma).passed
        assert all(self.PATH_DATA <= set(vars(M.spectrum)) for M in (A, B))
        assert not any(self.PATH_DATA & set(vars(S.spectrum)) for S in shifts)

    def test_failed_search_is_not_kept(self):
        M = SymmetricMatrix(1e308 * np.eye(3))
        for _ in range(2):
            with pytest.raises(NotCertified, match="overflow"):
                lambda0_search(M)
            assert "lambda0" not in M.spectrum.__dict__


def random_symmetric(rng, n):
    w = rng.standard_normal((n, n))
    return SymmetricMatrix(0.5 * (w + w.T))


def well_conditioned_shift(rng, a):
    return float(-np.linalg.eigvalsh(a.entries)[0] + rng.uniform(0.5, 5.0))


def solve_certificate(a, lam, margin=POS_MARGIN):
    """Reference certificate: eigvalsh and solve on each shifted matrix, and the
    smallest distance of min (A + p I)^-1 1 from its threshold (None when not PD).
    Both thresholds read A's power-of-two unit."""
    ok, closest = True, np.inf
    unit = scale(a.entries)
    for p in (lam, 2.0 * lam, 10.0 * lam):
        shifted = a.entries + p * np.eye(a.n)
        if np.linalg.eigvalsh(shifted)[0] < REL_TOL * max(unit, np.max(np.abs(shifted))):
            return False, None
        x = np.linalg.solve(shifted, np.ones(a.n))
        gap = np.min(x) - margin / unit
        ok = ok and gap >= 0
        closest = min(closest, abs(gap) / np.max(np.abs(x)))
    return ok, closest


class TestSpectralAgainstSolve:
    """The one-eigendecomposition lambda path against per-shift LAPACK solves."""

    def test_inverse_ones_and_t(self, rng):
        for _ in range(60):
            a = random_symmetric(rng, int(rng.integers(2, 9)))
            lam = well_conditioned_shift(rng, a)
            ones = np.ones(a.n)
            x_ref = np.linalg.solve(a.entries + lam * np.eye(a.n), ones)
            x = Spectrum(a).inverse_ones([lam])[:, 0]
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
            t_ref = -1.0 / (ones @ x_ref)
            assert abs(t_of_lambda(a, lam) - t_ref) <= 1e-12 * abs(t_ref)

    def test_lambda0_certified(self, rng):
        compared = 0
        for _ in range(40):
            a = random_symmetric(rng, int(rng.integers(2, 9)))
            lam0 = lambda0_search(a)
            shifts = [well_conditioned_shift(rng, a)] + \
                [f * lam0 for f in (0.25, 0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 10.0)]
            for lam in shifts:
                ok, closest = solve_certificate(a, lam)
                if closest is not None and closest <= 1e-10:
                    continue  # within roundoff of the threshold: either verdict is right
                assert Spectrum(a).certified(lam) == ok
                compared += 1
        assert compared >= 300

    def test_every_probe_counts(self):
        # no real matrix is known whose (A + p I)^-1 1 turns negative only at
        # p = 10 lam, so stub that column and check the certificate reads it
        spec = Spectrum(SymmetricMatrix(np.eye(4)))
        lam = 3.0
        for bad in (lam, 2.0 * lam, 10.0 * lam):
            spec.inverse_ones = lambda lams, bad=bad: np.where(
                np.asarray(lams) == bad, -1.0, 1.0) * np.ones((4, 1))
            assert not spec.certified(lam)
        spec.inverse_ones = lambda lams: np.ones((4, len(lams)))
        assert spec.certified(lam)


def reference_certified(spec, lam):
    """The certificate with no fast path: every probe under np.errstate, the three
    shifts passed as a tuple and c and mu reshaped at each call."""
    w, tol = spec.pd_bound(lam)
    if not w > tol:
        return False
    with np.errstate(over="ignore"):
        lams = np.asarray((lam, 2.0 * lam, 10.0 * lam), dtype=float)
        x = spec.q @ (spec.c[:, None] / (spec.mu[:, None] + lams))
    return bool(x.min() >= POS_MARGIN / spec.scale)


class TestProbeAgainstReference:
    """lambda0_search returns, bit for bit, what it returns with the reference probe."""

    @staticmethod
    def assert_same_lambda0(monkeypatch, arrays):
        # a fresh SymmetricMatrix per search, so that no kept lambda0 is read
        lean = [lambda0_search(SymmetricMatrix(a)).hex() for a in arrays]
        with monkeypatch.context() as patched:
            patched.setattr(Spectrum, "certified", reference_certified)
            reference = [lambda0_search(SymmetricMatrix(a)).hex() for a in arrays]
        assert lean == reference

    @pytest.mark.parametrize("factor", [1e-8, 1.0, 1e3, 1e9, 1e13])
    def test_atlas_graphs_on_3_to_6_vertices(self, monkeypatch, factor):
        nx = pytest.importorskip("networkx")
        arrays = [factor * nx.to_numpy_array(g)
                  for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6]
        assert len(arrays) == 205
        self.assert_same_lambda0(monkeypatch, arrays)

    def test_random_symmetric_matrices(self, monkeypatch):
        rng = np.random.default_rng(20261019)
        arrays = []
        for _ in range(200):
            w = rng.standard_normal((int(rng.integers(2, 10)),) * 2)
            arrays.append(10.0 ** rng.uniform(-6.0, 12.0) * (w + w.T))
        self.assert_same_lambda0(monkeypatch, arrays)


def exact_inverse_ones(adjacency, lam):
    """x with (A + lam I) x = 1 by Gauss-Jordan elimination over the rationals; None if singular."""
    n = len(adjacency)
    rows = [[Fraction(int(adjacency[i][j])) + (lam if i == j else 0) for j in range(n)]
            + [Fraction(1)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


# lambda0 times these, exactly: the certificate itself probes only 1, 2 and 10
RAY = (Fraction(1), 1 + Fraction(1, 10 ** 6), 1 + Fraction(1, 10 ** 3), Fraction(11, 10),
       Fraction(2), Fraction(10), Fraction(1000))


def atlas_adjacency(g):
    n = g.number_of_nodes()
    adj = np.zeros((n, n), dtype=int)
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = 1
    return adj


class TestWholeRayExact:
    """(A + lam I)^-1 1 > 0 in exact arithmetic along the ray past the returned lambda0."""

    def assert_positive_on_ray(self, adj):
        lam0 = Fraction(lambda0_search(SymmetricMatrix(adj.astype(float))))
        for k in RAY:
            x = exact_inverse_ones(adj, k * lam0)
            assert x is not None and min(x) > 0, (adj.tolist(), float(k))

    def test_atlas_graphs_on_3_to_6_vertices(self):
        nx = pytest.importorskip("networkx")
        graphs = [g for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6]
        assert len(graphs) == 205
        for g in graphs:
            self.assert_positive_on_ray(atlas_adjacency(g))

    def test_atlas_236_just_past_a_singular_shift(self):
        # -2 is an eigenvalue, so lambda0 sits within roundoff of the singular
        # shift lambda = 2, where a float solve is off by ~1e-7 and x is ~5e-11
        nx = pytest.importorskip("networkx")
        adj = atlas_adjacency(nx.graph_atlas(236))
        assert exact_inverse_ones(adj, Fraction(2)) is None
        assert 2.0 < lambda0_search(SymmetricMatrix(adj.astype(float))) < 2.0 + 1e-8
        self.assert_positive_on_ray(adj)


class TestDeckRootOnTheAtlas:
    """Over all 1249 atlas graphs on 3-7 vertices: lambda0 is certified, never above the
    bisection's value by more than 2^-16 relative, and where it moved by more than 1e-6
    (relative) the Fraction oracle confirms (A + lam I)^-1 1 > 0 along the ray past it."""

    def test_tighter_values_hold_on_the_ray(self):
        graphs = atlas_graphs(3, 7)
        assert len(graphs) == 1249
        moved = []
        for index, g in graphs:
            adj = atlas_adjacency(g)
            spec = SymmetricMatrix(adj.astype(float)).spectrum
            lam0, bisected = spec.lambda0, reference_bisection(spec)
            assert spec.certified(lam0), index
            assert lam0 <= bisected * (1.0 + 2.0 ** -16), index
            if abs(lam0 - bisected) > 1e-6 * bisected:
                moved.append(g.number_of_nodes())
                for k in RAY:
                    x = exact_inverse_ones(adj, k * Fraction(lam0))
                    assert x is not None and min(x) > 0, (index, float(k))
        # 140 moved with numpy's LAPACK here, 107 of them on 7 vertices: mostly where the
        # bisection's first certified shift halved lies above the threshold
        assert 130 <= len(moved) <= 150 and moved.count(7) >= 100

    def test_values_bisected_between_rungs_hold_on_the_ray(self):
        # away from a pole, a graph whose first rung theta * (1 + 2^-32) fails is bisected
        # down from its first certified rung, towards the rung below it
        bisected = []
        for index, g in atlas_graphs(3, 7):
            adj = atlas_adjacency(g)
            spec = SymmetricMatrix(adj.astype(float)).spectrum
            theta, pole = spec.deck_root(), -float(spec.mu[0])
            rungs = [theta * (1.0 + 2.0 ** -k) for k in (32, 24, 20, 16)]
            if theta - pole <= 2.0 ** -16 * theta or spec.certified(rungs[0]):
                continue
            first = next(k for k, p in enumerate(rungs) if spec.certified(p))
            assert rungs[first - 1] < spec.lambda0 < rungs[first], index
            bisected.append(g.number_of_nodes())
            for k in RAY:
                x = exact_inverse_ones(adj, k * Fraction(spec.lambda0))
                assert x is not None and min(x) > 0, (index, float(k))
        # 10 with numpy's LAPACK here, all of them on 6 or 7 vertices
        assert 5 <= len(bisected) <= 20 and min(bisected) >= 6


class TestInteriorEquivalence:
    def test_identity(self):
        rep = per1_report(SymmetricMatrix(np.eye(3)))
        assert rep.cond2 and rep.cond3

    def test_heavy_diagonal(self):
        rep = per1_report(SymmetricMatrix(np.diag([1.0, 1.0, 100.0])))
        assert rep.cond2 and rep.cond3

    def test_mixed_sign_instance_found_by_search(self):
        # seeded random search for a PD matrix whose inverse maps 1 off the cone
        rng = np.random.default_rng(20240817)
        found = None
        for _ in range(500):
            w = rng.standard_normal((3, 3))
            a = w.T @ w + 0.05 * np.eye(3)
            if np.min(np.linalg.solve(a, np.ones(3))) < -1e-6:
                found = SymmetricMatrix(a)
                break
        assert found is not None, "search failed; widen the attempt budget"
        rep = per1_report(found)
        assert not rep.cond2 and not rep.cond3

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 31))
    def test_equivalence_random(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, n))
        rep = per1_report(SymmetricMatrix(w.T @ w + 0.1 * np.eye(n)))
        assert rep.cond2 == rep.cond3
        assert abs(float(np.sum(rep.weights)) - 1.0) <= 1e-10
