import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconlab import (
    BadPosition,
    GoodPositionReason,
    NotCertified,
    NotFinite,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    Presentation,
    SymmetricMatrix,
    factor_presentation,
    good_position_report,
    lambda0_certified,
    lambda0_search,
    per1_report,
    perturb_presentation,
    perturbation_path,
    project_origin,
    t_of_lambda,
    volume_eigenvector,
)

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
    def test_identity(self):
        U = factor_presentation(SymmetricMatrix.identity(3))
        np.testing.assert_allclose(U.gram().entries, np.eye(3), atol=1e-12)

    def test_all_ones_collapses_to_one_direction(self):
        U = factor_presentation(SymmetricMatrix.all_ones(3))
        for i in range(3):
            for j in range(3):
                assert U.vector(i) @ U.vector(j) == pytest.approx(1.0, abs=1e-10)

    def test_gram_of_random_factor(self, rng):
        for n in (3, 5, 8):
            w = rng.standard_normal((n, n))
            a = SymmetricMatrix(w.T @ w)
            U = factor_presentation(a)
            assert np.max(np.abs(U.gram().entries - a.entries)) <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            factor_presentation(SymmetricMatrix(-np.eye(3)))


class TestGoodPosition:
    def test_equilateral_triangle(self):
        rep = good_position_report(EQUILATERAL)
        assert rep.is_good and rep.reason is GoodPositionReason.GOOD
        np.testing.assert_allclose(rep.kernel_vector, np.ones(3) / 3, atol=1e-12)

    def test_full_rank_is_not_good(self):
        rep = good_position_report(SymmetricMatrix.identity(3))
        assert not rep.is_good
        assert rep.rank == 3
        assert rep.reason is GoodPositionReason.RANK_NOT_N_MINUS_1

    def test_hand_solved_kernel(self):
        # a(2,0) + b(0,1) + c(-1,-1) = 0 forces (a,b,c) parallel to (1,2,2)
        rep = good_position_report(planar_example_presentation().gram())
        assert rep.is_good
        np.testing.assert_allclose(rep.kernel_vector, [0.2, 0.4, 0.4], atol=1e-12)

    def test_mixed_sign_kernel_detected(self):
        # {e1, e2, e1+e2}: the kernel combo is (1, 1, -1), so 0 is on the hull
        # boundary's far side and the sign test must reject
        cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        rep = good_position_report(Presentation(cols).gram())
        assert not rep.is_good
        assert rep.reason is GoodPositionReason.KERNEL_SIGN_MIXED


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
            a = U.gram().entries
            assert np.max(np.abs(a @ vec)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
            assert np.min(vec) > 0

    def test_requires_good_position(self):
        with pytest.raises(BadPosition):
            volume_eigenvector(Presentation(np.eye(3)))


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
                assert abs(path.u0 @ (U.vector(i) - path.u0)) <= 1e-9 * scale

    def test_rejects_singular_gram(self):
        U = factor_presentation(EQUILATERAL)
        with pytest.raises(NotPositiveDefinite):
            project_origin(U)


class TestPerturbation:
    def test_s_zero_identity(self):
        U = Presentation(np.eye(3))
        np.testing.assert_array_equal(perturb_presentation(U, 0.0).columns, U.columns)

    def test_s_two_reflection_preserves_gram(self, rng):
        w = rng.standard_normal((4, 4))
        U = factor_presentation(SymmetricMatrix(w.T @ w + 0.5 * np.eye(4)))
        reflected = perturb_presentation(U, 2.0)
        np.testing.assert_allclose(reflected.gram().entries, U.gram().entries, atol=1e-9)
        assert not np.allclose(reflected.columns, U.columns)

    def test_s_one_hits_the_boundary(self):
        shifted = perturb_presentation(Presentation(np.eye(3)), 1.0)
        np.testing.assert_allclose(shifted.gram().entries,
                                   np.eye(3) - np.ones((3, 3)) / 3.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(shifted.gram().entries)
        np.testing.assert_allclose(sorted(eigs), [0.0, 1.0, 1.0], atol=1e-12)

    def test_gram_law_on_grid(self, rng):
        w = rng.standard_normal((5, 5))
        a = SymmetricMatrix(w.T @ w + 0.5 * np.eye(5))
        U = factor_presentation(a)
        path = project_origin(U)
        j = np.ones((5, 5))
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            target = a.entries + (s * s - 2 * s) * path.u0_norm_sq * j
            got = perturb_presentation(U, s).gram().entries
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(got - target)) <= 1e-9 * scale

    def test_path_parameter_bookkeeping(self):
        U = Presentation(np.eye(3))
        path = perturbation_path(U, 1.0)
        assert path.t == pytest.approx(-path.u0_norm_sq)
        assert perturbation_path(U, 2.0).t == pytest.approx(0.0)


class TestTOfLambda:
    def test_scalar_matrix(self):
        assert t_of_lambda(SymmetricMatrix.zeros(3), 3.0) == pytest.approx(-1.0)

    def test_identity(self):
        assert t_of_lambda(SymmetricMatrix.identity(3), 0.0) == pytest.approx(-1.0 / 3.0)

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
            t_of_lambda(SymmetricMatrix.identity(3), -1.0)


class TestLambda0:
    def test_identity_post_check(self):
        lam0 = lambda0_search(SymmetricMatrix.identity(3))
        assert lambda0_certified(SymmetricMatrix.identity(3), lam0)

    def test_anti_diagonal_closed_form(self):
        # (A + lam I)^-1 1 = (1/(lam-1)) * 1, positive only past lam = 1
        a = SymmetricMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        lam0 = lambda0_search(a)
        assert lam0 >= 1.0
        assert lambda0_certified(a, lam0)

    def test_random_post_check_scales(self, rng):
        for _ in range(5):
            w = rng.standard_normal((5, 5))
            a = SymmetricMatrix(0.5 * (w + w.T))
            lam0 = lambda0_search(a)
            assert lambda0_certified(a, lam0)
            assert lambda0_certified(a, 10.0 * lam0)

    def test_large_scale_certifies(self):
        # (A + lam I)^-1 1 ~ 1/lam, so the margin must shrink with the scale of A
        a = SymmetricMatrix(1e13 * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                                             [1.0, 1.0, 0.0]]))
        lam0 = lambda0_search(a)
        assert lambda0_certified(a, lam0)

    def test_exhausted_doubling_is_typed(self):
        # x ~ 1/lam < 1 at every probed lam, so a margin of 1 is never met
        with pytest.raises(NotCertified):
            lambda0_search(SymmetricMatrix.identity(3), margin=1.0)


class TestInteriorEquivalence:
    def test_identity(self):
        rep = per1_report(SymmetricMatrix.identity(3))
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
