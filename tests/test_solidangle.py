import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconlab import (
    AngleMethod,
    BadPosition,
    Cone,
    DimensionMismatch,
    NonSimplicialCone,
    NotFinite,
    NotNested,
    PreconditionViolated,
    Presentation,
    SymmetricMatrix,
    angle_fraction,
    ball_volume,
    comparison_check,
    cone_contains,
    displacement_check,
    factor_presentation,
    monotonicity_check,
    partition_check,
)
from reconlab.solidangle import CHUNK_SIZE, COEF_TOL, _haar, _span_data


def quadrant():
    return Cone(apex=np.zeros(2), generators=np.eye(2))


def octant():
    return Cone(apex=np.zeros(3), generators=np.eye(3))


def random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def per_chunk_reference(cone, samples, seed):
    """(fraction, std_error) from the sampler's one-chunk-at-a-time form.

    Each chunk makes its own generator, rotations and arrays; the library
    stacks the set-up of up to 16 chunks, and must give the same bits.
    """
    q, d = _span_data(cone)
    lu_inv = np.linalg.inv(q.T @ cone.generators.T)
    hits = done = chunk_index = 0
    while done < samples:
        count = min(CHUNK_SIZE, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        rot = _haar(rng.standard_normal((8, 16, d, d)))
        z = rng.standard_normal((8, 1, d, -(-count // 256)))
        y = (lu_inv @ rot) @ z
        plus = np.all(y >= -COEF_TOL, axis=-2).ravel()
        minus = np.all(y <= COEF_TOL, axis=-2).ravel()
        hits += int(np.count_nonzero(plus[:count - count // 2]))
        hits += int(np.count_nonzero(minus[:count // 2]))
        done += count
        chunk_index += 1
    fraction = hits / samples
    pairs, lone = divmod(samples, 2)
    var = pairs * 2.0 * fraction * (1.0 - 2.0 * fraction) + lone * fraction * (1.0 - fraction)
    if var > 0:
        return fraction, math.sqrt(var) / samples
    p_tilde = (hits + 2.0) / (samples + 4.0)
    return fraction, math.sqrt(p_tilde * (1.0 - p_tilde) / samples)


class TestBallVolume:
    def test_low_dims(self):
        assert ball_volume(1) == pytest.approx(2.0)
        assert ball_volume(2) == pytest.approx(math.pi)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


class TestContains:
    def test_quadrant(self):
        assert cone_contains(quadrant(), [1.0, 1.0])
        assert not cone_contains(quadrant(), [-1.0, 1.0])

    def test_origin_is_inside(self):
        assert cone_contains(quadrant(), [0.0, 0.0])

    def test_outside_span_is_outside(self):
        c = Cone(apex=np.zeros(3), generators=np.eye(3)[:2])
        assert cone_contains(c, [0.5, 0.5, 0.0])
        assert not cone_contains(c, [0.5, 0.5, 0.1])

    def test_constructed_coefficients(self, rng):
        for _ in range(10):
            gens = rng.standard_normal((4, 4))
            while abs(np.linalg.det(gens)) < 1e-3:
                gens = rng.standard_normal((4, 4))
            c = Cone(apex=np.zeros(4), generators=gens)
            coef = rng.uniform(0.1, 2.0, 4)
            inside = coef @ gens
            assert cone_contains(c, inside)
            flipped = coef.copy()
            flipped[0] = -flipped[0]
            assert not cone_contains(c, flipped @ gens)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cone_rejected(self, bad):
        with pytest.raises(NotFinite):
            Cone(apex=np.zeros(2), generators=np.array([[1.0, bad], [0.0, 1.0]]))
        with pytest.raises(NotFinite):
            Cone(apex=np.array([0.0, bad]), generators=np.eye(2))

    def test_generator_array_must_be_two_dimensional(self):
        with pytest.raises(DimensionMismatch):
            Cone(apex=np.zeros(1), generators=np.ones((1, 1, 1)))

    def test_dependent_generators_rejected(self):
        gens = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(NonSimplicialCone):
            cone_contains(Cone(apex=np.zeros(2), generators=gens), [1.0, 0.0])


class TestAngleFraction:
    def test_quadrant_exact(self):
        est = angle_fraction(quadrant())
        assert est.fraction == pytest.approx(0.25, abs=1e-15)
        assert est.abs_norm == pytest.approx(math.pi / 4.0)
        assert est.method is AngleMethod.EXACT_2D and est.std_error == 0.0

    def test_octant_exact(self):
        est = angle_fraction(octant())
        assert est.fraction == pytest.approx(0.125, abs=1e-15)
        assert est.abs_norm == pytest.approx(math.pi / 6.0)
        assert est.method is AngleMethod.EXACT_3D

    def test_45_degree_cone(self):
        c = Cone(apex=np.zeros(2), generators=np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert angle_fraction(c).fraction == pytest.approx(0.125, abs=1e-15)

    def test_zero_law_is_exact_zero(self):
        c = Cone(apex=np.zeros(3), generators=np.eye(3)[:2], ambient_dim=3)
        est = angle_fraction(c, samples=1000, seed=3)
        assert est.fraction == 0.0 and est.std_error == 0.0

    def test_monte_carlo_matches_exact3d(self, rng):
        gens = rng.standard_normal((3, 3))
        exact = angle_fraction(Cone(apex=np.zeros(3), generators=gens))
        mc = angle_fraction(Cone(apex=np.zeros(3), generators=gens),
                            samples=200_000, seed=11, force_monte_carlo=True)
        assert mc.method is AngleMethod.MONTE_CARLO
        assert abs(mc.fraction - exact.fraction) <= 4.0 * mc.std_error
        # antithetic pairs: each pair's hit count is Bernoulli(2p), so the
        # variance of the fraction at even N is p(1 - 2p)/N
        assert mc.std_error == pytest.approx(
            math.sqrt(mc.fraction * (1 - 2 * mc.fraction) / mc.samples))

    @pytest.mark.parametrize("samples", [2, 256, 1000, (1 << 16) + 2])
    def test_half_line_pairs_are_antithetic(self, samples):
        # every pair tests y and -y, and exactly one of them lies on the half-line
        half_line = Cone(apex=[0], generators=[[1.0]])
        est = angle_fraction(half_line, samples=samples, seed=3)
        assert est.method is AngleMethod.MONTE_CARLO
        assert est.fraction == 0.5

    def test_deterministic_across_chunk_boundary(self):
        c = Cone(apex=np.zeros(4), generators=np.eye(4))
        first = angle_fraction(c, samples=(1 << 16) + 1234, seed=9)
        second = angle_fraction(c, samples=(1 << 16) + 1234, seed=9)
        assert first.fraction == second.fraction
        assert first.fraction != angle_fraction(c, samples=(1 << 16) + 1234, seed=10).fraction

    def test_orthant_4d_near_sixteenth(self):
        est = angle_fraction(Cone(apex=np.zeros(4), generators=np.eye(4)),
                             samples=400_000, seed=5)
        assert abs(est.fraction - 1.0 / 16.0) <= 4.0 * est.std_error

    def test_samples_must_be_positive(self):
        with pytest.raises(PreconditionViolated):
            angle_fraction(quadrant(), samples=0)

    @pytest.mark.parametrize("kwargs", [
        {"samples": True}, {"samples": np.True_}, {"samples": 1.5}, {"samples": 2.0},
        {"samples": -3}, {"seed": -1}, {"seed": True}, {"seed": 7.0}, {"seed": np.int64(-2)},
    ], ids=repr)
    def test_samples_and_seed_must_be_counts(self, kwargs):
        for force in (False, True):
            with pytest.raises(PreconditionViolated, match=next(iter(kwargs))):
                angle_fraction(octant(), force_monte_carlo=force, **kwargs)

    def test_numpy_integers_are_counts(self):
        est = angle_fraction(octant(), samples=np.int32(1000), seed=np.uint64(7),
                             force_monte_carlo=True)
        assert est.fraction == angle_fraction(octant(), samples=1000, seed=7,
                                              force_monte_carlo=True).fraction

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_congruence_invariance_exact(self, seed):
        rng = np.random.default_rng(seed)
        gens = rng.standard_normal((3, 3))
        while abs(np.linalg.det(gens)) < 1e-6:
            gens = rng.standard_normal((3, 3))
        base = angle_fraction(Cone(apex=np.zeros(3), generators=gens))
        rot = random_orthogonal(rng, 3)
        mapped = angle_fraction(Cone(apex=np.zeros(3), generators=gens @ rot.T))
        assert abs(base.fraction - mapped.fraction) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_half_ball_bound(self, seed):
        rng = np.random.default_rng(seed)
        gens = rng.standard_normal((3, 3))
        while abs(np.linalg.det(gens)) < 1e-6:
            gens = rng.standard_normal((3, 3))
        assert angle_fraction(Cone(apex=np.zeros(3), generators=gens)).fraction < 0.5

    def test_planar_exact_vs_monte_carlo_hundred_cones(self):
        for i in range(100):
            rng = np.random.default_rng([414, i])
            gens = rng.standard_normal((2, 2))
            while abs(np.linalg.det(gens)) < 1e-2:
                gens = rng.standard_normal((2, 2))
            cone = Cone(apex=np.zeros(2), generators=gens)
            exact = angle_fraction(cone)
            mc = angle_fraction(cone, samples=50_000, seed=500 + i, force_monte_carlo=True)
            assert abs(mc.fraction - exact.fraction) <= 4.0 * mc.std_error + 1e-12, i

    def test_empty_count_reports_agresti_coull_error(self):
        thin = Cone(apex=np.zeros(4), generators=np.array(
            [[1, 0, 0, 0], [1, 1e-3, 0, 0], [1, 0, 1e-3, 0], [1, 0, 0, 1e-3]]))
        est = angle_fraction(thin, samples=20_000)
        p_tilde = 2.0 / 20_004.0
        assert est.fraction == 0.0
        assert est.std_error == pytest.approx(math.sqrt(p_tilde * (1 - p_tilde) / 20_000))

    def test_single_sample_error_is_symmetric(self):
        # one direction is always an empty or a full count: p~ is 2/5 or 3/5
        for seed in range(8):
            est = angle_fraction(quadrant(), samples=1, seed=seed, force_monte_carlo=True)
            assert est.fraction in (0.0, 1.0)
            assert est.std_error == pytest.approx(math.sqrt(0.24))

    def test_uses_exactly_the_requested_samples(self):
        # counts that need the same number of base vectors share every direction,
        # so the hit counts over one such range are a running sum
        wide = Cone(apex=np.zeros(2), generators=np.array([[1.0, 0.0], [-1.0, 1.0]]))
        for counts in (range(1, 257), range(513, 769)):
            hits = []
            for n in counts:
                est = angle_fraction(wide, samples=n, seed=4, force_monte_carlo=True)
                assert est.samples == n
                hits.append(round(est.fraction * n))
            assert set(np.diff(hits)) <= {0, 1} and hits[-1] > hits[0]
            assert hits[0] <= counts[0]

    def test_haar_rotations_are_orthogonal(self):
        for d in range(1, 7):
            g = np.random.default_rng([8, d]).standard_normal((16, 16, d, d))
            rot = _haar(g)
            gram = np.swapaxes(rot, -1, -2) @ rot
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
            for block, q_block in zip(g[0], rot[0]):
                q, r = np.linalg.qr(block)
                np.testing.assert_allclose(q_block, q * np.sign(np.diag(r)), atol=1e-10)

    def test_calibration_against_closed_forms(self):
        # 400 seeded estimates: their z-scores must look standard normal
        zs = []
        for i in range(400):
            d = 2 + i % 2
            rng = np.random.default_rng([1998, i])
            while True:
                cone = Cone(apex=np.zeros(d), generators=rng.standard_normal((d, d)))
                exact = angle_fraction(cone).fraction
                if 0.02 <= exact <= 0.48:
                    break
            mc = angle_fraction(cone, samples=20_000, seed=i, force_monte_carlo=True)
            zs.append((mc.fraction - exact) / mc.std_error)
        assert abs(np.mean(zs)) < 0.15
        assert 0.8 <= np.var(zs) <= 1.25

    def test_calibration_against_closed_forms_odd_count(self):
        # as above at an odd N, where the lone last direction has its own term
        zs = []
        for i in range(400):
            d = 2 + i % 2
            rng = np.random.default_rng([1998, i])
            while True:
                cone = Cone(apex=np.zeros(d), generators=rng.standard_normal((d, d)))
                exact = angle_fraction(cone).fraction
                if 0.02 <= exact <= 0.48:
                    break
            mc = angle_fraction(cone, samples=20_001, seed=i, force_monte_carlo=True)
            zs.append((mc.fraction - exact) / mc.std_error)
        assert abs(np.mean(zs)) < 0.15
        assert 0.8 <= np.var(zs) <= 1.25

    def test_odd_count_error_has_lone_direction_term(self):
        est = angle_fraction(Cone(apex=np.zeros(4), generators=np.eye(4)),
                             samples=70_001, seed=7)
        p, pairs = est.fraction, 35_000
        var = pairs * 2 * p * (1 - 2 * p) + p * (1 - p)
        assert est.std_error == pytest.approx(math.sqrt(var) / 70_001, rel=1e-12)


class TestChunkBlocks:
    @pytest.mark.parametrize("seed", [7, 0x5EED])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_bit_identical_to_per_chunk_sampling(self, d, seed):
        gens = np.random.default_rng([2024, d]).standard_normal((d, d))
        cone = Cone(apex=np.zeros(d), generators=gens)
        for samples in (1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 70_001,
                        16 * CHUNK_SIZE, 16 * CHUNK_SIZE + 1, 1_000_001):
            est = angle_fraction(cone, samples=samples, seed=seed, force_monte_carlo=True)
            assert (est.fraction, est.std_error) == per_chunk_reference(cone, samples, seed), \
                samples

    def test_memory_is_bounded_by_one_block(self):
        # set-up is stacked per block of 16 chunks, never over the whole estimate
        cone = Cone(apex=np.zeros(6), generators=np.eye(6) + 0.2)

        def traced_peak(samples):
            tracemalloc.start()
            try:
                angle_fraction(cone, samples=samples, seed=3, force_monte_carlo=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = traced_peak(16 * CHUNK_SIZE)
        assert traced_peak(64 * CHUNK_SIZE) <= 1.25 * one_block


class TestMonotonicity:
    def test_nested_planar(self):
        inner = Cone(apex=np.zeros(2), generators=np.array([[1.0, 0.0], [1.0, 1.0]]))
        outer = quadrant()
        assert monotonicity_check(inner, outer)

    def test_equal_cones(self):
        assert monotonicity_check(quadrant(), quadrant())

    def test_not_nested_rejected(self):
        tilted = Cone(apex=np.zeros(2), generators=np.array([[-1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(NotNested):
            monotonicity_check(tilted, quadrant())

    @pytest.mark.parametrize("apex, moved", [
        ([1.0, 0.0], [1.0 + 5e-6, 0.0]),
        ([1e6, 0.0], [1e6 + 5.0, 0.0]),
        ([0.0, 0.0], [1e-9, 0.0]),
    ])
    def test_apex_must_match_to_relative_tolerance(self, apex, moved):
        inner = Cone(apex=apex, generators=np.array([[1.0, 0.0], [1.0, 1.0]]))
        outer = Cone(apex=moved, generators=np.eye(2))
        with pytest.raises(NotNested):
            monotonicity_check(inner, outer)

    def test_apex_roundoff_is_shared(self):
        inner = Cone(apex=[1e6, 0.0], generators=np.array([[1.0, 0.0], [1.0, 1.0]]))
        outer = Cone(apex=[1e6 * (1 + 1e-15), 0.0], generators=np.eye(2))
        assert monotonicity_check(inner, outer)

    def test_apex_dimensions_must_match(self):
        with pytest.raises(NotNested):
            monotonicity_check(quadrant(), octant())

    def test_constructed_nesting(self, rng):
        for _ in range(5):
            gens = rng.standard_normal((3, 3))
            while abs(np.linalg.det(gens)) < 1e-3:
                gens = rng.standard_normal((3, 3))
            outer = Cone(apex=np.zeros(3), generators=gens)
            mix = rng.uniform(0.1, 1.0, (3, 3))
            inner = Cone(apex=np.zeros(3), generators=mix @ gens)
            assert monotonicity_check(inner, outer, samples=50_000, seed=3)


class TestComparison:
    def test_planar_example_exact(self):
        rep = comparison_check(np.zeros(2), np.eye(2), np.array([0.25, 0.25]))
        assert rep.lhs.fraction == pytest.approx(0.25, abs=1e-15)
        assert rep.rhs.fraction == pytest.approx(math.acos(-0.6) / (2 * math.pi), abs=1e-9)
        assert rep.strict and not rep.violated

    def test_near_apex_never_violates(self):
        rep = comparison_check(np.zeros(2), np.eye(2), np.array([1e-6, 1e-6]))
        assert not rep.violated  # strict or inconclusive are both acceptable here

    def test_interiority_enforced(self):
        with pytest.raises(PreconditionViolated):
            comparison_check(np.zeros(2), np.eye(2), np.array([0.7, 0.7]))  # sum >= 1
        with pytest.raises(PreconditionViolated):
            comparison_check(np.zeros(2), np.eye(2), np.array([-0.1, 0.5]))
        with pytest.raises(PreconditionViolated):
            comparison_check(np.zeros(3), np.eye(3)[:2], np.array([0.2, 0.2, 0.5]))

    def test_random_3d_instances_strict(self, rng):
        for _ in range(10):
            gens = rng.standard_normal((3, 3))
            while abs(np.linalg.det(gens)) < 0.3:
                gens = rng.standard_normal((3, 3))
            u = rng.standard_normal(3) * 0.3
            pts = u + gens
            alpha = rng.uniform(0.1, 0.25, 3)
            v = u + alpha @ gens
            rep = comparison_check(u, pts, v)
            assert rep.strict

    def test_monte_carlo_inconclusive_near_apex(self, rng):
        gens = np.eye(4)
        u = np.zeros(4)
        v = np.full(4, 1e-7)
        rep = comparison_check(u, gens, v, samples=20_000, seed=2)
        assert rep.inconclusive and not rep.violated


class TestDisplacement:
    def test_same_point_rejected(self):
        with pytest.raises(PreconditionViolated):
            displacement_check(np.zeros(3), np.eye(3)[:2], np.zeros(3))

    def test_orthogonality_enforced(self):
        with pytest.raises(PreconditionViolated):
            displacement_check(np.zeros(3), np.eye(3)[:2], np.array([0.5, 0.0, 1.0]))

    def test_lifted_plane_example(self):
        u = np.zeros(3)
        pts = np.eye(3)[:2]
        v = np.array([0.0, 0.0, 1.0])
        rep = displacement_check(u, pts, v)
        assert rep.lhs.fraction == pytest.approx(0.25, abs=1e-12)
        assert rep.rhs.fraction == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.rhs_congruent.fraction == pytest.approx(rep.rhs.fraction, abs=1e-9)
        assert rep.gram_residual <= 1e-12
        assert rep.strict

    def test_fraction_decreases_with_displacement(self):
        u = np.zeros(3)
        pts = np.eye(3)[:2]
        fractions = []
        for s in (0.25, 0.5, 1.0, 2.0, 4.0):
            rep = displacement_check(u, pts, np.array([0.0, 0.0, s]))
            fractions.append(rep.rhs.fraction)
            assert rep.strict
        assert all(b < a for a, b in zip(fractions, fractions[1:]))


class TestPartition:
    def test_equilateral_triangle(self):
        U = factor_presentation(SymmetricMatrix(np.array(
            [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])))
        rep = partition_check(U)
        assert rep.sum_fraction == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rep.fractions, 1.0 / 3.0, atol=1e-12)
        assert rep.ok

    def test_regular_simplex_n4_exact(self):
        gram = SymmetricMatrix(np.eye(4) - np.ones((4, 4)) / 4.0)
        rep = partition_check(factor_presentation(gram))
        assert rep.sum_fraction == pytest.approx(1.0, abs=1e-9)
        assert rep.combined_std_error == 0.0 and rep.ok

    def test_random_n5_monte_carlo(self, rng):
        alpha = rng.uniform(0.3, 1.0, 5)
        lead = rng.standard_normal((4, 4))
        last = -(lead @ alpha[:4]) / alpha[4]
        U = Presentation(np.vstack([np.column_stack([lead, last]), np.zeros(5)]))
        rep = partition_check(U, samples=150_000, seed=17)
        assert rep.ok
        assert abs(rep.sum_fraction - 1.0) <= 4.0 * rep.combined_std_error + 1e-9

    def test_requires_good_position(self):
        with pytest.raises(BadPosition):
            partition_check(Presentation(np.eye(3)))
