import dataclasses
import math
import tracemalloc
import warnings

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
from reconlab.orthant import (CHUNK_POINTS, PHI_ERROR, REPLICATES, lattice_size,
                              orthant_probability)
from reconlab import solidangle
from reconlab.solidangle import SAMPLES_PER_POINT, ComparisonReport


def quadrant():
    return Cone(apex=np.zeros(2), generators=np.eye(2))


def octant():
    return Cone(apex=np.zeros(3), generators=np.eye(3))


def random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def skewed_cone(d):
    """Generators e_i + 0.3 (e_{i+1} + ... + e_d): a cone whose Gram is not diagonal."""
    return Cone(apex=np.zeros(d), generators=np.eye(d) + 0.3 * np.triu(np.ones((d, d)), 1))


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

    def test_no_generator_rejected(self):
        with pytest.raises(NonSimplicialCone, match="at least one generator"):
            Cone(apex=np.zeros(2), generators=np.zeros((0, 2)))

    def test_apex_of_the_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch, match="apex"):
            Cone(apex=np.zeros(3), generators=np.eye(2))

    def test_ambient_dim_above_the_coordinates_rejected(self):
        with pytest.raises(DimensionMismatch, match="ambient_dim exceeds"):
            Cone(apex=np.zeros(2), generators=np.eye(2), ambient_dim=3)

    def test_dependent_generators_rejected(self):
        gens = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(NonSimplicialCone):
            cone_contains(Cone(apex=np.zeros(2), generators=gens), [1.0, 0.0])

    @pytest.mark.parametrize("exponent", [520, -520, 1000, -1000])
    def test_verdicts_do_not_move_with_scale(self, exponent):
        # membership is invariant under positive scaling of the generators and of x
        gens = np.array([[1.0, 0.3, 0.3], [0.0, 1.0, 0.3]])
        scaled = Cone(apex=np.zeros(3), generators=2.0 ** exponent * gens)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (2.0 ** exponent, 1.0):
                assert cone_contains(scaled, f * (gens[0] + 2.0 * gens[1]))
                assert not cone_contains(scaled, f * np.array([0.0, 0.0, 1.0]))
                assert not cone_contains(scaled, f * (gens[0] - gens[1]))


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

    def test_closed_form_3d_takes_one_span_basis(self, rng, monkeypatch):
        calls, span_data = [], solidangle._span_data

        def counting_span_data(generators):
            calls.append(generators)
            return span_data(generators)

        monkeypatch.setattr(solidangle, "_span_data", counting_span_data)
        for cone in (octant(), Cone(apex=np.zeros(3), generators=rng.standard_normal((3, 3)))):
            calls.clear()
            assert angle_fraction(cone).method is AngleMethod.EXACT_3D
            assert len(calls) == 1

    @pytest.mark.parametrize("exponent", [520, -520, 700, -700])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generator_scale_moves_no_bit(self, d, exponent):
        # a product of generators at 2^+-520 overflows or underflows; angle_fraction
        # rescales by a power of two first, which is exact
        unit = skewed_cone(d)
        scaled = Cone(apex=unit.apex, generators=np.ldexp(unit.generators, exponent))
        assert angle_fraction(scaled) == angle_fraction(unit)

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
        # the lattice beats hit-or-miss sampling with the same budget
        p = exact.fraction
        assert 0.0 < mc.std_error < math.sqrt(p * (1 - p) / mc.samples)

    @pytest.mark.parametrize("samples", [2, 256, 1000, (1 << 16) + 2])
    def test_half_line_is_exactly_half(self, samples):
        # a single coefficient is positive with probability 1/2, whatever the budget
        half_line = Cone(apex=[0], generators=[[1.0]])
        est = angle_fraction(half_line, samples=samples, seed=3)
        assert est.method is AngleMethod.MONTE_CARLO
        assert est.fraction == 0.5 and est.std_error == PHI_ERROR > 0.0

    def test_deterministic_across_chunk_boundary(self):
        samples = 600_000  # more lattice points than one chunk holds
        assert REPLICATES * lattice_size(samples // SAMPLES_PER_POINT) > CHUNK_POINTS
        c = skewed_cone(4)
        first = angle_fraction(c, samples=samples, seed=9)
        second = angle_fraction(c, samples=samples, seed=9)
        assert (first.fraction, first.std_error) == (second.fraction, second.std_error)
        assert first.fraction != angle_fraction(c, samples=samples, seed=10).fraction

    def test_estimate_reads_only_the_gram_matrix(self, rng):
        for d in range(2, 7):
            gens = rng.standard_normal((d, d))
            base = angle_fraction(Cone(apex=np.zeros(d), generators=gens), samples=50_000,
                                  seed=d, force_monte_carlo=True)
            # a rotated copy embedded in a larger space, measured in the span dimension
            rot = random_orthogonal(rng, d + 2)[:, :d]
            moved = angle_fraction(Cone(apex=np.zeros(d + 2), generators=gens @ rot.T),
                                   samples=50_000, seed=d, force_monte_carlo=True)
            assert abs(moved.fraction - base.fraction) <= 1e-12
            assert abs(moved.std_error - base.std_error) <= 1e-12

    def test_samples_buy_lattice_evaluations(self):
        c = skewed_cone(5)
        est = angle_fraction(c, samples=200_000, seed=21)
        gram = c.generators @ c.generators.T
        assert (est.fraction, est.std_error) == orthant_probability(
            gram, 200_000 // SAMPLES_PER_POINT, 21)

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

    def test_thin_cone_error_is_never_zero(self):
        thin = Cone(apex=np.zeros(4), generators=np.array(
            [[1, 0, 0, 0], [1, 1e-3, 0, 0], [1, 0, 1e-3, 0], [1, 0, 0, 1e-3]]))
        est = angle_fraction(thin, samples=20_000)
        assert 0.0 <= est.fraction < 1e-6
        assert est.std_error > 0.0

    def test_single_sample_buys_one_point_per_shift(self):
        wide = Cone(apex=np.zeros(2), generators=np.array([[1.0, 0.0], [-1.0, 1.0]]))
        exact = angle_fraction(wide).fraction
        for seed in range(8):
            est = angle_fraction(wide, samples=1, seed=seed, force_monte_carlo=True)
            assert est.samples == 1 and est.std_error > 0.0
            assert abs(est.fraction - exact) <= 4.0 * est.std_error

    def test_uses_exactly_the_requested_samples(self):
        # the report carries the budget asked for; budgets that buy the same number
        # of lattice points per shift give the same estimate
        wide = Cone(apex=np.zeros(2), generators=np.array([[1.0, 0.0], [-1.0, 1.0]]))
        per_shift = SAMPLES_PER_POINT * REPLICATES  # one more lattice point per shift
        seen = set()
        # 1 point per shift, then 7 (the largest prime up to 7 and up to 10)
        for lo, hi in ((1, 2 * per_shift - SAMPLES_PER_POINT),
                       (7 * per_shift + 1, 11 * per_shift - SAMPLES_PER_POINT)):
            estimates = set()
            for n in [*range(lo, hi, 211), hi]:
                est = angle_fraction(wide, samples=n, seed=4, force_monte_carlo=True)
                assert est.samples == n
                estimates.add(est.fraction)
            assert len(estimates) == 1 and not estimates & seen
            seen |= estimates

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


class TestChunkBlocks:
    @pytest.mark.parametrize("seed", [7, 0x5EED])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_deterministic_in_seed_and_samples(self, d, seed):
        gens = np.random.default_rng([2024, d]).standard_normal((d, d))
        cone = Cone(apex=np.zeros(d), generators=gens)
        for samples in (1, 2, 255, 4_000, 65_537, 1_000_001):
            est = angle_fraction(cone, samples=samples, seed=seed, force_monte_carlo=True)
            again = angle_fraction(cone, samples=samples, seed=seed, force_monte_carlo=True)
            assert (est.fraction, est.std_error) == (again.fraction, again.std_error), samples
            other = angle_fraction(cone, samples=samples, seed=seed + 1, force_monte_carlo=True)
            assert (other.fraction != est.fraction) == (d > 1), samples

    def test_memory_is_bounded_by_one_block(self):
        # points are evaluated one chunk at a time, never over the whole estimate
        cone = Cone(apex=np.zeros(6), generators=np.eye(6) + 0.2)

        def traced_peak(samples):
            tracemalloc.start()
            try:
                angle_fraction(cone, samples=samples, seed=3, force_monte_carlo=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = traced_peak(10 ** 6)
        assert traced_peak(10 ** 7) <= 1.25 * one_block


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

    @pytest.mark.parametrize("exponent", [520, -520])
    def test_nesting_does_not_move_with_scale(self, exponent):
        f = 2.0 ** exponent
        gens = np.array([[1.0, 0.3, 0.3], [0.0, 1.0, 0.3]])
        outer = Cone(apex=np.zeros(3), generators=f * gens)
        inner = Cone(apex=np.zeros(3), generators=f * np.array([gens[0], gens[0] + gens[1]]))
        off_span = Cone(apex=np.zeros(3), generators=f * np.array([gens[0], [0.0, 0.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert monotonicity_check(inner, outer, samples=20_000)
            with pytest.raises(NotNested):
                monotonicity_check(off_span, outer, samples=20_000)

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
        interior = "not strictly interior"
        with pytest.raises(PreconditionViolated, match=interior):
            comparison_check(np.zeros(2), np.eye(2), np.array([0.7, 0.7]))  # sum >= 1
        with pytest.raises(PreconditionViolated, match=interior):
            comparison_check(np.zeros(2), np.eye(2), np.array([-0.1, 0.5]))
        span = "not in the affine span"
        with pytest.raises(PreconditionViolated, match=span):
            comparison_check(np.zeros(3), np.eye(3)[:2], np.array([0.2, 0.2, 0.5]))
        with pytest.raises(PreconditionViolated, match=span):  # affinely dependent simplex
            comparison_check(np.zeros(2), np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0.5, 0.0]))

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
        # a move below the estimate's resolution: the fraction changes by about 2e-12
        gens = np.eye(4)
        u = np.zeros(4)
        v = np.full(4, 5e-12)
        rep = comparison_check(u, gens, v, samples=20_000, seed=2)
        assert rep.inconclusive and not rep.violated

    def test_lattice_resolves_a_small_apex_move(self):
        # a 1e-7 move changes the fraction by about 1e-7, which the lattice resolves
        rep = comparison_check(np.zeros(4), np.eye(4), np.full(4, 1e-7), samples=20_000, seed=2)
        assert rep.strict and rep.margin < 1e-7


class TestDisplacement:
    def test_same_point_rejected(self):
        with pytest.raises(PreconditionViolated):
            displacement_check(np.zeros(3), np.eye(3)[:2], np.zeros(3))

    def test_orthogonality_enforced(self):
        with pytest.raises(PreconditionViolated):
            displacement_check(np.zeros(3), np.eye(3)[:2], np.array([0.5, 0.0, 1.0]))

    def test_projection_must_be_interior_to_a_nondegenerate_hull(self):
        lift = np.array([0.0, 0.0, 1.0])
        with pytest.raises(PreconditionViolated, match="affine hull of points is degenerate"):
            displacement_check(np.zeros(3), np.array([[1.0, 0.0, 0.0]] * 2), lift)
        u = np.array([2.0, -1.0, 0.0])  # projects to 2 e1 - e2 on the line through e1, e2
        with pytest.raises(PreconditionViolated, match="projection of u is not interior"):
            displacement_check(u, np.eye(3)[:2], u + lift)

    def test_apex_in_the_hull_is_not_simplicial(self):
        # u on the segment between the points meets every precondition, but its
        # generators are dependent, so the cone at u has no simplicial angle
        pts = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NonSimplicialCone):
            displacement_check(np.zeros(3), pts, np.array([0.0, 1.0, 0.0]))

    def test_report_extends_the_comparison_report(self):
        rep = displacement_check(np.zeros(3), np.eye(3)[:2], np.array([0.0, 0.0, 1.0]))
        assert isinstance(rep, ComparisonReport)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "lhs", "rhs", "strict", "inconclusive", "violated", "margin",
            "rhs_congruent", "gram_residual"]

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
