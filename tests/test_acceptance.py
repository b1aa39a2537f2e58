"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import time

import numpy as np
import pytest

from reconlab import (
    AngleMethod,
    Cone,
    Permutation,
    Presentation,
    SymmetricMatrix,
    angle_fraction,
    comparison_check,
    displacement_check,
    factor_presentation,
    find_hypomorphism,
    lambda0_search,
    partition_check,
    perm_similarity,
    run_geometry_suite,
    t_of_lambda,
    verify_eq1,
    verify_hypomorphism,
    verify_main_theorem,
    verify_tutte,
)
from reconlab.hypomorphism import cycle_adjacency, cycle_pair_corpus, matrix_pair

GRID = tuple(np.linspace(-4.0, 4.0, 9))


class _Criterion:
    """Prints the criterion verdict even when an assertion fails."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.label}]: {verdict} "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(f"criterion {self.number} exceeded {self.budget}s budget")
        return False


@pytest.fixture(scope="module")
def corpus():
    pairs = cycle_pair_corpus(ns=(5, 6, 7, 8), kinds=("rotation", "reflection", "shuffle"))
    assert len(pairs) >= 8
    return pairs


def test_criterion_1_tutte_identity(corpus):
    with _Criterion(1, "Tutte identity on relabeled cycles", 2.0):
        for pair in corpus:
            rep = verify_tutte(pair["A"], pair["B"], pair["sigma"],
                               lambda_grid=GRID, t_grid=GRID)
            assert rep.passed, pair["name"]
            assert rep.max_abs_diff <= 1e-8 * max(1.0, rep.scale)


def test_criterion_2_constancy_in_shift(corpus):
    with _Criterion(2, "determinant difference constant in the shift", 2.0):
        for pair in corpus:
            rep = verify_eq1(pair["A"], pair["B"], pair["sigma"],
                             lambda_grid=GRID, t_grid=GRID)
            assert rep.passed, pair["name"]
            assert rep.max_abs_diff <= 1e-8 * max(1.0, rep.scale)


def test_criterion_3_lowest_eigenpair_interval():
    with _Criterion(3, "lowest eigenpair agreement on the t interval", 1.0):
        A, B, sigma = matrix_pair(cycle_adjacency(5), Permutation.swap(5, 1, 3))
        assert sigma is not None and not np.array_equal(A.entries, B.entries)
        rep = verify_main_theorem(A, B, sigma)
        assert rep.passed and len(rep.samples) >= 10
        for s in rep.samples:
            assert abs(s.lambda_n_a - s.lambda_n_b) <= 1e-9 * s.scale
            assert s.eigengap_a > 1e-8 * s.scale and s.eigengap_b > 1e-8 * s.scale
            assert s.eigvec_alignment >= 1.0 - 1e-9


def test_criterion_4_rank_one_coefficient_agreement(corpus):
    with _Criterion(4, "singularizing coefficient equal on both sides", 1.0):
        for pair in corpus:
            lam0 = max(lambda0_search(pair["A"]), lambda0_search(pair["B"]))
            for lam in (lam0, lam0 + 1.0, 4.0 * lam0):
                diff = abs(t_of_lambda(pair["A"], lam) - t_of_lambda(pair["B"], lam))
                assert diff <= 1e-10, (pair["name"], lam, diff)


def test_criterion_5_geometry_lemma_suite():
    with _Criterion(5, "presentation-geometry invariants, 200 instances", 10.0):
        rep = run_geometry_suite(seed=0x5EED, count=200)
        assert rep.passed
        for name in ("lemma1_equivalence", "lemma2_volume_kernel", "u0_orthogonality",
                     "perturbation_gram_law", "pd_boundary", "per1_equivalence",
                     "t_of_lambda_monotone"):
            tally = rep.tallies[name]
            assert tally.failed == 0, name
            assert tally.passed > 0, name


def test_criterion_6_exact_anchors_and_cross_checks():
    with _Criterion(6, "closed-form anchors vs Monte Carlo", 30.0):
        quadrant = Cone(apex=np.zeros(2), generators=np.eye(2))
        octant = Cone(apex=np.zeros(3), generators=np.eye(3))
        assert angle_fraction(quadrant).fraction == 0.25
        assert angle_fraction(octant).fraction == 0.125
        for cone, target, seed in ((quadrant, 0.25, 61), (octant, 0.125, 62)):
            mc = angle_fraction(cone, samples=10 ** 6, seed=seed, force_monte_carlo=True)
            assert abs(mc.fraction - target) <= 4.0 * mc.std_error
        for i in range(50):
            rng = np.random.default_rng([606, i])
            gens = rng.standard_normal((3, 3))
            while abs(np.linalg.det(gens)) < 1e-2:
                gens = rng.standard_normal((3, 3))
            cone = Cone(apex=np.zeros(3), generators=gens)
            exact = angle_fraction(cone)
            mc = angle_fraction(cone, samples=10 ** 6, seed=700 + i, force_monte_carlo=True)
            assert abs(mc.fraction - exact.fraction) <= 4.0 * mc.std_error, i


def test_criterion_7_partition_of_the_ball():
    with _Criterion(7, "leave-one-out cones tile the ball", 60.0):
        equilateral = SymmetricMatrix(np.array(
            [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]]))
        rep3 = partition_check(factor_presentation(equilateral))
        assert abs(rep3.sum_fraction - 1.0) <= 1e-9 and rep3.ok
        simplex4 = SymmetricMatrix(np.eye(4) - np.ones((4, 4)) / 4.0)
        rep4 = partition_check(factor_presentation(simplex4))
        assert abs(rep4.sum_fraction - 1.0) <= 1e-9 and rep4.ok
        for n, seed in ((5, 75), (6, 76)):
            rng = np.random.default_rng(seed)
            alpha = rng.uniform(0.3, 1.0, n)
            lead = rng.standard_normal((n - 1, n - 1))
            last = -(lead @ alpha[: n - 1]) / alpha[n - 1]
            U = Presentation(np.vstack([np.column_stack([lead, last]), np.zeros(n)]))
            rep = partition_check(U, samples=10 ** 6, seed=seed)
            assert rep.ok, n
            assert abs(rep.sum_fraction - 1.0) <= 4.0 * rep.combined_std_error + 1e-9


def test_criterion_8_apex_motion_inequalities():
    with _Criterion(8, "interior-apex and displaced-apex inequalities", 60.0):
        planar = comparison_check(np.zeros(2), np.eye(2), np.array([0.25, 0.25]))
        assert planar.rhs.method is AngleMethod.EXACT_2D
        assert abs(planar.rhs.fraction - math.acos(-0.6) / (2 * math.pi)) <= 1e-9
        assert planar.lhs.fraction == 0.25 and planar.strict

        strict_total = 0
        for i in range(100):
            rng = np.random.default_rng([808, i])
            d = 3 if i < 60 else 4
            gens = rng.standard_normal((d, d))
            while abs(np.linalg.det(gens)) < 0.3:
                gens = rng.standard_normal((d, d))
            u = 0.3 * rng.standard_normal(d)
            pts = u + gens
            alpha = rng.uniform(0.08, 0.2, d)
            rep = comparison_check(u, pts, u + alpha @ gens, samples=200_000, seed=1000 + i)
            assert not rep.violated, i
            strict_total += rep.strict
        assert strict_total >= 95

        strict_total = 0
        for i in range(100):
            rng = np.random.default_rng([909, i])
            k = 2 if i < 50 else 3
            while True:
                gens_k = np.eye(k) + 0.35 * rng.standard_normal((k, k))
                if abs(np.linalg.det(gens_k)) < 0.2:
                    continue
                pts = np.hstack([gens_k, np.zeros((k, 1))])
                base = pts[0]
                dirs = (pts[1:] - base).T
                sol, _, _, _ = np.linalg.lstsq(dirs, -base, rcond=None)
                weights = np.concatenate([[1.0 - sol.sum()], sol])
                if weights.min() > 0.05:
                    break
            v = np.zeros(k + 1)
            v[k] = rng.uniform(0.3, 2.0)
            rep = displacement_check(np.zeros(k + 1), pts, v, samples=100_000, seed=2000 + i)
            assert not rep.violated, i
            strict_total += rep.strict
        assert strict_total >= 95


def test_criterion_9_half_ball_bound():
    with _Criterion(9, "full-dimensional cones cover less than half the ball", 30.0):
        for d in (2, 3):
            for i in range(25):
                rng = np.random.default_rng([911, d, i])
                gens = rng.standard_normal((d, d))
                while abs(np.linalg.det(gens)) < 1e-2:
                    gens = rng.standard_normal((d, d))
                est = angle_fraction(Cone(apex=np.zeros(d), generators=gens))
                assert est.std_error == 0.0 and est.fraction < 0.5
        for d in (4, 5):
            for i in range(10):
                rng = np.random.default_rng([912, d, i])
                gens = rng.standard_normal((d, d))
                while abs(np.linalg.det(gens)) < 1e-2:
                    gens = rng.standard_normal((d, d))
                est = angle_fraction(Cone(apex=np.zeros(d), generators=gens),
                                     samples=200_000, seed=300 + i)
                assert est.fraction <= 0.5 - 4.0 * est.std_error


def _four_vertex_representatives():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    perms = list(itertools.permutations(range(4)))
    seen = {}
    for bits in range(64):
        a = np.zeros((4, 4), dtype=int)
        for idx, (i, j) in enumerate(edges):
            if (bits >> idx) & 1:
                a[i, j] = a[j, i] = 1
        canon = min(bytes(a[np.ix_(p, p)].flatten()) for p in perms)
        seen.setdefault(canon, a)
    return list(seen.values())


def _brute_force_family_exists(a4: np.ndarray, b4: np.ndarray) -> bool:
    """Oracle: plain enumeration of every family in (S3)^4, no pruning."""
    perms = list(itertools.permutations(range(3)))
    deck_a = [tuple(map(tuple, np.delete(np.delete(a4, i, 0), i, 1))) for i in range(4)]
    deck_b = [tuple(map(tuple, np.delete(np.delete(b4, i, 0), i, 1))) for i in range(4)]

    def matches(b, a, p):
        return all(b[p[k]][p[l]] == a[k][l] for k in range(3) for l in range(3))

    for combo in itertools.product(perms, repeat=4):
        if all(matches(deck_b[i], deck_a[i], combo[i]) for i in range(4)):
            return True
    return False


def test_criterion_10_search_matches_brute_force():
    with _Criterion(10, "search agrees with exhaustive enumeration, n=4", 30.0):
        reps = _four_vertex_representatives()
        assert len(reps) == 11
        for a4 in reps:
            A = SymmetricMatrix(a4.astype(float))
            for p in itertools.permutations(range(4)):
                B = perm_similarity(A, Permutation(p))
                found = find_hypomorphism(A, B)
                exists = _brute_force_family_exists(a4, B.entries.astype(int))
                assert (found is not None) == exists, (a4.tolist(), p)
                if found is not None:
                    assert verify_hypomorphism(A, B, found).valid
