"""Seeded batch runner for the presentation and solid-angle invariants.

Each instance draws its own counter-based RNG substream, so a (seed, count)
pair pins the whole run. Invariants tally pass/fail/flagged; `flagged` is
reserved for soft checks that are reported but do not fail the run. The
report also lists every solid-angle fraction the suite estimates, in order,
so a change in the estimates shows in the report even when no tally moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .errors import DrawFailed
from .matrixcore import REL_TOL, SymmetricMatrix, scale
from .presentation import (
    Presentation,
    factor_presentation,
    good_position_report,
    per1_report,
    perturb_presentation,
    project_origin,
    t_of_lambda,
    volume_eigenvector,
)
from .solidangle import (DEFAULT_SEED, SIGMAS, Cone, angle_fraction, combined_std_error,
                         monotonicity_check)

DEFAULT_COUNT = 200
DEFAULT_MC_SAMPLES = 20_000
RESID_TOL = 1e-9  # relative residual bound of the eigen-based invariants
ANGLE_INSTANCES = 25  # the solid-angle checks run on the first instances only
N_LOW, N_HIGH = 3, 8  # instance orders are drawn from [N_LOW, N_HIGH]


@dataclass
class InvariantTally:
    passed: int = 0
    failed: int = 0
    flagged: int = 0

    def record(self, ok: bool, soft: bool = False):
        if ok:
            self.passed += 1
        elif soft:
            self.flagged += 1
        else:
            self.failed += 1


@dataclass
class SuiteReport:
    seed: int
    count: int
    resid_tol: float
    tallies: Dict[str, InvariantTally] = field(default_factory=dict)
    fractions: List[float] = field(default_factory=list)

    def tally(self, name: str) -> InvariantTally:
        return self.tallies.setdefault(name, InvariantTally())

    @property
    def passed(self) -> bool:
        return all(t.failed == 0 for t in self.tallies.values())


def random_pd_matrix(rng: np.random.Generator, n: int) -> SymmetricMatrix:
    w = rng.standard_normal((n, n))
    return SymmetricMatrix(w.T @ w + 0.5 * np.eye(n))


def random_indefinite_matrix(rng: np.random.Generator, n: int) -> SymmetricMatrix:
    w = rng.standard_normal((n, n))
    return SymmetricMatrix(0.5 * (w + w.T))


def random_good_position_presentation(rng: np.random.Generator, n: int) -> Presentation:
    """n vectors spanning R^(n-1) with a strictly positive kernel combination."""
    for _ in range(20):
        alpha = rng.uniform(0.2, 1.0, size=n)
        lead = rng.standard_normal((n - 1, n - 1))
        if np.linalg.cond(lead) > 1e6:
            continue
        last = -(lead @ alpha[: n - 1]) / alpha[n - 1]
        cols = np.column_stack([lead, last])
        cols = np.vstack([cols, np.zeros(n)])  # embed in R^n, span stays n-1
        return Presentation(cols)
    raise DrawFailed("no well-conditioned good-position instance in 20 draws")


def _direct_good_position(U: Presentation) -> bool:
    """Definition-level check: 0 has strictly positive affine weights over U
    and the span has dimension n-1. Independent of the report's spectral route."""
    n = U.n
    stacked = np.vstack([U.columns, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    w, _, _, _ = np.linalg.lstsq(stacked, rhs, rcond=None)
    resid = float(np.max(np.abs(stacked @ w - rhs)))
    unit = scale(U.columns)
    rank = int(np.linalg.matrix_rank(U.columns, tol=REL_TOL * unit))
    return resid <= 1e-7 * unit and float(np.min(w)) > 0.0 and rank == n - 1


def _check_good_position_instance(report: SuiteReport, rng: np.random.Generator, n: int):
    U = random_good_position_presentation(rng, n)
    A = U.gram
    gp = good_position_report(A)
    direct = _direct_good_position(U)
    report.tally("lemma1_equivalence").record(direct == gp.is_good)

    if gp.is_good:
        alpha = volume_eigenvector(U)
        kernel_resid = float(np.max(np.abs(A.entries @ alpha)))
        report.tally("lemma2_volume_kernel").record(
            kernel_resid <= RESID_TOL * scale(A.entries) and float(np.min(alpha)) > 0.0)

    # rank-n control: the equivalence must also hold in the negative direction
    pd = random_pd_matrix(rng, n)
    gp_pd = good_position_report(pd)
    direct_pd = _direct_good_position(factor_presentation(pd))
    report.tally("lemma1_equivalence").record(direct_pd == gp_pd.is_good)


def _check_projection_instance(report: SuiteReport, rng: np.random.Generator, n: int):
    A = random_pd_matrix(rng, n)
    U = factor_presentation(A)
    path = project_origin(U)
    worst = max(
        abs(float(path.u0 @ (U.columns[:, i] - path.u0))) for i in range(n))
    report.tally("u0_orthogonality").record(worst <= RESID_TOL * scale(U.columns) ** 2)

    j = np.ones((n, n))
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        shifted = perturb_presentation(U, s)
        target = A.entries + (s * s - 2.0 * s) * path.u0_norm_sq * j
        gap = float(np.max(np.abs(shifted.gram.entries - target)))
        report.tally("perturbation_gram_law").record(gap <= RESID_TOL * scale(target))

    eps = 1e-4 * path.u0_norm_sq
    inside = np.linalg.eigvalsh(A.entries + (-path.u0_norm_sq + eps) * j)[0]
    boundary = np.linalg.eigvalsh(A.entries + (-path.u0_norm_sq) * j)[0]
    report.tally("pd_boundary").record(inside > 0.0 and boundary <= 1e-8 * scale(A.entries))

    rep = per1_report(A)
    ok = rep.cond2 == rep.cond3
    # cross-check the presentation-level condition through the s=1 translate
    shifted = SymmetricMatrix(A.entries - path.u0_norm_sq * j)
    cond1 = good_position_report(shifted).is_good
    report.tally("per1_equivalence").record(ok and cond1 == rep.cond3)


def _check_t_monotonicity(report: SuiteReport, rng: np.random.Generator, n: int):
    psd = random_pd_matrix(rng, n)
    indef = random_indefinite_matrix(rng, n)
    for matrix, soft in ((psd, False), (indef, True)):
        lam_min = float(matrix.spectrum.mu[0])
        base = max(0.0, -lam_min)
        grid = base + np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        ts = [t_of_lambda(matrix, lam) for lam in grid]
        decreasing = all(b < a for a, b in zip(ts, ts[1:]))
        report.tally("t_of_lambda_monotone").record(decreasing, soft=soft)


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed orthogonal d x d matrix: the Q of a Gaussian block's QR, R's diagonal positive."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _check_angle_instance(report: SuiteReport, rng: np.random.Generator,
                          mc_samples: int, seed: int):
    def estimate(cone: Cone, force_monte_carlo: bool = False):
        est = angle_fraction(cone, mc_samples, seed, force_monte_carlo=force_monte_carlo)
        report.fractions.append(est.fraction)
        return est

    gens = rng.standard_normal((3, 3))
    while abs(np.linalg.det(gens)) < 1e-3:
        gens = rng.standard_normal((3, 3))
    cone = Cone(apex=np.zeros(3), generators=gens)
    est = estimate(cone)
    rot = random_rotation(rng, 3)
    est_rot = estimate(Cone(apex=np.zeros(3), generators=gens @ rot.T))
    report.tally("congruence_invariance").record(abs(est.fraction - est_rot.fraction) <= 1e-12)
    report.tally("remark3_half_ball").record(est.fraction < 0.5)

    mc3 = estimate(cone, force_monte_carlo=True)
    report.tally("exact_vs_monte_carlo").record(
        abs(mc3.fraction - est.fraction) <= SIGMAS * mc3.std_error + 1e-12)

    gens2 = rng.standard_normal((2, 2))
    while abs(np.linalg.det(gens2)) < 1e-3:
        gens2 = rng.standard_normal((2, 2))
    cone2 = Cone(apex=np.zeros(2), generators=gens2)
    exact2 = estimate(cone2)
    mc2 = estimate(cone2, force_monte_carlo=True)
    report.tally("exact_vs_monte_carlo").record(
        abs(mc2.fraction - exact2.fraction) <= SIGMAS * mc2.std_error + 1e-12)
    report.tally("remark3_half_ball").record(exact2.fraction < 0.5)

    # genuine d=4 Monte Carlo: determinism, congruence within noise, half-ball bound
    lifted = np.zeros((4, 4))
    lifted[:3, :3] = gens
    lifted[3, 3] = 1.0 + rng.uniform(0.0, 1.0)
    cone4 = Cone(apex=np.zeros(4), generators=lifted)
    est4 = estimate(cone4)
    est4_again = estimate(cone4)
    report.tally("mc_determinism").record(est4.fraction == est4_again.fraction)
    rot4 = random_rotation(rng, 4)
    est4_rot = estimate(Cone(apex=np.zeros(4), generators=lifted @ rot4.T))
    report.tally("congruence_invariance").record(
        abs(est4.fraction - est4_rot.fraction) <= SIGMAS * combined_std_error(est4, est4_rot))
    report.tally("remark3_half_ball").record(est4.fraction <= 0.5 - SIGMAS * est4.std_error)

    # zero law: declared ambient above the span zeroes the estimate
    degenerate = Cone(apex=np.zeros(3), generators=gens[:2], ambient_dim=3)
    report.tally("zero_law").record(estimate(degenerate).fraction == 0.0)

    # nesting lemma: positive combinations of the generators lie inside the 3-D cone
    inner = Cone(apex=np.zeros(3), generators=(0.5 * np.eye(3) + 0.25) @ gens)
    report.tally("monotonicity").record(monotonicity_check(inner, cone, mc_samples, seed))

def run_geometry_suite(seed: int = DEFAULT_SEED, count: int = DEFAULT_COUNT,
                       mc_samples: int = DEFAULT_MC_SAMPLES) -> SuiteReport:
    """Run every invariant on `count` seeded instances with sizes in [N_LOW, N_HIGH]."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    report = SuiteReport(seed=seed, count=count, resid_tol=RESID_TOL)
    for idx in range(count):
        rng = np.random.default_rng([seed, idx])
        n = int(rng.integers(N_LOW, N_HIGH + 1))
        _check_good_position_instance(report, rng, n)
        _check_projection_instance(report, rng, n)
        _check_t_monotonicity(report, rng, n)
        if idx < ANGLE_INSTANCES:
            _check_angle_instance(report, rng, mc_samples, seed + idx)
    return report
