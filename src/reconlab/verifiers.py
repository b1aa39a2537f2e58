"""End-to-end checks tying the modules together.

Every verifier gates on the deck-matching certificate itself (reports must be
self-certifying). verify_tutte and verify_main_theorem, the two verifiers the
CLI runs, take `force=True` to bypass the gate for negative controls. Grid
verdicts rely on the degree argument: det(A - lam*I + t*J) has degree n in lam
and degree 1 in t, so a grid with at least n + 1 lam values and 2 t values
decides the identity. The pair's unit u = max(A.scale, B.scale), a power of
two (see `matrixcore.scale`), is the one scale every default grid and
tolerance floor reads, so 2^j A, 2^j B get the verdicts of A, B. The default
lam grid is max(9, n + 1) points evenly spaced on [-4u, 4u]; for n <= 8 it is
DEFAULT_GRID * u, also the default t grid. Explicit grids are exact points.
Each call computes its grids afresh, A's and B's in one `shifted_det_grid`
call: two LU stacks for the pair; verify_eq1 alone appends its lam = 0
reference row.

The main theorem's t grid comes from one eigendecomposition of A, and its
samples from one stacked eigh of A + t_k J and B + t_k J over every sampled
t_k. Input that would check nothing (an empty or non-finite grid, a grid
whose determinants overflow or are all 0) is rejected rather than passed.

The verdict thresholds and the main theorem's sample count are the module
constants below, not arguments: a caller cannot loosen a verdict, and every
report carries the thresholds it was judged by (the CLI envelope repeats them
under `tolerances`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadPosition, DimensionMismatch, LambdaTooSmall, NotFinite, NotHypomorphic
from .hypomorphism import Hypomorphism, verify_hypomorphism
from .matrixcore import DEFAULT_GRID, SymmetricMatrix, as_matrix, default_lambdas, shifted_det_grid
from .presentation import (
    factor_presentation,
    good_position_report,
    lambda0_search,
    t_of_lambda,
    volume_eigenvector,
)

TUTTE_TOL = 1e-8  # both determinant-grid verifiers
EIG_TOL = 1e-9
GAP_TOL = 1e-8
ALIGN_TOL = 1e-9
T_AGREE_TOL = 1e-10
GEOM_GRID_POINTS = 16
T_SAMPLES = 10  # interior t values the main theorem samples


def _gate(A: SymmetricMatrix, B: SymmetricMatrix, sigma: Hypomorphism,
          force: bool = False) -> tuple:
    """A, B and their unit max(A.scale, B.scale); NotHypomorphic unless certified or force."""
    A, B = as_matrix(A), as_matrix(B)
    cert = verify_hypomorphism(A, B, sigma)
    if not cert.valid and not force:
        raise NotHypomorphic(
            f"certificate fails at index {cert.failing_index} "
            f"(residual {cert.worst_residual:.3e})")
    return A, B, max(A.scale, B.scale)


@dataclass(frozen=True)
class GridReport:
    lambda_grid: tuple
    t_grid: tuple
    residuals: np.ndarray
    max_abs_diff: float
    scale: float
    tol: float
    passed: bool


def _grid_report(A: SymmetricMatrix, B: SymmetricMatrix, sigma: Hypomorphism,
                 lambda_grid: Optional[Sequence], t_grid: Optional[Sequence],
                 force: bool, against_lambda_zero: bool) -> GridReport:
    """Gate, then compare f = det(A - lam I + t J) - det(B - lam I + t J) on the grid.

    The residual is |f| or, with `against_lambda_zero` (default grids only),
    |f - f(0, t)|; the lam = 0 reference row, appended last, then also counts
    towards the scale.
    """
    lams, ts = (None if g is None else np.asarray(g, dtype=float) for g in (lambda_grid, t_grid))
    for name, grid in (("lam", lams), ("t", ts)):
        if grid is not None and grid.size == 0:
            raise DimensionMismatch(f"empty {name} grid")
        if grid is not None and not np.all(np.isfinite(grid)):
            raise NotFinite(f"{name} grid has a non-finite value")
    A, B, u = _gate(A, B, sigma, force)
    lams = default_lambdas(A.n) * u if lams is None else lams
    ts = np.asarray(DEFAULT_GRID) * u if ts is None else ts
    rows = np.append(lams, 0.0) if against_lambda_zero else lams
    with np.errstate(over="ignore", invalid="ignore"):
        grids = shifted_det_grid((A, B), rows, ts)
    if not np.isfinite(grids).all():
        raise NotFinite("a determinant on the grid overflows; use smaller grid values")
    diff = grids[0] - grids[1]
    resid = np.abs(diff[:lams.size] - diff[-1]) if against_lambda_zero else np.abs(diff)
    peak = float(np.abs(grids).max())
    # a grid of zeros (common roots of both sides, or underflow: a det of order n at unit
    # u is of order u^n) sees neither side, and max_diff = 0 <= TUTTE_TOL * 0 would pass
    if peak == 0.0:
        raise NotFinite("every determinant on the grid is 0 (a common root or underflow): "
                        "the grid cannot tell A from B")
    max_diff = float(np.max(resid))
    return GridReport(lambda_grid=tuple(lams), t_grid=tuple(ts), residuals=resid,
                      max_abs_diff=max_diff, scale=peak, tol=TUTTE_TOL,
                      passed=max_diff <= TUTTE_TOL * peak)


def verify_tutte(A: SymmetricMatrix, B: SymmetricMatrix, sigma: Hypomorphism,
                 lambda_grid: Optional[Sequence] = None, t_grid: Optional[Sequence] = None,
                 force: bool = False) -> GridReport:
    """det(A - lam*I + t*J) must equal det(B - lam*I + t*J) across the grid."""
    return _grid_report(A, B, sigma, lambda_grid, t_grid, force,
                        against_lambda_zero=False)


def verify_eq1(A: SymmetricMatrix, B: SymmetricMatrix, sigma: Hypomorphism) -> GridReport:
    """The determinant difference must be constant in the spectral shift.

    For each t of the default grid, f(lam, t) = det(A - lam I + t J) -
    det(B - lam I + t J) is compared against its value at lam = 0.
    """
    return _grid_report(A, B, sigma, None, None, False, against_lambda_zero=True)


@dataclass(frozen=True)
class KernelMatchReport:
    rank_a: int
    rank_b: int
    kernel_alignment: float
    volume_alignment: float
    align_tol: float
    passed: bool


def verify_main2(A: SymmetricMatrix, B: SymmetricMatrix, sigma: Hypomorphism) -> KernelMatchReport:
    """Good-position certified pairs must share their one-dimensional kernel.

    Kernel vectors are compared by absolute cosine; the A-side kernel is also
    cross-checked against the leave-one-out-volume vector of a fresh
    factorization, so the spectral and geometric routes agree.
    """
    A, B, _ = _gate(A, B, sigma)
    rep_a = good_position_report(A)
    rep_b = good_position_report(B)
    if not rep_a.is_good or not rep_b.is_good:
        raise BadPosition(f"good position required (A: {rep_a.reason.value}, B: {rep_b.reason.value})")
    ka, kb = rep_a.kernel_vector, rep_b.kernel_vector
    vol = volume_eigenvector(factor_presentation(A))
    # each norm as np.linalg.norm takes it for a real vector: the square root of one dot
    norm_a, norm_b, norm_vol = (math.sqrt(v.dot(v)) for v in (ka, kb, vol))
    kernel_alignment = float(abs(ka @ kb) / (norm_a * norm_b))
    volume_alignment = float(abs(ka @ vol) / (norm_a * norm_vol))
    passed = kernel_alignment >= 1.0 - ALIGN_TOL and volume_alignment >= 1.0 - ALIGN_TOL
    return KernelMatchReport(rank_a=rep_a.rank, rank_b=rep_b.rank,
                             kernel_alignment=kernel_alignment,
                             volume_alignment=volume_alignment,
                             align_tol=ALIGN_TOL, passed=passed)


@dataclass(frozen=True)
class TAgreementReport:
    lam: float
    t_a: float
    t_b: float
    abs_diff: float
    tol: float
    passed: bool


def verify_main1_t_agreement(A: SymmetricMatrix, B: SymmetricMatrix, sigma: Hypomorphism,
                             lam: float) -> TAgreementReport:
    """The singularizing rank-one coefficient must agree on both sides."""
    if not math.isfinite(lam):
        raise NotFinite(f"lambda {lam} is not finite")
    A, B, u = _gate(A, B, sigma)
    lam0 = max(lambda0_search(A), lambda0_search(B))
    if lam < lam0:
        raise LambdaTooSmall(f"lambda {lam} below certified threshold {lam0}")
    t_a = t_of_lambda(A, lam)
    t_b = t_of_lambda(B, lam)
    diff = abs(t_a - t_b)
    return TAgreementReport(lam=lam, t_a=t_a, t_b=t_b, abs_diff=diff, tol=T_AGREE_TOL,
                            passed=diff <= T_AGREE_TOL * max(u, abs(t_a)))


@dataclass(frozen=True)
class LowestEigenSample:
    t: float
    lambda_n_a: float
    lambda_n_b: float
    eigengap_a: float
    eigengap_b: float
    eigvec_alignment: float
    scale: float


@dataclass(frozen=True)
class MainTheoremReport:
    lambda0: float
    t_interval: tuple
    samples: tuple
    eig_tol: float
    gap_tol: float
    align_tol: float
    t_values: tuple
    passed: bool


def verify_main_theorem(A: SymmetricMatrix, B: SymmetricMatrix, sigma: Hypomorphism,
                        force: bool = False) -> MainTheoremReport:
    """Lowest eigenpairs of A + t*J and B + t*J must coincide on an interval.

    The interval is the image of a geometric lambda grid starting at the
    certified threshold under lam -> -1/(1^T (A + lam I)^-1 1); T_SAMPLES
    interior points of the image are then sampled and the three clauses
    checked: equal lowest eigenvalues, one-dimensionality via the eigengap,
    and colinear lowest eigenvectors by absolute cosine.
    """
    A, B, u = _gate(A, B, sigma, force)
    lam0 = max(lambda0_search(A), lambda0_search(B))
    t_values = A.spectrum.t(np.geomspace(lam0, 4.0 * lam0 + u, GEOM_GRID_POINTS))
    # never collapses: |Q^T 1|^2 = n gives |dt/dlam| >= 1/n, so t_hi - t_lo >= (3 lam0 + u) / n
    t_lo, t_hi = float(np.min(t_values)), float(np.max(t_values))
    sampled = np.linspace(t_lo, t_hi, T_SAMPLES + 2)[1:-1]
    # w[s, k] ascending, v[s, k][:, 0] its lowest eigenvector, for side s (A, B) at t_k
    shift = sampled[:, None, None] * np.ones((A.n, A.n))
    w, v = np.linalg.eigh(np.stack([A.entries + shift, B.entries + shift]))
    lowest = w[:, :, 0].tolist()
    gaps = (w[:, :, 1] - w[:, :, 0]).tolist()
    scales = np.maximum(np.abs(w).max(axis=(0, 2)), u).tolist()  # peak |w| at t_k, floored at u
    # the alignment stays one dot per sample: a stacked product sums in another order
    samples = tuple(LowestEigenSample(
        t=t,
        lambda_n_a=lowest[0][k],
        lambda_n_b=lowest[1][k],
        eigengap_a=gaps[0][k],
        eigengap_b=gaps[1][k],
        eigvec_alignment=float(abs(v[0, k, :, 0] @ v[1, k, :, 0])),
        scale=scales[k],
    ) for k, t in enumerate(sampled.tolist()))
    ok = all(
        abs(s.lambda_n_a - s.lambda_n_b) <= EIG_TOL * s.scale
        and s.eigengap_a > GAP_TOL * s.scale
        and s.eigengap_b > GAP_TOL * s.scale
        and s.eigvec_alignment >= 1.0 - ALIGN_TOL
        for s in samples)
    return MainTheoremReport(lambda0=lam0, t_interval=(t_lo, t_hi), samples=samples,
                             eig_tol=EIG_TOL, gap_tol=GAP_TOL, align_tol=ALIGN_TOL,
                             t_values=tuple(float(t) for t in t_values),
                             passed=ok)


def good_position_shift(A: SymmetricMatrix, lam: float) -> SymmetricMatrix:
    """A + lam*I + t(lam)*J: singular PSD with positive kernel when lam is certified."""
    A = as_matrix(A)
    t = t_of_lambda(A, lam)
    shifted = A.entries.copy()
    shifted.ravel()[::A.n + 1] += lam  # the diagonal of the copy, in place
    shifted += t
    return SymmetricMatrix(shifted)
