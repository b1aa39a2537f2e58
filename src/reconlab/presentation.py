"""Vector presentations of PSD matrices and their rank-one perturbation path.

A presentation of a PSD matrix A is an ordered set of n column vectors U with
U^T U = A. "Good position" means the origin is interior to conv(U) and conv(U)
has dimension n-1; numerically this is rank(A) = n-1 together with a strictly
positive kernel vector. Translating a presentation along the projection u0 of
the origin onto its affine hull realizes the family A + t*J geometrically.

The lambda path (t(lambda), the lambda0 certificate and its search), the
PSD factorisations and the A^-1 1 of project_origin and per1_report read the
one eigendecomposition each matrix keeps as `A.spectrum` (see matrixcore), so
no shifted matrix is factored. A presentation keeps its Gram matrix
`U.gram`, so its spectrum is decomposed once too.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadPosition,
    ConsistencyError,
    DimensionMismatch,
    NotFinite,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
)
from .matrixcore import REL_TOL, Spectrum, SymmetricMatrix, as_matrix, leave_one_out, scale

_KERNEL_POS_TOL = 1e-12


@dataclass(frozen=True)
class Presentation:
    """n vectors in R^n stored as the columns of an n x n array."""

    columns: np.ndarray

    def __post_init__(self):
        c = np.array(self.columns, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimensionMismatch(f"presentation must be a square array, got {c.shape}")
        if not np.isfinite(c).all():
            raise NotFinite("presentation has a non-finite entry")
        c.setflags(write=False)
        object.__setattr__(self, "columns", c)

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    @functools.cached_property
    def gram(self) -> SymmetricMatrix:
        """U^T U, built at the first access and kept, so its spectrum is decomposed once."""
        return SymmetricMatrix(self.columns.T @ self.columns)


class GoodPositionReason(enum.Enum):
    RANK_NOT_N_MINUS_1 = "RankNotNMinus1"
    KERNEL_SIGN_MIXED = "KernelSignMixed"
    GOOD = "Good"


@dataclass(frozen=True)
class GoodPositionReport:
    rank: int
    kernel_vector: Optional[np.ndarray]
    is_good: bool
    reason: GoodPositionReason


@dataclass(frozen=True)
class PerturbationPath:
    """The projection u0 of the origin onto aff(U) and |u0|^2.

    Translating u_i -> u_i - s*u0 adds t = (s^2 - 2s)*|u0|^2 to every Gram entry.
    """

    u0: np.ndarray
    u0_norm_sq: float


def _eigh_psd(A: SymmetricMatrix) -> tuple:
    """Ascending eigenvalues and eigenvectors, raising if one is below -REL_TOL * scale(A)."""
    spec = A.spectrum
    tol = REL_TOL * spec.scale
    if spec.mu[0] < -tol:
        raise NotPositiveSemidefinite(f"min eigenvalue {spec.mu[0]:.3e} below -{tol:.3e}")
    return spec.mu, spec.q


def factor_presentation(A: SymmetricMatrix) -> Presentation:
    """U = Lambda^(1/2) Q^T from A = Q Lambda Q^T; tiny negative eigenvalues clip to 0."""
    w, q = _eigh_psd(as_matrix(A))
    w = np.clip(w, 0.0, None)
    u = np.sqrt(w)[:, None] * q.T
    return Presentation(u)


def good_position_report(A: SymmetricMatrix) -> GoodPositionReport:
    """Rank test plus sign test on the kernel vector.

    The geometric condition (origin interior to conv U, hull dimension n-1)
    is certified through the equivalent algebraic one: rank n-1 and a kernel
    vector with strictly one-signed entries. The kernel vector is normalized
    to unit 1-norm with its first nonzero entry positive.
    """
    A = as_matrix(A)
    w, vecs = _eigh_psd(A)
    # relative to the spectral radius alone: rank does not depend on the magnitude of A
    thresh = REL_TOL * max(abs(w[0]), abs(w[-1]))
    rank = int(np.sum(w > thresh))
    if rank != A.n - 1:
        return GoodPositionReport(rank=rank, kernel_vector=None, is_good=False,
                                  reason=GoodPositionReason.RANK_NOT_N_MINUS_1)
    alpha = vecs[:, 0]
    lead = next((i for i in range(A.n) if abs(alpha[i]) > _KERNEL_POS_TOL), 0)
    if alpha[lead] < 0:
        alpha = -alpha
    alpha = alpha / np.sum(np.abs(alpha))
    alpha.setflags(write=False)
    if np.min(alpha) <= _KERNEL_POS_TOL:
        return GoodPositionReport(rank=rank, kernel_vector=alpha, is_good=False,
                                  reason=GoodPositionReason.KERNEL_SIGN_MIXED)
    return GoodPositionReport(rank=rank, kernel_vector=alpha, is_good=True,
                              reason=GoodPositionReason.GOOD)


def volume_eigenvector(U: Presentation) -> np.ndarray:
    """Kernel direction recovered from leave-one-out simplex volumes.

    alpha_i is the (n-1)-volume of conv{0, u_1, ..., without u_i, ..., u_n},
    computed as |det| of the leave-one-out coordinate matrix in an orthonormal
    basis of span(U), over (n-1)!. Returned with unit sum.
    """
    n = U.n
    report = good_position_report(U.gram)
    if not report.is_good:
        raise BadPosition(f"presentation not in good position: {report.reason.value}")
    q = np.linalg.svd(U.columns)[0][:, :n - 1]  # orthonormal basis of the (n-1)-dim span
    coords = q.T @ U.columns
    alpha = np.abs(np.linalg.det(coords[:, leave_one_out(n)].transpose(1, 0, 2)))
    alpha /= float(math.factorial(n - 1))
    return alpha / np.sum(alpha)


def project_origin(U: Presentation) -> PerturbationPath:
    """Projection u0 of the origin onto aff(U), with |u0|^2 = 1/(1^T A^-1 1).

    Both closed forms, U A^-1 1 / (1^T A^-1 1) and (U^T)^-1 1 scaled the same
    way, are evaluated and must agree; disagreement signals ill conditioning.
    A^-1 1 is read from the Gram's kept spectrum, (U^T)^-1 1 from an LU solve.
    """
    x = _require_pd(U.gram, 0.0).inverse_ones(0.0)[:, 0]
    norm_sq = 1.0 / float(x.sum())
    u0 = (U.columns @ x) * norm_sq
    u0_alt = np.linalg.solve(U.columns.T, np.ones(U.n)) * norm_sq
    gap = float(np.max(np.abs(u0 - u0_alt)))
    if gap > REL_TOL * scale(u0):
        raise ConsistencyError(f"u0 closed forms disagree by {gap:.3e}")
    u0.setflags(write=False)
    return PerturbationPath(u0=u0, u0_norm_sq=norm_sq)


def perturb_presentation(U: Presentation, s: float) -> Presentation:
    """The translated family {u_i - s*u0}; its Gram is A + (s^2-2s)|u0|^2 J."""
    path = project_origin(U)
    return Presentation(U.columns - s * path.u0[:, None])


def _require_pd(A: SymmetricMatrix, lam: float) -> Spectrum:
    """A's kept spectrum, raising unless A + lam I is positive definite (the pd_bound rule)."""
    spec = A.spectrum
    w, tol = spec.pd_bound(lam)
    if w < tol:
        raise NotPositiveDefinite(f"min eigenvalue {w:.3e} below PD tolerance {tol:.3e}")
    return spec


def t_of_lambda(A: SymmetricMatrix, lam: float) -> float:
    """-1 / (1^T (A + lam*I)^-1 1); requires a finite lam with A + lam*I positive definite."""
    if not math.isfinite(lam):
        raise NotFinite(f"lambda {lam} is not finite")
    return float(_require_pd(as_matrix(A), lam).t(lam))


def lambda0_search(A: SymmetricMatrix) -> float:
    """A shift lambda0 past which the inverse applied to the ones vector stays positive.

    `A.spectrum.lambda0`: read from the deck (the largest real eigenvalue of
    -(C_i - 1 r_i^T) over the cards, or -mu_0) and certified just above that
    root (A.scale / 2 when it is not positive), doubling until the
    certificate holds and bisecting down from the last failed shift or
    towards a cancelled pole.
    Found at the first call on a matrix and kept on its spectrum; a search
    that raises NotCertified keeps nothing.
    """
    return as_matrix(A).spectrum.lambda0


@dataclass(frozen=True)
class InteriorReport:
    """Theorem-level equivalence audit: both routes reported, never collapsed."""

    cond2: bool
    cond3: bool
    weights: np.ndarray


def per1_report(A: SymmetricMatrix) -> InteriorReport:
    """Audit the equivalence 'u0 interior to conv U' <=> 'A^-1 1 positive'.

    cond3 reads the sign of A^-1 1, taken from A's kept spectrum. cond2
    re-derives u0's barycentric weights w = A^-1 1 / (1^T A^-1 1) inside a
    freshly factored presentation, verifies U w = u0 and 1^T w = 1, then reads
    their signs.
    """
    A = as_matrix(A)
    x = _require_pd(A, 0.0).inverse_ones(0.0)[:, 0]
    cond3 = bool(np.min(x) > 0.0)

    U = factor_presentation(A)
    path = project_origin(U)
    w = x / float(x.sum())
    resid = float(np.max(np.abs(U.columns @ w - path.u0)))
    if resid > 1e-8 * scale(path.u0):
        raise ConsistencyError(f"barycentric reconstruction residual {resid:.3e}")
    if abs(float(np.sum(w)) - 1.0) > REL_TOL:
        raise ConsistencyError("barycentric weights do not sum to 1")
    cond2 = bool(np.min(w) > 0.0)
    w.setflags(write=False)
    return InteriorReport(cond2=cond2, cond3=cond3, weights=w)
