"""Vector presentations of PSD matrices and their rank-one perturbation path.

A presentation of a PSD matrix A is an ordered set of n column vectors U with
U^T U = A. "Good position" means the origin is interior to conv(U) and conv(U)
has dimension n-1; numerically this is rank(A) = n-1 together with a strictly
positive kernel vector. Translating a presentation along the projection u0 of
the origin onto its affine hull realizes the family A + t*J geometrically.

The lambda path (t(lambda), the lambda0 certificate and its search), the
PSD factorisations and the A^-1 1 of project_origin and per1_report read one
eigendecomposition of A per matrix: (A + lambda I)^-1 1 = Q (c / (mu + lambda))
with c = Q^T 1, so no shifted matrix is factored. It is computed at the first
call that needs it and kept on the SymmetricMatrix, with lambda0_search's
certified result. The kept values cannot go stale: the matrix is frozen and its
entries are write-protected, so they are exactly what a fresh decomposition
would give.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadPosition,
    ConsistencyError,
    DimensionMismatch,
    NotCertified,
    NotFinite,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
)
from .matrixcore import REL_TOL, SymmetricMatrix, as_matrix, leave_one_out, scale

POS_MARGIN = 1e-12
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

    def gram(self) -> SymmetricMatrix:
        """U^T U, built at the first call and kept, so its spectrum is decomposed once."""
        g = getattr(self, "_gram", None)
        if g is None:
            g = SymmetricMatrix(self.columns.T @ self.columns)
            object.__setattr__(self, "_gram", g)
        return g


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
    spec = _spectrum(A)
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
    report = good_position_report(U.gram())
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
    x = _require_pd(U.gram(), 0.0).inverse_ones(0.0)[:, 0]
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


class _ShiftedSpectrum:
    """One eigendecomposition A = Q diag(mu) Q^T that serves every shift lam.

    (A + lam I)^-1 1 = Q (c / (mu + lam)) with c = Q^T 1, so t(lam), the
    positive-definiteness test and the positivity certificate cost O(n^2) per
    shift. The smallest and largest diagonal entries and the largest
    off-diagonal magnitude of A give scale(A + lam I) exactly without forming
    the shifted matrix. The arrays are read-only, since every caller of
    `_spectrum(A)` shares them. A lambda0 probe is numpy's per-call overhead
    around one small product, so c and mu are also kept as column views and
    `certified` enters np.errstate only near overflow.
    """

    def __init__(self, A: SymmetricMatrix):
        a = A.entries
        self.mu, self.q = np.linalg.eigh(a)
        self.c = self.q.T @ np.ones(A.n)
        self.c_sq = self.c ** 2
        for kept in (self.mu, self.q, self.c, self.c_sq):
            kept.setflags(write=False)
        self.c_col, self.mu_col = self.c[:, None], self.mu[:, None]
        self.mu_peak = float(np.max(np.abs(self.mu)))
        diag = np.diag(a)
        self.diag_lo, self.diag_hi = float(diag.min()), float(diag.max())
        off = np.abs(a)
        np.fill_diagonal(off, 0.0)
        self.off_peak = max(1.0, float(off.max()))  # scale(off)
        # scale(a): its largest |entry| lies off the diagonal or at a diagonal extreme
        self.scale = max(self.off_peak, abs(self.diag_lo), abs(self.diag_hi))
        self.lambda0 = None  # lambda0_search's certified result, once it has succeeded

    def pd_bound(self, lam: float) -> tuple:
        """(min eigenvalue of A + lam I, the PD tolerance at that shift)."""
        shifted_scale = max(self.off_peak, abs(self.diag_lo + lam), abs(self.diag_hi + lam))
        return float(self.mu[0]) + lam, REL_TOL * shifted_scale

    def inverse_ones(self, lams) -> np.ndarray:
        """(A + lam I)^-1 1 as column k for the k-th shift in lams."""
        return self.q @ (self.c_col / (self.mu_col + np.asarray(lams, dtype=float)))

    def t(self, lams) -> np.ndarray:
        """t(lam) = -1 / (1^T (A + lam I)^-1 1) = -1 / sum_i c_i^2 / (mu_i + lam), per shift."""
        lams = np.asarray(lams, dtype=float)
        return -1.0 / np.sum(self.c_sq / (self.mu + lams[..., None]), axis=-1)

    def certified(self, lam: float) -> bool:
        """PD and (A + p I)^-1 1 >= POS_MARGIN / scale(A) at every p in {lam, 2 lam, 10 lam}."""
        # PD at lam > 0 gives PD at every p >= lam: tol(p) <= tol(lam) + REL_TOL * (p - lam)
        w, tol = self.pd_bound(lam)
        if w < tol:
            return False
        probes = np.array((lam, 2.0 * lam, 10.0 * lam))
        # with lam >= 0, |mu + p| <= max |mu| + 10 lam, and mu + p >= w >= tol keeps
        # c / (mu + p) small: no step of the probe can overflow
        if lam >= 0.0 and math.isfinite(self.mu_peak + 10.0 * lam):
            x = self.inverse_ones(probes)
        else:
            # an overflowing mu + p gives x = 0, which fails the margin like any small x
            with np.errstate(over="ignore"):
                x = self.inverse_ones(probes)
        # x ~ 1/lam at the large shifts the search reaches, so the margin scales as 1/|A|
        return bool(x.min() >= POS_MARGIN / self.scale)


def _spectrum(A: SymmetricMatrix) -> _ShiftedSpectrum:
    """A's _ShiftedSpectrum, computed at the first call and kept on A for the later ones."""
    spec = getattr(A, "_spectrum", None)
    if spec is None:
        spec = _ShiftedSpectrum(A)
        object.__setattr__(A, "_spectrum", spec)
    return spec


def _require_pd(A: SymmetricMatrix, lam: float) -> _ShiftedSpectrum:
    """A's kept spectrum, raising unless A + lam I is positive definite (the pd_bound rule)."""
    spec = _spectrum(A)
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

    Start at operator-norm + 1, double until the certificate holds (giving up
    once the 10x probe overflows), then bisect downward in 40 steps.
    Tightening is best effort; the returned value is always re-certified
    (existence is guaranteed for large shifts, minimality is not).
    Every probe reads the one eigendecomposition kept per matrix, and the
    certified result is kept beside it, so a later call on the same matrix
    returns it without searching; a search that raises keeps nothing.
    """
    spec = _spectrum(as_matrix(A))
    if spec.lambda0 is not None:
        return spec.lambda0
    hi = spec.mu_peak + 1.0
    doublings = 0
    while True:
        if not math.isfinite(10.0 * hi):  # an infinite probe never certifies
            raise NotCertified(f"no certified lambda0 below overflow (reached {hi:.3e})")
        if spec.certified(hi):
            break
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise NotCertified(f"no certified lambda0 after 200 doublings (reached {hi:.3e})")
    lo = hi / 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if spec.certified(mid):
            hi = mid
        else:
            lo = mid
    spec.lambda0 = hi
    return hi


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
