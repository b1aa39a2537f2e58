"""Dense symmetric-matrix primitives.

Decks (row/column deletions), shifted determinants det(A - lambda*I + t*J),
permutation similarity, the shared relative tolerance policy and each
matrix's spectrum. Everything here is a pure function of immutable inputs;
arrays stored on the dataclasses are write-protected.

`A.spectrum` (one eigendecomposition serving every shift lambda) and
`A.spectrum.lambda0` (the certified shift of the lambda path) are cached
properties: computed at the first access and kept; an access that raises
keeps nothing. The matrix is frozen and its entries are write-protected, so a
kept value is exactly what a fresh decomposition would give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrder, DimensionMismatch, NotCertified, NotFinite, NotSymmetric

REL_TOL = 1e-10  # relative decisions compare a residual with REL_TOL * scale(inputs)
POS_MARGIN = 1e-12  # the lambda0 certificate asks (A + p I)^-1 1 >= POS_MARGIN / scale(A)


def scale(*arrays) -> float:
    """max(1, largest |entry|) over the arrays (scalars count as arrays)."""
    peak = 1.0
    for a in arrays:
        peak = max(peak, float(np.abs(a).max()))
    return peak


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SymmetricMatrix:
    """Real symmetric n x n matrix; asymmetric (beyond tolerance) or non-finite input is rejected.

    Input within the asymmetry tolerance is stored as its lower triangle
    mirrored, the triangle np.linalg.eigh reads, so every consumer sees one
    exactly symmetric matrix. Exactly symmetric input is stored unchanged.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DegenerateOrder("matrix order must be at least 1")
        peak = float(np.max(np.abs(a)))  # NaN if any entry is NaN, inf if any is infinite
        if not np.isfinite(peak):
            raise NotFinite(f"matrix has a non-finite entry (max |entry| = {peak})")
        tol = REL_TOL * max(1.0, peak)  # scale(a), from the peak already taken
        asym = float(np.max(np.abs(a - a.T)))
        if asym > tol:
            raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
        if asym > 0.0:
            a = np.where(np.tri(a.shape[0], dtype=bool), a, a.T)
        object.__setattr__(self, "entries", _frozen_array(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def spectrum(self) -> "Spectrum":
        """This matrix's Spectrum, computed at the first access and kept."""
        return Spectrum(self)


class Spectrum:
    """One eigendecomposition A = Q diag(mu) Q^T that serves every shift lam.

    (A + lam I)^-1 1 = Q (c / (mu + lam)) with c = Q^T 1, so t(lam), the
    positive-definiteness test and the positivity certificate cost O(n^2) per
    shift. The smallest and largest diagonal entries and the largest
    off-diagonal magnitude of A give scale(A + lam I) exactly without forming
    the shifted matrix. The arrays are read-only, since every reader of
    `A.spectrum` shares them. A lambda0 probe is numpy's per-call overhead
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

    @functools.cached_property
    def lambda0(self) -> float:
        """A certified shift past which (A + lam I)^-1 1 stays positive, searched once.

        Start at operator-norm + 1, double until the certificate holds (giving
        up once the 10x probe overflows), then bisect downward in 40 steps.
        Tightening is best effort; the returned value is always re-certified
        (existence is guaranteed for large shifts, minimality is not). A
        search that raises NotCertified keeps nothing.
        """
        hi = self.mu_peak + 1.0
        doublings = 0
        while True:
            if not math.isfinite(10.0 * hi):  # an infinite probe never certifies
                raise NotCertified(f"no certified lambda0 below overflow (reached {hi:.3e})")
            if self.certified(hi):
                break
            hi *= 2.0
            doublings += 1
            if doublings > 200:
                raise NotCertified(f"no certified lambda0 after 200 doublings (reached {hi:.3e})")
        lo = hi / 2.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if self.certified(mid):
                hi = mid
            else:
                lo = mid
        return hi


def as_matrix(a) -> SymmetricMatrix:
    """Coerce an array-like (or pass through a SymmetricMatrix) with validation."""
    if isinstance(a, SymmetricMatrix):
        return a
    return SymmetricMatrix(np.asarray(a, dtype=float))


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., degree-1}; `image[k]` is where position k goes."""

    image: tuple

    def __post_init__(self):
        img = tuple(int(i) for i in self.image)
        if sorted(img) != list(range(len(img))):
            raise DimensionMismatch(f"not a bijection on 0..{len(img) - 1}: {img}")
        object.__setattr__(self, "image", img)

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        return self.image[k]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "Permutation":
        img = list(range(n))
        img[i], img[j] = img[j], img[i]
        return cls(tuple(img))

    @classmethod
    def rotation(cls, n: int, k: int = 1) -> "Permutation":
        return cls(tuple((i + k) % n for i in range(n)))

    @classmethod
    def reflection(cls, n: int) -> "Permutation":
        return cls(tuple((n - i) % n for i in range(n)))


def leave_one_out(n: int) -> np.ndarray:
    """The (n, n-1) index table whose row i lists every index but i: card i's indices."""
    k = np.arange(n - 1)
    return k + (k >= np.arange(n)[:, None])


def deck(A: SymmetricMatrix) -> list:
    """All n vertex-deleted principal submatrices, element i deleting row/col i."""
    A = as_matrix(A)
    if A.n < 2:
        raise DegenerateOrder("deck requires order >= 2")
    keep = leave_one_out(A.n)
    return [SymmetricMatrix(card) for card in A.entries[keep[:, :, None], keep[:, None, :]]]


def shifted_det_grid(A: SymmetricMatrix, lams, ts) -> np.ndarray:
    """det(A - lam*I + t*J) at every (lam, t) pair, shape (len(lams), len(ts)).

    One batched LAPACK pivoted-LU call over the stacked matrices; each entry
    is bit-identical to the determinant of that matrix taken on its own.
    """
    A = as_matrix(A)
    lams = np.asarray(lams, dtype=float)[:, None, None, None]
    ts = np.asarray(ts, dtype=float)[None, :, None, None]
    return np.linalg.det(A.entries - lams * np.eye(A.n) + ts * np.ones((A.n, A.n)))


def perm_similarity(A: SymmetricMatrix, tau: Permutation) -> SymmetricMatrix:
    """Relabel: B[tau(i), tau(j)] = A[i, j]. Exact (pure reindexing)."""
    A = as_matrix(A)
    if tau.degree != A.n:
        raise DimensionMismatch(f"permutation degree {tau.degree} != matrix order {A.n}")
    img = list(tau.image)
    b = np.empty_like(A.entries)
    b[np.ix_(img, img)] = A.entries
    return SymmetricMatrix(b)

