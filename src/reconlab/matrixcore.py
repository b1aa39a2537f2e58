"""Dense symmetric-matrix primitives.

Decks (row/column deletions), shifted determinants det(A - lambda*I + t*J),
permutation similarity, the power-of-two `scale` every tolerance reads and
each matrix's spectrum. Everything here is a pure function of immutable
inputs; arrays stored on the dataclasses are write-protected.

A matrix keeps what is a function of it alone: `A.scale` (set by the
constructor), and the cached properties `A.spectrum` (one eigendecomposition
for every shift lambda; its lambda-path data are built at their first read)
and `A.spectrum.lambda0`, computed at the first access; an access that raises
keeps nothing. The matrix is frozen and its entries are write-protected, so a
kept value is exactly what a fresh computation would give. What depends on
the order n alone is kept once per order, read-only: `leave_one_out(n)`,
`card_index(n)` (the flat index that cuts every card with one `take`) and
`default_lambdas(n)`.

lambda0 is read from the deck: one batched eigvals over the cards gives the
root past which (A + lambda I)^-1 1 stays positive. One search follows: the
positivity certificate is tried just above the root (or at A.scale / 2 when
the root is not positive), doubling until it holds, and then bisected
downward where a candidate failed or next to a cancelled pole.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateOrder, DimensionMismatch, NotCertified, NotFinite, NotSymmetric

REL_TOL = 1e-10  # relative decisions compare a residual with REL_TOL * scale(inputs)
POS_MARGIN = 1e-12  # the lambda0 certificate asks (A + p I)^-1 1 >= POS_MARGIN / scale(A)
DEFAULT_GRID = tuple(np.linspace(-4.0, 4.0, 9))  # the default t grid, and lam grid up to n = 8
_LADDER = (32, 24, 20, 16)  # lambda0 tries theta * (1 + 2^-k) for these k, in turn
_ROOT_GAP = 2.0 ** -16  # eigvals reads a defective root to about sqrt(eps); this is "close"


def _unit(peak: float) -> float:
    """The power of two 2^k with peak in [2^k, 2^(k+1)), or 1.0 for peak 0: exact to scale by."""
    return math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0


def scale(*arrays) -> float:
    """The unit (see _unit) of the largest |entry| over the arrays (scalars count as arrays)."""
    return _unit(max(float(np.abs(a).max()) for a in arrays))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen_array(a: np.ndarray) -> np.ndarray:
    return _read_only(np.array(a, dtype=float, order="C"))


@dataclass(frozen=True)
class SymmetricMatrix:
    """Real symmetric n x n matrix; asymmetric (beyond tolerance) or non-finite input is rejected.

    Input within the asymmetry tolerance is stored as its lower triangle
    mirrored, the triangle np.linalg.eigh reads, so every consumer sees one
    exactly symmetric matrix. Exactly symmetric input is stored unchanged.
    """

    entries: np.ndarray
    scale: float = field(init=False, repr=False, compare=False)  # scale(entries), as stored

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DegenerateOrder("matrix order must be at least 1")
        peak = float(np.max(np.abs(a)))  # NaN if any entry is NaN, inf if any is infinite
        if not np.isfinite(peak):
            raise NotFinite(f"matrix has a non-finite entry (max |entry| = {peak})")
        tol = REL_TOL * _unit(peak)  # scale(a), from the peak already taken
        asym = float(np.max(np.abs(a - a.T)))
        if asym > tol:
            raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
        if asym > 0.0:
            a = np.where(np.tri(a.shape[0], dtype=bool), a, a.T)
            peak = float(np.max(np.abs(a)))  # the mirrored entries' own peak
        object.__setattr__(self, "entries", _frozen_array(a))
        object.__setattr__(self, "scale", _unit(peak))

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
    shift. The constructor runs `eigh` and nothing more. The lambda-path data
    are cached properties, built at the first read that needs one and kept
    read-only: c and c^2, the column views `c_col` and `mu_col` (a lambda0
    probe is numpy's per-call overhead around one small product), and the
    smallest and largest diagonal entries and the largest off-diagonal
    magnitude of A, which give the peak of A + lam I without forming it.
    `pd_bound`, `inverse_ones`, `t` and `certified` read them; a spectrum
    read only for mu and Q (`good_position_report`, `factor_presentation`)
    builds none. `scale` is A.scale, and `entries` are A's, from which
    `deck_root` cuts the cards. The arrays are read-only, since every reader
    of `A.spectrum` shares them.
    """

    def __init__(self, A: SymmetricMatrix):
        self.mu, self.q = np.linalg.eigh(A.entries)
        for kept in (self.mu, self.q):
            kept.setflags(write=False)
        self.entries, self.scale = A.entries, A.scale

    @functools.cached_property
    def c(self) -> np.ndarray:
        """c = Q^T 1, read-only."""
        return _read_only(self.q.T @ np.ones(len(self.mu)))

    @functools.cached_property
    def c_sq(self) -> np.ndarray:
        return _read_only(self.c ** 2)

    @functools.cached_property
    def c_col(self) -> np.ndarray:
        return self.c[:, None]

    @functools.cached_property
    def mu_col(self) -> np.ndarray:
        return self.mu[:, None]

    @functools.cached_property
    def diag_lo(self) -> float:
        return float(self.entries.diagonal().min())

    @functools.cached_property
    def diag_hi(self) -> float:
        return float(self.entries.diagonal().max())

    @functools.cached_property
    def off_peak(self) -> float:
        """The largest off-diagonal |entry| of A."""
        return float(np.abs(self.entries - np.diag(self.entries.diagonal())).max())

    def pd_bound(self, lam: float) -> tuple:
        """(min eigenvalue of A + lam I, the PD tolerance at that shift)."""
        peak = max(self.off_peak, abs(self.diag_lo + lam), abs(self.diag_hi + lam))
        return float(self.mu[0]) + lam, REL_TOL * max(self.scale, peak)

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
        if not w > tol:  # at a subnormal unit tol rounds to 0, so w = 0 must fail too
            return False
        # mu + p overflows near the top of the float range, and c / (mu + p) when the PD
        # tolerance is tiny (at scales near 1e-300): x then holds 0, inf or NaN, and the
        # margin fails 0 and NaN like any small x
        with np.errstate(all="ignore"):
            x = self.inverse_ones((lam, 2.0 * lam, 10.0 * lam))
        # x ~ 1/lam at the large shifts the search reaches, so the margin scales as 1/|A|
        return bool(x.min() >= POS_MARGIN / self.scale)

    @functools.cached_property
    def lambda0(self) -> float:
        """A certified shift past which (A + lam I)^-1 1 stays positive, found once.

        One candidate loop, then one bisection. Past theta = `deck_root()`
        every component is positive, so the candidates are theta * (1 + 2^-k),
        k in _LADDER. A theta <= REL_TOL * A.scale (every component positive
        wherever A + lam I is PD, as for the empty graphs, or a rounding-level
        -mu_0, as for J) has the one candidate A.scale / 2. The last candidate
        doubles until `certified` accepts one; NotCertified is raised once a
        candidate's 10x probe overflows. The certificate is then bisected down
        from the accepted candidate to 2^-40 relative width, from the last
        candidate that failed, or from -mu_0 when theta lies within _ROOT_GAP of
        it: the defective root of a cancelled pole, which eigvals reads only to
        about sqrt(eps). Tightening is best effort; the returned value is
        always certified (existence is guaranteed for large shifts, minimality
        is not). A search that raises NotCertified keeps nothing.
        """
        theta, pole = self.deck_root(), -float(self.mu[0])
        ladder = theta > REL_TOL * self.scale
        candidates = [theta * (1.0 + 2.0 ** -k) for k in _LADDER] if ladder else [0.5 * self.scale]
        hi = lo = candidates.pop(0)
        while True:
            # an infinite probe never certifies, and 0 (the floor at the least subnormal
            # unit) doubles to 0
            if not 0.0 < 10.0 * hi < math.inf:
                raise NotCertified(f"no certified lambda0 in (0, overflow) (reached {hi:.3e})")
            if self.certified(hi):
                break
            lo, hi = hi, candidates.pop(0) if candidates else 2.0 * hi
        if ladder and theta - pole <= _ROOT_GAP * theta:
            lo = pole
        while hi - lo > 2.0 ** -40 * hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # adjacent (subnormal) floats: nothing left between them
                break
            if self.certified(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def deck_root(self) -> float:
        """theta = max(-mu_0, the largest real eigenvalue of -K_i over i), from the cards.

        K_i = C_i - 1 r_i^T, with C_i card i and r_i row i of A without its
        diagonal entry. By Cramer's rule and a Schur complement, component i
        of (A + lam I)^-1 1 is det(K_i + lam I) / det(A + lam I), so on
        (-mu_0, inf) it changes sign only at a real eigenvalue of -K_i. The
        (n, n-1, n-1) stack is cut from A / A.scale, an exact power of two, so
        theta scales with A bit for bit, and one batched eigvals reads it. A
        defective root comes back as a pair split off the real axis by about
        sqrt(eps), so a pair within _ROOT_GAP of it counts as real.
        """
        s = self.entries / self.scale
        n = len(s)
        k = s.take(card_index(n)) - s[np.arange(n)[:, None], leave_one_out(n)][:, None, :]
        w = -np.linalg.eigvals(k)
        real = w.real[np.abs(w.imag) <= _ROOT_GAP]
        root = float(real.max()) * self.scale if real.size else -math.inf
        return max(-float(self.mu[0]), root)


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
        for i in self.image:  # Python or numpy integers: int() would read 1.7 and True as 1
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise DimensionMismatch(f"permutation entry {i!r} is not an integer")
        img = tuple(map(int, self.image))
        if sorted(img) != list(range(len(img))):
            raise DimensionMismatch(f"not a bijection on 0..{len(img) - 1}: {img}")
        object.__setattr__(self, "image", img)

    @property
    def degree(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "Permutation":
        if not (0 <= i < n and 0 <= j < n):
            raise DimensionMismatch(f"swap({i}, {j}) out of range 0..{n - 1}")
        img = list(range(n))
        img[i], img[j] = img[j], img[i]
        return cls(tuple(img))

    @classmethod
    def rotation(cls, n: int, k: int = 1) -> "Permutation":
        return cls(tuple((i + k) % n for i in range(n)))

    @classmethod
    def reflection(cls, n: int) -> "Permutation":
        return cls(tuple((n - i) % n for i in range(n)))


@functools.lru_cache(maxsize=64)
def leave_one_out(n: int) -> np.ndarray:
    """The read-only (n, n-1) index table whose row i lists every index but i: card i's indices."""
    k = np.arange(n - 1)
    return _read_only(k + (k >= np.arange(n)[:, None]))


@functools.lru_cache(maxsize=64)
def card_index(n: int) -> np.ndarray:
    """The read-only (n, n-1, n-1) flat index of every card: M.take(card_index(n))[i] is card i.

    Entry [i, p, q] is keep[i, p] * n + keep[i, q] with keep = leave_one_out(n),
    the position of card i's (p, q) entry in an n x n matrix read row by row.
    """
    keep = leave_one_out(n)
    return _read_only(keep[:, :, None] * n + keep[:, None, :])


def deck(A: SymmetricMatrix) -> list:
    """All n vertex-deleted principal submatrices, element i deleting row/col i."""
    A = as_matrix(A)
    if A.n < 2:
        raise DegenerateOrder("deck requires order >= 2")
    return [SymmetricMatrix(card) for card in A.entries.take(card_index(A.n))]


@functools.lru_cache(maxsize=64)
def default_lambdas(n: int) -> np.ndarray:
    """max(9, n + 1) points evenly spaced on [-4, 4], read-only: n + 1 values fix a degree-n det.

    Up to n = 8 this is DEFAULT_GRID bit for bit.
    """
    return _read_only(np.linspace(-4.0, 4.0, max(len(DEFAULT_GRID), n + 1)))


def shifted_det_grid(matrices, lams, ts) -> np.ndarray:
    """det(M - lam*I + t*J) at every (lam, t) pair, for one matrix M or a tuple of them.

    One matrix gives shape (len(lams), len(ts)); a tuple of matrices of one
    order gives (len(matrices), len(lams), len(ts)), grid k for matrix k.
    J = 1 1^T has rank one, so det(M + t J) = det M + t 1^T adj(M) 1 is
    linear in t. With M = A - lam I, p = det M is one batched LU over every
    matrix at every lam, and q = 1^T adj(M) 1 = -det([[M, 1], [1^T, 0]]) one
    over the bordered stack: two LAPACK calls for any number of matrices and
    any t grid. LAPACK factors each matrix of a stack on its own, so every
    entry is bit-identical to the grid of its matrix alone, and the t = 0
    column to det(A - lam I) taken on its own.
    """
    if isinstance(matrices, tuple):
        stack = np.array([as_matrix(M).entries for M in matrices])
    else:
        stack = as_matrix(matrices).entries
    n = stack.shape[-1]
    shifted = stack[..., None, :, :] - np.asarray(lams, dtype=float)[:, None, None] * np.eye(n)
    bordered = np.ones(shifted.shape[:-2] + (n + 1, n + 1))
    bordered[..., :n, :n] = shifted
    bordered[..., n, n] = 0.0
    p, q = np.linalg.det(shifted), -np.linalg.det(bordered)
    return p[..., None] + q[..., None] * np.asarray(ts, dtype=float)


def perm_similarity(A: SymmetricMatrix, tau: Permutation) -> SymmetricMatrix:
    """Relabel: B[tau(i), tau(j)] = A[i, j]. Exact (pure reindexing)."""
    A = as_matrix(A)
    if tau.degree != A.n:
        raise DimensionMismatch(f"permutation degree {tau.degree} != matrix order {A.n}")
    img = list(tau.image)
    b = np.empty_like(A.entries)
    b[np.ix_(img, img)] = A.entries
    return SymmetricMatrix(b)

