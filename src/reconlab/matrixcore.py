"""Dense symmetric-matrix primitives.

Decks (row/column deletions), shifted determinants det(A - lambda*I + t*J),
permutation similarity and the shared relative tolerance policy. Everything
here is a pure function of immutable inputs; arrays stored on the
dataclasses are write-protected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrder, DimensionMismatch, NotFinite, NotSymmetric

REL_TOL = 1e-10  # relative decisions compare a residual with REL_TOL * scale(inputs)


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

