"""Deck-matching certificates between symmetric matrices.

Two n x n symmetric matrices are deck-equivalent when for every index i the
i-th vertex-deleted submatrices agree up to a permutation sigma_i. This module
verifies a given family of permutations in one exact reindexing of both
matrices, searches for one index by index under the gate's rule alone, so both
accept the same pairs (the indices impose no joint constraint, so the search
factors), and generates test pairs from relabeled graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, SearchTooLarge
from .graph6 import Graph6Record
from .matrixcore import (Permutation, SymmetricMatrix, as_matrix, deck, leave_one_out,
                         perm_similarity, scale)

EXACT_TOL = 1e-12  # relative: residuals are compared with EXACT_TOL * scale(A, B)
SEARCH_CAP = 9


@dataclass(frozen=True)
class Hypomorphism:
    """One degree-(n-1) permutation per deleted index."""

    sigmas: tuple

    def __post_init__(self):
        sigmas = tuple(self.sigmas)
        n = len(sigmas)
        if n < 3:
            raise DimensionMismatch("need at least 3 permutations")
        for s in sigmas:
            if s.degree != n - 1:
                raise DimensionMismatch(f"sigma degree {s.degree} != {n - 1}")
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def n(self) -> int:
        return len(self.sigmas)


@dataclass(frozen=True)
class HypomorphyCertificate:
    valid: bool
    worst_residual: float
    failing_index: Optional[int]
    tol: float  # the threshold applied, EXACT_TOL * scale(A, B)


def verify_hypomorphism(A: SymmetricMatrix, B: SymmetricMatrix,
                        sigma: Hypomorphism) -> HypomorphyCertificate:
    """Check B_i == sigma_i A_i sigma_i^T within EXACT_TOL * scale(A, B) for every deleted index i.

    All n cards are compared at once by exact reindexing of A and B, with no
    per-card matrices. Card i keeps the indices keep[i] (every index but i),
    and B_i == sigma_i A_i sigma_i^T reads B_i[sigma_i(p), sigma_i(q)] ==
    A_i[p, q], so each residual is a difference of the same two floats a loop
    over the deck would subtract.
    """
    A, B = as_matrix(A), as_matrix(B)
    if A.n != B.n or A.n != sigma.n:
        raise DimensionMismatch(f"orders differ: A={A.n}, B={B.n}, sigma={sigma.n}")
    if A.n < 3:
        raise DimensionMismatch("deck matching requires order >= 3")
    n = A.n
    keep = leave_one_out(n)
    moved = keep[np.arange(n)[:, None], [s.image for s in sigma.sigmas]]
    diff = (B.entries[moved[:, :, None], moved[:, None, :]]
            - A.entries[keep[:, :, None], keep[:, None, :]])
    resid = np.abs(diff).reshape(n, -1).max(axis=1)
    threshold = EXACT_TOL * scale(A.entries, B.entries)
    failing = np.flatnonzero(resid > threshold)
    return HypomorphyCertificate(valid=failing.size == 0, worst_residual=float(resid.max()),
                                 failing_index=int(failing[0]) if failing.size else None,
                                 tol=threshold)


def _match_submatrix(a: np.ndarray, b: np.ndarray, atol: float) -> Optional[Permutation]:
    """First permutation (backtracking order) with |b[s(k), s(l)] - a[k, l]| <= atol, else None.

    Every test follows from that rule: sorting moves no entry further than atol.
    """
    m = a.shape[0]
    # every (k, cand) fit on the diagonal and on the sorted rows; each row and column needs one
    fits = ((np.abs(np.diag(b) - np.diag(a)[:, None]) <= atol)
            & (np.abs(np.sort(b, axis=1) - np.sort(a, axis=1)[:, None]).max(axis=2) <= atol))
    if not (fits.any(axis=1).all() and fits.any(axis=0).all()):
        return None
    candidates = [[cand for cand, fit in enumerate(row) if fit] for row in fits.tolist()]
    a, b = a.tolist(), b.tolist()  # the backtracking reads single entries: Python floats
    image = [-1] * m
    used = [False] * m

    def extend(k: int) -> bool:
        if k == m:
            return True
        row_a = a[k]
        for cand in candidates[k]:
            if used[cand]:
                continue
            row_b = b[cand]
            for l in range(k):
                if abs(row_b[image[l]] - row_a[l]) > atol:
                    break
            else:
                image[k] = cand
                used[cand] = True
                if extend(k + 1):
                    return True
                used[cand] = False
        return False

    return Permutation(tuple(image)) if extend(0) else None


def find_hypomorphism(A: SymmetricMatrix, B: SymmetricMatrix) -> Optional[Hypomorphism]:
    """Search each sigma_i independently, testing only the gate's rule at its threshold.

    Deterministic: returns the lexicographically first sigma_i at every index.
    Returns None as soon as some index admits no match.
    """
    A, B = as_matrix(A), as_matrix(B)
    if A.n != B.n:
        raise DimensionMismatch(f"orders differ: {A.n} vs {B.n}")
    if A.n < 3:
        raise DimensionMismatch("deck matching requires order >= 3")
    if A.n > SEARCH_CAP:
        raise SearchTooLarge(f"order {A.n} exceeds search cap {SEARCH_CAP}")
    deck_a, deck_b = deck(A), deck(B)
    atol = EXACT_TOL * scale(A.entries, B.entries)  # the gate's threshold
    sigmas = []
    for i in range(A.n):
        match = _match_submatrix(deck_a[i].entries, deck_b[i].entries, atol)
        if match is None:
            return None
        sigmas.append(match)
    return Hypomorphism(tuple(sigmas))


def gen_pair(graph: Graph6Record, tau: Permutation):
    """Relabel a graph's adjacency matrix and search for the deck certificate.

    Returns (A, B, sigma_or_None) with B = perm_similarity(A, tau). The pair
    counts as a certified one only when the search succeeds.
    """
    if tau.degree != graph.n:
        raise DimensionMismatch(f"tau degree {tau.degree} != vertex count {graph.n}")
    return matrix_pair(SymmetricMatrix(graph.adjacency.astype(float)), tau)


def matrix_pair(A: SymmetricMatrix, tau: Permutation):
    """gen_pair for an already-assembled symmetric matrix."""
    A = as_matrix(A)
    B = perm_similarity(A, tau)
    return A, B, find_hypomorphism(A, B)


# ---------------------------------------------------------------------------
# the relabeled-cycle corpus

def cycle_adjacency(n: int) -> SymmetricMatrix:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return SymmetricMatrix(a)


def _cycle_relabeling(n: int, kind: str) -> Permutation:
    if kind == "rotation":
        return Permutation.rotation(n)
    if kind == "reflection":
        return Permutation.reflection(n)
    if kind == "shuffle":
        # a transposition outside the dihedral group: rotations and reflections
        # are cycle automorphisms, so only relabelings like this one give B != A
        return Permutation.swap(n, 1, 3)
    raise ValueError(f"unknown relabeling kind {kind!r}")


def cycle_pair_corpus(ns=(5, 6, 7, 8), kinds=("rotation", "reflection", "shuffle")) -> list:
    """Certified relabeled-cycle pairs; the workhorse corpus for the verifiers.

    Cycles are vertex transitive, so every deck element is the same path and
    the per-index search always succeeds. Dihedral relabelings reproduce the
    same matrix (automorphisms); the shuffle kind supplies pairs with B != A.
    """
    corpus = []
    for n in ns:
        for kind in kinds:
            tau = _cycle_relabeling(n, kind)
            A, B, sigma = matrix_pair(cycle_adjacency(n), tau)
            if sigma is None:
                raise RuntimeError(f"relabeled C{n} ({kind}) unexpectedly has no certificate")
            if kind == "shuffle" and np.array_equal(A.entries, B.entries):
                raise RuntimeError(f"shuffle relabeling of C{n} degenerated to B == A")
            corpus.append({"name": f"C{n}-{kind}", "A": A, "B": B, "sigma": sigma})
    return corpus
