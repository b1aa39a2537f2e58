import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from reconlab import Hypomorphism, Permutation, SymmetricMatrix, deck

# derandomized runs in CI, so a property failure reproduces on the next push
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

# asymmetry 5e-8 is within 1e-10 * 1000, the tolerance at its own scale, but not
# within 1e-10 * 1, the tolerance at the scale of the card that deletes row 0
CARD_SCALE_RAW = np.array([[0.0, 1000.0, 0.0], [1000.0, 0.0, 0.5], [0.0, 0.5 + 5e-8, 0.0]])


@st.composite
def symmetric_matrices(draw, min_n=2, max_n=6, scale=4.0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    count = n * (n + 1) // 2
    vals = draw(st.lists(
        st.floats(min_value=-scale, max_value=scale, allow_nan=False, width=32),
        min_size=count, max_size=count))
    a = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = vals[idx]
            idx += 1
    return SymmetricMatrix(a)


def identity_hypomorphism(n: int) -> Hypomorphism:
    """The family of n identity permutations, a certificate for every pair (A, A)."""
    return Hypomorphism(tuple(Permutation.identity(n - 1) for _ in range(n)))


def deck_dets(A: SymmetricMatrix) -> list:
    """Determinants of A's deck, sorted: equal for deck-equivalent matrices."""
    return sorted(float(np.linalg.det(card.entries)) for card in deck(A))


def signed_cycle_near_miss(weights, diagonal):
    """(A, B): the weighted cycle C_n (edge (i, i+1) of weight weights[i], the given
    diagonal) and the same cycle with the sign of edge (0, 1) flipped; the identity
    sigmas pair them.

    Every card is a weighted path, a tree, so B's card is A's conjugated by a
    +-1 diagonal and has the same spectrum, yet no permutation maps one onto
    the other. Only the Hamiltonian-cycle term of det changes:
    det A - det B = (-1)^(n+1) 4 prod(w_e) (Harary 1953; Zaslavsky 1982).
    """
    n = len(weights)
    a = np.diag(np.asarray(diagonal, dtype=float))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = weights[i]
    b = a.copy()
    b[0, 1] = b[1, 0] = -weights[0]
    return SymmetricMatrix(a), SymmetricMatrix(b)


def path_adjacency(n: int) -> SymmetricMatrix:
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return SymmetricMatrix(a)


def complete_adjacency(n: int) -> SymmetricMatrix:
    return SymmetricMatrix(np.ones((n, n)) - np.eye(n))


def complete_bipartite_adjacency(p: int, q: int) -> SymmetricMatrix:
    n = p + q
    a = np.zeros((n, n))
    a[:p, p:] = 1.0
    a[p:, :p] = 1.0
    return SymmetricMatrix(a)


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)
