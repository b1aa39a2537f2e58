import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from reconlab import SymmetricMatrix

# derandomized runs in CI, so a property failure reproduces on the next push
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


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


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)
