import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

from reconlab import orthant
from reconlab.orthant import (PHI_ERROR, REPLICATES, lattice, lattice_size, ndtr, ndtri,
                              orthant_probability)
from reconlab.solidangle import SIGMAS


def reference_estimate(gram, evaluations, seed):
    """The estimator written out point by point, with scipy's Phi and Phi^-1.

    It shares only the variable order, the lattice and the shifts with the
    library: (mean, standard error) over the shifted lattices.
    """
    low = orthant._genz_bretz(np.linalg.inv(gram))
    d = len(low)
    n = lattice_size(evaluations)
    z = lattice(n, d - 1)
    shifts = np.random.default_rng(seed).random((REPLICATES, d - 1))
    estimates = []
    for shift in shifts:
        total = norm = 0.0
        for k in range(n):
            x = (k * z % n) / n + shift
            x -= np.floor(x)
            u = np.where(np.arange(d - 1) < orthant.SMOOTHED,
                         x ** 3 * (10.0 - 15.0 * x + 6.0 * x * x), 1.0 - np.abs(2.0 * x - 1.0))
            weight = math.prod(30.0 * v * v * (1.0 - v) ** 2 for v in x[:orthant.SMOOTHED])
            f, y = 1.0, []
            for i in range(d):
                e = 0.5 if i == 0 else special.ndtr(-sum(low[i][j] * y[j] for j in range(i)))
                f *= e
                if i < d - 1:
                    y.append(special.ndtri(u[i] * e))
            total += f * weight
            norm += weight
        estimates.append(total / norm)
    return np.mean(estimates), np.std(estimates, ddof=1) / math.sqrt(REPLICATES)


def equicorrelated_gram(d):
    """Gram of a cone whose coefficients have correlation 1/2: fraction exactly 1/(d+1)."""
    g = np.linalg.cholesky(np.linalg.inv(0.5 * np.eye(d) + 0.5))
    return g @ g.T


def _around(*values):
    """Each value and its two floating-point neighbours."""
    return np.concatenate([[np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)] for v in values])


def _signed(magnitudes):
    return np.concatenate([-magnitudes[::-1], magnitudes])


def _mixed(*parts):
    return np.random.default_rng(0).permutation(np.concatenate(parts))


# Cody's ranges in y = |x| / sqrt(2): small up to 0.46875, mid up to 4, tail beyond,
# clipped to 27 (only the first and last points of a range can round across a breakpoint)
_SMALL = _signed(np.linspace(0.0, 0.66, 500))
_MID = _signed(np.linspace(0.67, 5.65, 500))
_TAIL = _signed(np.linspace(5.66, 37.0, 500))
CDF_RANGES = {
    "small": _SMALL, "mid": _MID, "tail": _TAIL,
    "clipped": _signed(np.geomspace(38.2, 1e300, 500)),
    "mixed": _mixed(_SMALL, _MID, _TAIL),
    "breakpoints": _mixed(_around(*(s * 0.46875 * math.sqrt(2.0) for s in (-1, 1)),
                                  *(s * 4.0 * math.sqrt(2.0) for s in (-1, 1)))),
}
# Wichura's ranges in q = min(p, 1 - p): central down to 0.075, near tail down to
# q = e^-25 (t = sqrt(-log q) = 5), far tail below
_CENTRAL = np.linspace(0.075, 0.9249, 1001)
_NEAR = np.concatenate([np.geomspace(1.4e-11, 0.0749, 400), 1.0 - np.geomspace(1e-10, 0.0749, 100)])
_FAR = np.concatenate([np.geomspace(1e-300, 1.3e-11, 450), 1.0 - np.geomspace(1e-15, 1e-11, 50)])
INVERSE_RANGES = {
    "central": _CENTRAL, "near": _NEAR, "far": _FAR,
    "mixed": _mixed(_CENTRAL, _NEAR, _FAR),
    "breakpoints": _mixed(_around(0.075, 0.925, math.exp(-25.0))),
}


class TestNormal:
    def test_cdf_matches_scipy(self):
        x = np.linspace(-37.0, 37.0, 200_001)
        got, want = ndtr(x), special.ndtr(x)
        assert np.max(np.abs(got - want)) <= 4e-16
        positive = want > 0.0
        assert np.max(np.abs(got - want)[positive] / want[positive]) <= 1e-13

    @pytest.mark.parametrize("size", [1, 2, 1001])
    @pytest.mark.parametrize("name", sorted(CDF_RANGES))
    def test_cdf_matches_scipy_range_by_range(self, name, size):
        # every point in one of Cody's ranges, so each skipped range is skipped, or mixed
        x = CDF_RANGES[name][:size]
        got, want = ndtr(x), special.ndtr(x)
        assert np.max(np.abs(got - want)) <= 4e-16
        if name != "clipped":  # past the clip scipy's values are subnormal
            assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_cdf_saturates_without_warnings(self):
        low = ndtr(np.array([-np.inf, -1e300, -40.0]))
        assert np.all((low >= 0.0) & (low < 1e-300))
        assert ndtr(np.array([40.0, 1e300, np.inf])).tolist() == [1.0, 1.0, 1.0]

    def test_inverse_matches_scipy(self):
        p = np.concatenate([np.linspace(1e-12, 1.0 - 1e-12, 100_001),
                            np.logspace(-300, -2, 5000), 1.0 - np.logspace(-15, -2, 500)])
        got, want = ndtri(p), special.ndtri(p)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-14

    @pytest.mark.parametrize("size", [1, 2, 1001])
    @pytest.mark.parametrize("name", sorted(INVERSE_RANGES))
    def test_inverse_matches_scipy_range_by_range(self, name, size):
        # every point in one of Wichura's ranges, so each skipped range is skipped, or mixed
        p = INVERSE_RANGES[name][:size]
        got, want = ndtri(p), special.ndtri(p)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-14

    def test_inverse_of_zero_and_one_is_finite(self):
        # lattice points can land exactly on a face of the cube
        x = ndtri(np.array([0.0, 5e-324, 1.0]))
        assert np.all(np.isfinite(x))
        assert x[0] == x[1] == -x[2] < -37.0

    def test_inverse_inverts(self):
        # Phi(x) for x > 0 is 1 - Phi(-x) rounded, so only the lower half keeps full precision
        x = np.linspace(-8.0, 0.0, 801)
        assert np.max(np.abs(ndtri(ndtr(x)) - x)) <= 1e-13


def test_the_package_does_not_import_scipy():
    # scipy is for the tests; the CLI's start-up must not pay for it
    code = "import sys, reconlab.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestLattice:
    @pytest.mark.parametrize("n", [5, 7, 47, 241, 2477])
    def test_components_are_units_mod_n(self, n):
        z = lattice(n, 5)
        assert z[0] == 1 and np.all((z >= 1) & (z < n))
        assert not z.flags.writeable

    def test_component_by_component_prefixes_agree(self):
        # CBC picks each component given the earlier ones only
        lattice.cache_clear()
        assert lattice(241, 3).tolist() == lattice(241, 6)[:3].tolist()

    def test_size_is_a_prime_below_the_evaluations_per_shift(self):
        for evaluations in (1, REPLICATES, 2 * REPLICATES - 1, 2 * REPLICATES, 8000, 10 ** 5):
            n = lattice_size(evaluations)
            assert n * REPLICATES <= max(evaluations, REPLICATES)
            assert n == 1 or all(n % p for p in range(2, math.isqrt(n) + 1))


class TestOrthantProbability:
    @pytest.mark.parametrize("d", range(2, 8))
    def test_equicorrelated_orthant_is_one_over_d_plus_one(self, d):
        fraction, err = orthant_probability(equicorrelated_gram(d), 4000, d)
        assert 0.0 < err < 1e-3
        assert abs(fraction - 1.0 / (d + 1)) <= SIGMAS * err

    @pytest.mark.parametrize("d", range(1, 8))
    def test_product_orthant_is_exact_with_a_nonzero_error(self, d):
        scales = np.arange(1.0, d + 1.0)
        fraction, err = orthant_probability(np.diag(scales), 1000, 3)
        assert fraction == 0.5 ** d and err == PHI_ERROR > 0.0

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_error_is_the_spread_of_the_shifted_replicates(self, d):
        g = np.linalg.cholesky(equicorrelated_gram(d)) + 0.2 * np.tril(np.ones((d, d)), -1)
        gram = g @ g.T
        fraction, err = orthant_probability(gram, 700, d)
        want_fraction, want_err = reference_estimate(gram, 700, d)
        assert fraction == pytest.approx(want_fraction, rel=1e-12)
        assert err == pytest.approx(want_err, rel=1e-6)

    def test_deterministic_in_seed(self):
        gram = equicorrelated_gram(5)
        assert orthant_probability(gram, 3000, 9) == orthant_probability(gram, 3000, 9)
        assert orthant_probability(gram, 3000, 9) != orthant_probability(gram, 3000, 10)

    def test_honest_error_bars(self):
        # 400 seeded estimates of the 1/(d+1) cones: the errors in standard errors
        # should look like Student's t with REPLICATES - 1 degrees of freedom, which
        # puts about 0.04 % beyond 4 sigma
        zs = []
        for d in (3, 4, 5, 6):
            gram = equicorrelated_gram(d)
            for seed in range(100):
                fraction, err = orthant_probability(gram, 1600, seed)
                zs.append((fraction - 1.0 / (d + 1)) / err)
        zs = np.abs(zs)
        assert np.sum(zs > 4.0) <= 1
        assert np.mean(zs > 3.0) <= 0.02
        assert np.mean(np.square(zs)) <= 1.3

    def test_budgets_past_the_largest_lattice_buy_more_shifts(self, monkeypatch):
        monkeypatch.setattr(orthant, "MAX_LATTICE", 7)
        lattice_size.cache_clear()
        try:
            assert lattice_size(10 ** 6) == 7
            small = orthant_probability(equicorrelated_gram(4), 7 * REPLICATES, 1)
            large = orthant_probability(equicorrelated_gram(4), 7 * 16 * REPLICATES, 1)
        finally:
            lattice_size.cache_clear()
        assert abs(large[0] - 0.2) <= SIGMAS * large[1]
        assert large[1] < 0.5 * small[1]  # 16 times the shifts

    def test_chunking_does_not_change_the_estimate(self, monkeypatch):
        # points are evaluated a chunk at a time; 16-point chunks sum in another order
        gram = equicorrelated_gram(4)
        whole = orthant_probability(gram, 2000, 4)
        monkeypatch.setattr(orthant, "CHUNK_POINTS", 16)
        chunked = orthant_probability(gram, 2000, 4)
        assert chunked[0] == pytest.approx(whole[0], rel=1e-14, abs=0.0)
        assert chunked[1] == pytest.approx(whole[1], rel=1e-9, abs=0.0)
