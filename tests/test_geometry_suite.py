import numpy as np
import pytest

from reconlab import DrawFailed, geometry_suite, run_geometry_suite
from reconlab.geometry_suite import ANGLE_INSTANCES, random_good_position_presentation
from reconlab.serialize import dumps


class _SingularDraws:
    """Generator stand-in whose Gaussian blocks are all singular."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def uniform(self, low, high, size):
        return self._rng.uniform(low, high, size)

    def standard_normal(self, size):
        return np.ones(size)


def test_small_run_passes():
    rep = run_geometry_suite(seed=101, count=30)
    assert rep.passed
    assert rep.tallies["lemma1_equivalence"].failed == 0
    assert rep.tallies["perturbation_gram_law"].passed == 30 * 5
    assert rep.tallies["t_of_lambda_monotone"].flagged == 0


def test_deterministic_tallies():
    a = run_geometry_suite(seed=77, count=12)
    b = run_geometry_suite(seed=77, count=12)
    assert {k: (t.passed, t.failed, t.flagged) for k, t in a.tallies.items()} == \
           {k: (t.passed, t.failed, t.flagged) for k, t in b.tallies.items()}


def test_report_shows_the_estimates():
    # equal tallies, different Monte Carlo output: the serialised reports must differ
    a = run_geometry_suite(seed=5, count=2, mc_samples=2000)
    b = run_geometry_suite(seed=5, count=2, mc_samples=4000)
    assert a.tallies == b.tallies
    assert dumps(a) != dumps(b)
    # nine estimates per solid-angle instance, the same ones on a repeat
    assert len(a.fractions) == 9 * min(2, ANGLE_INSTANCES)
    assert run_geometry_suite(seed=5, count=2, mc_samples=2000).fractions == a.fractions


def test_nesting_lemma_is_checked():
    # one nested pair of closed-form 3-D cones per solid-angle instance
    rep = run_geometry_suite(seed=5, count=2, mc_samples=2000)
    assert rep.tallies["monotonicity"].passed == min(2, ANGLE_INSTANCES)


@pytest.mark.parametrize("count", [0, -3])
def test_needs_an_instance(count):
    # no instance means empty tallies, which would pass vacuously
    with pytest.raises(ValueError, match="count"):
        run_geometry_suite(seed=5, count=count)


def test_zero_tolerance_fails(monkeypatch):
    monkeypatch.setattr(geometry_suite, "RESID_TOL", 0.0)
    rep = run_geometry_suite(seed=5, count=5)
    assert not rep.passed and rep.resid_tol == 0.0


def test_ill_conditioned_draws_raise_typed_error():
    with pytest.raises(DrawFailed):
        random_good_position_presentation(_SingularDraws(), 4)
