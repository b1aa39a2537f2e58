import contextlib
import json
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from reconlab import (
    BadPosition,
    DimensionMismatch,
    LambdaTooSmall,
    NotFinite,
    NotHypomorphic,
    SymmetricMatrix,
    factor_presentation,
    find_hypomorphism,
    good_position_report,
    good_position_shift,
    lambda0_search,
    t_of_lambda,
    verify_eq1,
    verify_hypomorphism,
    verify_main1_t_agreement,
    verify_main2,
    verify_main_theorem,
    verify_tutte,
    volume_eigenvector,
)
from reconlab.hypomorphism import SEARCH_CAP, cycle_adjacency, cycle_pair_corpus, matrix_pair
from reconlab.matrixcore import Permutation, Spectrum, default_lambdas, scale, shifted_det_grid
from reconlab.cli import main
from reconlab.serialize import dumps, pair_to_dict
from reconlab import matrixcore, verifiers
from reconlab.verifiers import DEFAULT_GRID, GridReport, LowestEigenSample

from conftest import complete_bipartite_adjacency, identity_hypomorphism, signed_cycle_near_miss

EQUILATERAL = SymmetricMatrix(np.array([
    [1.0, -0.5, -0.5],
    [-0.5, 1.0, -0.5],
    [-0.5, -0.5, 1.0],
]))


@pytest.fixture(scope="module")
def c5_pair():
    # swap(1, 3) is not a cycle automorphism, so B genuinely differs from A
    A, B, sigma = matrix_pair(cycle_adjacency(5), Permutation.swap(5, 1, 3))
    assert sigma is not None and not np.array_equal(A.entries, B.entries)
    return A, B, sigma


@pytest.fixture(scope="module")
def c6_pair():
    A, B, sigma = matrix_pair(cycle_adjacency(6), Permutation.swap(6, 1, 3))
    assert sigma is not None and not np.array_equal(A.entries, B.entries)
    return A, B, sigma


class TestTutte:
    def test_same_matrix_zero_diff(self, c5_pair):
        A, _, _ = c5_pair
        rep = verify_tutte(A, A, identity_hypomorphism(5))
        assert rep.passed and rep.max_abs_diff == 0.0

    def test_relabeled_cycle(self, c6_pair):
        rep = verify_tutte(*c6_pair)
        assert rep.passed
        assert rep.max_abs_diff <= 1e-8 * max(1.0, rep.scale)
        assert len(rep.lambda_grid) == 9 and len(rep.t_grid) == 9

    def test_adversarial_diagonal_bump(self, c6_pair):
        A, B, sigma = c6_pair
        bumped = B.entries.copy()
        bumped[0, 0] += 1e-3
        B2 = SymmetricMatrix(bumped)
        with pytest.raises(NotHypomorphic):
            verify_tutte(A, B2, sigma)
        rep = verify_tutte(A, B2, sigma, force=True)
        assert not rep.passed

    def test_residuals_shape(self, c5_pair):
        rep = verify_tutte(*c5_pair, lambda_grid=[-1.0, 0.0, 1.0], t_grid=[0.0, 2.0])
        assert rep.residuals.shape == (3, 2)

    @pytest.mark.parametrize("grids", [
        {"lambda_grid": [float("nan"), 1.0]},
        {"t_grid": [float("inf")]},
        {"lambda_grid": [0.0, float("-inf")], "t_grid": [0.0]},
        {"lambda_grid": [1e70, 1.0]},
    ], ids=["nan-lambda", "inf-t", "minus-inf-lambda", "overflowing-det"])
    def test_non_finite_grid_rejected(self, c5_pair, grids):
        # a finite grid value whose determinant overflows is rejected the same
        # way, without numpy's overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite):
                verify_tutte(*c5_pair, **grids)

    @pytest.mark.parametrize("grids", [{"lambda_grid": []}, {"t_grid": ()}],
                             ids=["empty-lambda", "empty-t"])
    def test_empty_grid_rejected(self, c5_pair, grids):
        with pytest.raises(DimensionMismatch):
            verify_tutte(*c5_pair, **grids)

    def test_batched_grid_matches_per_point_loop(self, c6_pair):
        # the two-stack determinant grids against np.linalg.det of each A - lam I + t J:
        # tutte's explicit grid on a forged pair, and eq1's default grid on C9-shuffle,
        # whose lam grid holds no 0, so its lam = 0 reference is a row of its own. The
        # t = 0 column is the plain LU determinant bit for bit; every other point lies
        # within 1e-12 * max(1, peak) of the per-point LU
        def det(M, lam, t):
            return np.linalg.det(M.entries - lam * np.eye(M.n) + t * np.ones((M.n, M.n)))

        A, B, sigma = c6_pair
        bumped = B.entries.copy()
        bumped[2, 4] = bumped[4, 2] = 0.3
        B2 = SymmetricMatrix(bumped)
        lams, ts = np.linspace(-3.0, 5.0, 11), [-2.0, 0.0, 1.5, 3.0]
        tutte = verify_tutte(A, B2, sigma, lambda_grid=lams, t_grid=ts, force=True)
        reference = np.array([[abs(det(A, lam, t) - det(B2, lam, t)) for t in ts] for lam in lams])
        np.testing.assert_array_equal(tutte.residuals[:, 1], reference[:, 1])
        assert np.max(np.abs(tutte.residuals - reference)) <= 1e-12 * scale(tutte.scale)
        assert not tutte.passed
        pair = {p["name"]: p for p in cycle_pair_corpus(ns=(9,))}["C9-shuffle"]
        A, B = pair["A"], pair["B"]
        eq1 = verify_eq1(A, B, pair["sigma"])
        assert 0.0 not in eq1.lambda_grid
        f0 = [det(A, 0.0, t) - det(B, 0.0, t) for t in eq1.t_grid]
        reference = np.array([[abs(det(A, lam, t) - det(B, lam, t) - f0[j])
                               for j, t in enumerate(eq1.t_grid)] for lam in eq1.lambda_grid])
        assert np.max(np.abs(eq1.residuals - reference)) <= 1e-12 * scale(eq1.scale)
        assert eq1.passed


class TestDefaultLambdaGrid:
    """The default lam grid has max(9, n + 1) points, enough to fix a degree-n determinant."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_is_default_grid_up_to_eight(self, n):
        A = SymmetricMatrix(np.eye(n))
        for verifier in (verify_tutte, verify_eq1):
            assert verifier(A, A, identity_hypomorphism(n)).lambda_grid == DEFAULT_GRID

    @pytest.mark.parametrize("n", range(9, 13))
    def test_has_n_plus_one_points_past_eight(self, n):
        A = SymmetricMatrix(np.eye(n))
        rep = verify_tutte(A, A, identity_hypomorphism(n), t_grid=[0.0])
        assert rep.lambda_grid == tuple(np.linspace(-4.0, 4.0, n + 1))

    def test_roots_on_the_nine_point_grid_do_not_hide_a_forged_pair(self):
        # both determinants vanish at every point of DEFAULT_GRID, so nine points
        # see no difference and cannot pass the pair; the default grid of 12 points
        # for n = 11 does see it
        A = SymmetricMatrix(np.diag(DEFAULT_GRID + (5.0, 6.0)))
        B = SymmetricMatrix(np.diag(DEFAULT_GRID + (5.0, 7.0)))
        with pytest.raises(NotFinite, match="every determinant on the grid is 0"):
            verify_tutte(A, B, identity_hypomorphism(11), lambda_grid=DEFAULT_GRID,
                         t_grid=[0.0], force=True)
        rep = verify_tutte(A, B, identity_hypomorphism(11), t_grid=[0.0], force=True)
        assert len(rep.lambda_grid) == 12
        assert not rep.passed and rep.max_abs_diff > 1e3


class TestGridScaleDefects:
    """Grid verdicts judged against one global determinant scale. A swamping t
    cannot hide a forged pair, since det(M) + t 1^T adj(M) 1 never forms M + t J;
    one large lam still sets the scale of every point."""

    def test_swamping_t_value_still_fails_a_forged_pair(self):
        pair = {p["name"]: p for p in cycle_pair_corpus(ns=(5,))}["C5-shuffle"]
        bumped = pair["B"].entries.copy()
        bumped[0, 0] += 0.5
        rep = verify_tutte(pair["A"], SymmetricMatrix(bumped), pair["sigma"],
                           t_grid=[1e200], force=True)
        assert not rep.passed

    @pytest.mark.xfail(strict=True, reason="one peak |det| ~ 1e15 is the scale of every point")
    def test_large_lambda_does_not_hide_a_signed_near_miss(self):
        # C5 against C5 with one edge's sign flipped: det differs by 4 at every
        # point, and the default grid alone fails the pair
        A = cycle_adjacency(5)
        flipped = A.entries.copy()
        flipped[0, 1] = flipped[1, 0] = -1.0
        rep = verify_tutte(A, SymmetricMatrix(flipped), identity_hypomorphism(5),
                           lambda_grid=DEFAULT_GRID + (1000.0,), t_grid=[0.0], force=True)
        assert not rep.passed


def _near_miss_weights(n, kind):
    """(weights, diagonal) of a near miss: unit weights, or one seeded nonzero set."""
    if kind == "unit":
        return np.ones(n), np.zeros(n)
    rng = np.random.default_rng(0)
    return rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n), rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("kind", ["unit", "seeded"])
@pytest.mark.parametrize("n", range(5, 13))
class TestSignedCycleNearMisses:
    """C_n against C_n with edge (0, 1) negated: every card pair is cospectral, the
    determinants differ by the Hamiltonian-cycle term alone, and every check must fail."""

    def test_determinants_differ_by_the_cycle_term(self, n, kind):
        w, diag = _near_miss_weights(n, kind)
        A, B = signed_cycle_near_miss(w, diag)
        want = (-1.0) ** (n + 1) * 4.0 * np.prod(w)
        got = np.linalg.det(A.entries) - np.linalg.det(B.entries)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_gate_residual_is_twice_the_flipped_weight(self, n, kind):
        w, diag = _near_miss_weights(n, kind)
        cert = verify_hypomorphism(*signed_cycle_near_miss(w, diag), identity_hypomorphism(n))
        assert not cert.valid
        assert cert.worst_residual == 2.0 * abs(w[0])

    def test_forced_verifiers_fail(self, n, kind):
        w, diag = _near_miss_weights(n, kind)
        A, B = signed_cycle_near_miss(w, diag)
        sigma = identity_hypomorphism(n)
        assert not verify_tutte(A, B, sigma, force=True).passed
        assert not verify_main_theorem(A, B, sigma, force=True).passed


class TestSubUnitScaleNearMiss:
    """The signed C5 near miss at scale 1e-13 fails every check, as it does at unit
    scale (TestSignedCycleNearMisses). The pair's unit is 2^-44, so the gate's
    threshold EXACT_TOL * 2^-44 sits far below the residual 2e-13, and the default
    lambda grid spans [-4, 4] * 2^-44, where the 4e-65 determinant gap shows. While
    scale() floored at 1 the threshold was an absolute 1e-12 and the grid [-4, 4],
    and the pair passed the gate, the search and every verifier."""

    @staticmethod
    def pair():
        return signed_cycle_near_miss(np.full(5, 1e-13), np.zeros(5))

    def test_gate_rejects(self):
        assert not verify_hypomorphism(*self.pair(), identity_hypomorphism(5)).valid

    def test_search_finds_none(self):
        assert find_hypomorphism(*self.pair()) is None

    def test_forced_tutte_fails(self):
        A, B = self.pair()
        assert not verify_tutte(A, B, identity_hypomorphism(5), force=True).passed

    def test_forced_main_theorem_fails(self):
        A, B = self.pair()
        assert not verify_main_theorem(A, B, identity_hypomorphism(5), force=True).passed

    @pytest.mark.parametrize("command", ["verify-tutte", "verify-main"])
    def test_cli_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "forged.json"
        path.write_text(dumps(pair_to_dict(*self.pair(), identity_hypomorphism(5))))
        assert main([command, "--pair", str(path), "--deterministic"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "NotHypomorphic"  # one JSON object


class TestUnderflowedGrid:
    """The signed C_n near miss scaled until every determinant on the default grid
    underflows to 0, where max_abs_diff = 0 <= TUTTE_TOL * 0 would pass it. Such a grid
    cannot tell A from B, so it ends in NotFinite (exit 2), as a grid on the roots of
    both determinants does (TestDefaultLambdaGrid)."""

    @pytest.mark.parametrize("n, exponent", [(5, -230), (9, -130), (12, -100), (20, -60),
                                             (40, -30)])
    def test_forced_tutte_is_typed(self, n, exponent):
        A, B = signed_cycle_near_miss(np.full(n, 2.0 ** exponent), np.zeros(n))
        with pytest.raises(NotFinite, match="every determinant on the grid is 0"):
            verify_tutte(A, B, identity_hypomorphism(n), force=True)


@pytest.mark.parametrize("kind", ["unit", "seeded"])
@pytest.mark.parametrize("n", range(5, 10))  # SEARCH_CAP = 9
def test_search_finds_no_certificate_for_a_near_miss(n, kind):
    w, diag = _near_miss_weights(n, kind)
    assert find_hypomorphism(*signed_cycle_near_miss(w, diag)) is None


class TestEq1:
    def test_same_matrix(self, c5_pair):
        A, _, _ = c5_pair
        rep = verify_eq1(A, A, identity_hypomorphism(5))
        assert rep.passed and rep.max_abs_diff == 0.0

    def test_forged_certificate_rejected(self):
        A = SymmetricMatrix(np.eye(3))
        B = SymmetricMatrix(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(NotHypomorphic):
            verify_eq1(A, B, identity_hypomorphism(3))


class TestMain2:
    def test_equilateral_self_pair(self):
        rep = verify_main2(EQUILATERAL, EQUILATERAL, identity_hypomorphism(3))
        assert rep.passed
        assert rep.rank_a == rep.rank_b == 2
        assert rep.kernel_alignment >= 1.0 - 1e-12

    def test_shifted_cycle_pair(self, c5_pair):
        A, B, sigma = c5_pair
        lam = lambda0_search(A) + 1.0
        t = t_of_lambda(A, lam)
        n = A.n
        shift = lam * np.eye(n) + t * np.ones((n, n))
        A2 = SymmetricMatrix(A.entries + shift)
        B2 = SymmetricMatrix(B.entries + shift)
        assert verify_hypomorphism(A2, B2, sigma).valid
        rep = verify_main2(A2, B2, sigma)
        assert rep.passed
        assert rep.kernel_alignment >= 1.0 - 1e-9
        assert rep.volume_alignment >= 1.0 - 1e-9

    @pytest.mark.parametrize("exponent", [-30, -3, 0, 7, 40])
    def test_shift_and_alignments_match_the_dense_forms(self, exponent):
        # good_position_shift adds lam on the diagonal, then t, in place: the two additions
        # of A + lam I + t J; each alignment divides by norms taken as np.linalg.norm does
        for pair in cycle_pair_corpus():
            A, B = (SymmetricMatrix(2.0 ** exponent * M.entries) for M in (pair["A"], pair["B"]))
            lam = max(lambda0_search(A), lambda0_search(B)) + 2.0 ** exponent
            shifts = []
            for M in (A, B):
                dense = M.entries + lam * np.eye(M.n) + t_of_lambda(M, lam) * np.ones((M.n, M.n))
                shifts.append(good_position_shift(M, lam))
                assert shifts[-1].entries.tobytes() == dense.tobytes()
            rep = verify_main2(*shifts, pair["sigma"])
            ka, kb = (good_position_report(S).kernel_vector for S in shifts)
            vol = volume_eigenvector(factor_presentation(shifts[0]))
            norm = np.linalg.norm
            assert rep.kernel_alignment == float(abs(ka @ kb) / (norm(ka) * norm(kb)))
            assert rep.volume_alignment == float(abs(ka @ vol) / (norm(ka) * norm(vol)))
            assert rep.passed

    def test_shift_with_a_diagonal_adds_lam_first(self, rng):
        # with nonzero diagonal entries (a + lam) + t and (a + t) + lam round apart
        for n in range(3, 9):
            w = rng.standard_normal((n, n)) * 2.0 ** rng.integers(-20, 20)
            M = SymmetricMatrix(w + w.T)
            lam = lambda0_search(M) * 1.5
            dense = M.entries + lam * np.eye(n) + t_of_lambda(M, lam) * np.ones((n, n))
            assert good_position_shift(M, lam).entries.tobytes() == dense.tobytes()

    def test_full_rank_rejected(self, c5_pair):
        A, _, _ = c5_pair
        full = SymmetricMatrix(A.entries + 3.0 * np.eye(5))
        with pytest.raises(BadPosition):
            verify_main2(full, full, identity_hypomorphism(5))


class TestTAgreement:
    def test_same_matrix_exact(self, c5_pair):
        A, _, _ = c5_pair
        lam = lambda0_search(A) + 0.5
        rep = verify_main1_t_agreement(A, A, identity_hypomorphism(5), lam)
        assert rep.passed and rep.abs_diff == 0.0

    def test_relabeled_c6(self, c6_pair):
        A, B, sigma = c6_pair
        lam = max(lambda0_search(A), lambda0_search(B)) + 1.0
        rep = verify_main1_t_agreement(A, B, sigma, lam)
        assert rep.passed
        assert rep.abs_diff <= 1e-10

    def test_lambda_below_threshold(self, c6_pair):
        A, B, sigma = c6_pair
        with pytest.raises(LambdaTooSmall):
            verify_main1_t_agreement(A, B, sigma, 0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_lambda_is_typed(self, lam, c6_pair):
        A, B, sigma = c6_pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero on the way to the error
            with pytest.raises(NotFinite):
                t_of_lambda(A, lam)
            with pytest.raises(NotFinite):
                verify_main1_t_agreement(A, B, sigma, lam)

    def test_non_hypomorphic_control_is_gated(self):
        # C6 and K33 are cospectral but their decks differ, so no certificate exists
        c6, k33 = cycle_adjacency(6), complete_bipartite_adjacency(3, 3)
        assert find_hypomorphism(c6, k33) is None
        with pytest.raises(NotHypomorphic):
            verify_main1_t_agreement(c6, k33, identity_hypomorphism(6), 10.0)


class TestMainTheorem:
    def test_self_pair(self, c5_pair):
        A, _, _ = c5_pair
        rep = verify_main_theorem(A, A, identity_hypomorphism(5))
        assert rep.passed

    def test_relabeled_c5(self, c5_pair):
        rep = verify_main_theorem(*c5_pair)
        assert rep.passed
        assert len(rep.samples) == 10
        assert rep.t_interval[0] < rep.t_interval[1]
        for s in rep.samples:
            assert rep.t_interval[0] < s.t < rep.t_interval[1]
            assert abs(s.lambda_n_a - s.lambda_n_b) <= 1e-9 * s.scale
            assert s.eigengap_a > 1e-8 * s.scale
            assert s.eigengap_b > 1e-8 * s.scale
            assert s.eigvec_alignment >= 1.0 - 1e-9

    def test_t_interval_never_collapses(self, monkeypatch):
        # |c|^2 = n for c = Q^T 1, so |dt/dlam| >= 1/n and t_hi - t_lo >= (3 lam0 + u) / n
        # for the pair's unit u, with equality on regular graphs
        nx = pytest.importorskip("networkx")
        pairs = [(A, A, identity_hypomorphism(A.n)) for A in (
            SymmetricMatrix(nx.to_numpy_array(g))
            for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6)]
        pairs += [(SymmetricMatrix(10.0 ** e * p["A"].entries),
                   SymmetricMatrix(10.0 ** e * p["B"].entries), p["sigma"])
                  for p in SWEEP_PAIRS.values() for e in range(-8, 14)]
        assert len(pairs) == 205 + 12 * 22
        monkeypatch.setattr(verifiers, "T_SAMPLES", 1)
        for A, B, sigma in pairs:
            rep = verify_main_theorem(A, B, sigma)
            t_lo, t_hi = rep.t_interval
            u = scale(A.entries, B.entries)
            assert (t_hi - t_lo) * A.n >= (3.0 * rep.lambda0 + u) * (1.0 - 1e-9)

    def test_gate(self, c5_pair):
        A, B, _ = c5_pair
        forged = identity_hypomorphism(5)
        assert not verify_hypomorphism(A, B, forged).valid
        with pytest.raises(NotHypomorphic):
            verify_main_theorem(A, B, forged)

    def test_lowest_eigenvalue_is_minus_lambda(self, c5_pair):
        # cross-module coherence: A + lam I + t(lam) J is singular PSD in good position
        A, _, _ = c5_pair
        lam = lambda0_search(A) + 0.7
        shifted = good_position_shift(A, lam)
        eigs = np.linalg.eigvalsh(shifted.entries)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        assert abs(eigs[0]) <= 1e-9 * scale
        assert good_position_report(shifted).is_good


@pytest.mark.parametrize("exponent", range(-8, 14))
def test_scale_sweep_c6_shuffle(c6_pair, exponent):
    # lambda0's margin and the main theorem's tolerances are relative to the scale
    A, B, sigma = c6_pair
    scale = 10.0 ** exponent
    A, B = SymmetricMatrix(scale * A.entries), SymmetricMatrix(scale * B.entries)
    lam0 = lambda0_search(A)
    assert Spectrum(A).certified(lam0)
    assert verify_main_theorem(A, B, sigma).passed


SWEEP_PAIRS = {pair["name"]: pair for pair in cycle_pair_corpus()}
# each verifier takes the scaled pair, its deck certificate and lam = 1.5 * lambda0
SWEEP_VERIFIERS = {
    "tutte": lambda A, B, sigma, lam: verify_tutte(A, B, sigma).passed,
    "eq1": lambda A, B, sigma, lam: verify_eq1(A, B, sigma).passed,
    "t_agreement": lambda A, B, sigma, lam: verify_main1_t_agreement(A, B, sigma, lam).passed,
    "main_theorem": lambda A, B, sigma, lam: verify_main_theorem(A, B, sigma).passed,
    "main2": lambda A, B, sigma, lam: verify_main2(
        good_position_shift(A, lam), good_position_shift(B, lam), sigma).passed,
    "lambda0": lambda A, B, sigma, lam: all(
        Spectrum(M).certified(lambda0_search(M)) for M in (A, B)),
}


def _sweep_cases():
    for name in SWEEP_PAIRS:
        for verifier in SWEEP_VERIFIERS:
            for exponent in range(-8, 14):
                yield pytest.param(name, verifier, exponent, id=f"{name}-{verifier}-{exponent}")


@pytest.mark.parametrize("name, verifier, exponent", _sweep_cases())
def test_scale_sweep_cycle_corpus(name, verifier, exponent):
    # every tolerance is relative, so a verdict holds at every scale of the pair
    pair = SWEEP_PAIRS[name]
    scale = 10.0 ** exponent
    A, B = SymmetricMatrix(scale * pair["A"].entries), SymmetricMatrix(scale * pair["B"].entries)
    lam = 1.5 * max(lambda0_search(A), lambda0_search(B))
    assert SWEEP_VERIFIERS[verifier](A, B, pair["sigma"], lam)


SCALING_EXPONENTS = (-60, -30, -13, -1, 1, 13, 30, 60)
# certified pairs, whose verdicts pass, and forged ones (the unit-weight signed cycles
# under identity sigmas), whose gate, search and forced verifiers fail
SCALING_PAIRS = {name: (p["A"], p["B"], p["sigma"]) for name, p in SWEEP_PAIRS.items()}
SCALING_PAIRS.update({f"signed-C{n}": (*signed_cycle_near_miss(np.ones(n), np.zeros(n)),
                                       identity_hypomorphism(n)) for n in (5, 6, 7)})


def _scaling_reports(A, B, sigma):
    """Every verdict on (A, B) under sigma, and the reports whose fields scale with A, B."""
    cert = verify_hypomorphism(A, B, sigma)
    found = find_hypomorphism(A, B)
    reports = {"tutte": verify_tutte(A, B, sigma, force=True),
               "main_theorem": verify_main_theorem(A, B, sigma, force=True)}
    if cert.valid:  # the remaining verifiers gate without force
        lam = 1.5 * max(lambda0_search(A), lambda0_search(B))
        reports["eq1"] = verify_eq1(A, B, sigma)
        reports["t_agreement"] = verify_main1_t_agreement(A, B, sigma, lam)
        reports["main2"] = verify_main2(good_position_shift(A, lam),
                                        good_position_shift(B, lam), sigma)
    verdicts = {key: rep.passed for key, rep in reports.items()}
    verdicts.update(gate=cert.valid, search=None if found is None else found.sigmas)
    return verdicts, cert.tol, reports


def assert_power_of_two_equivariant(A, B, sigma):
    """(2^j A, 2^j B) gets every verdict of (A, B); the gate's tol, lambda0 and the
    default grids scale by exactly 2^j, and the main theorem's t values (np.geomspace
    rounds through logarithms) by 2^j to within 1e-12 relative. The zero pair is its
    own scaled copy, with unit 1 at every j."""
    verdicts, tol, reports = _scaling_reports(A, B, sigma)
    zero = not (np.any(A.entries) or np.any(B.entries))
    for j in SCALING_EXPONENTS:
        A2, B2 = (SymmetricMatrix(np.ldexp(M.entries, j)) for M in (A, B))
        got_verdicts, got_tol, got = _scaling_reports(A2, B2, sigma)
        assert got_verdicts == verdicts, j
        k = 0 if zero else j  # the power of two every scaled field moves by
        assert got_tol == np.ldexp(tol, k), j
        assert lambda0_search(A2) == np.ldexp(lambda0_search(A), k), j
        assert lambda0_search(B2) == np.ldexp(lambda0_search(B), k), j
        for key in {"tutte", "eq1"} & got.keys():
            for grid in ("lambda_grid", "t_grid"):
                want = tuple(np.ldexp(getattr(reports[key], grid), k))
                assert getattr(got[key], grid) == want, (key, grid, j)
        main, main_base = got["main_theorem"], reports["main_theorem"]
        assert main.lambda0 == np.ldexp(main_base.lambda0, k), j
        np.testing.assert_allclose(main.t_values, np.ldexp(main_base.t_values, k),
                                   rtol=1e-12, atol=0.0)


class TestPowerOfTwoScaling:
    """Every verdict is a function of the pair at its unit scale: scaling by a power of
    two is exact (Higham 2002), and every tolerance and default grid reads the pair's
    unit, so |j| <= 60 changes nothing. (Much further out the determinant grids
    overflow for n >= 6, and the main2 shift reaches the subnormal range.)"""

    @pytest.mark.parametrize("name", SCALING_PAIRS)
    def test_cycle_corpus_and_signed_cycles(self, name):
        assert_power_of_two_equivariant(*SCALING_PAIRS[name])

    def test_atlas_sample(self):
        # every 7th atlas graph on 3-6 vertices under a seeded random relabelling; where
        # the search finds no sigma, identity sigmas forge one
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(20261020)
        graphs = [g for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6][::7]
        assert len(graphs) == 30
        forged = 0
        for g in graphs:
            A = SymmetricMatrix(nx.to_numpy_array(g))
            A, B, sigma = matrix_pair(A, Permutation(tuple(rng.permutation(A.n))))
            forged += sigma is None
            assert_power_of_two_equivariant(A, B, sigma or identity_hypomorphism(A.n))
        assert 0 < forged < len(graphs)


def _per_t_reference(A, B, samples):
    """The samples recomputed with one eigh of A + tJ and one of B + tJ per t; each
    sample's scale is its largest |eigenvalue|, floored at the pair's unit."""
    ones = np.ones((A.n, A.n))
    unit = scale(A.entries, B.entries)
    out = []
    for s in samples:
        wa, va = np.linalg.eigh(A.entries + s.t * ones)
        wb, vb = np.linalg.eigh(B.entries + s.t * ones)
        out.append(LowestEigenSample(
            t=s.t, lambda_n_a=float(wa[0]), lambda_n_b=float(wb[0]),
            eigengap_a=float(wa[1] - wa[0]), eigengap_b=float(wb[1] - wb[0]),
            eigvec_alignment=float(abs(va[:, 0] @ vb[:, 0])),
            scale=max(unit, float(np.abs(wa).max()), float(np.abs(wb).max()))))
    return tuple(out)


class TestStackedSamples:
    """The stacked eigh gives every sample field bit for bit as a per-t eigh does."""

    @pytest.mark.parametrize("name", SWEEP_PAIRS)
    def test_cycle_corpus(self, name):
        pair = SWEEP_PAIRS[name]
        rep = verify_main_theorem(pair["A"], pair["B"], pair["sigma"])
        assert len(rep.samples) == 10
        assert rep.samples == _per_t_reference(pair["A"], pair["B"], rep.samples)

    def test_forced_negative_control(self, c6_pair, monkeypatch):
        # B differs from A, so swapping the sides or the eigenpairs shows
        A, B, sigma = c6_pair
        bumped = B.entries.copy()
        bumped[0, 0] += 0.5
        B2 = SymmetricMatrix(bumped)
        monkeypatch.setattr(verifiers, "T_SAMPLES", 7)
        rep = verify_main_theorem(A, B2, sigma, force=True)
        assert len(rep.samples) == 7
        assert not rep.passed
        assert rep.samples == _per_t_reference(A, B2, rep.samples)

    def test_atlas(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        graphs = [SymmetricMatrix(nx.to_numpy_array(g))
                  for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6]
        assert len(graphs) == 205
        monkeypatch.setattr(verifiers, "T_SAMPLES", 3)
        for A in graphs:
            rep = verify_main_theorem(A, A, identity_hypomorphism(A.n))
            assert rep.samples == _per_t_reference(A, A, rep.samples)


@pytest.fixture(scope="module")
def corpus():
    return cycle_pair_corpus(ns=(5, 6, 7))


class TestCorpusWideProperties:
    def test_shuffle_pairs_are_nontrivial(self, corpus):
        shuffled = [p for p in corpus if p["name"].endswith("shuffle")]
        assert shuffled and all(
            not np.array_equal(p["A"].entries, p["B"].entries) for p in shuffled)

    def test_certificate_implies_tutte(self, corpus):
        for pair in corpus:
            assert verify_hypomorphism(pair["A"], pair["B"], pair["sigma"]).valid
            assert verify_tutte(pair["A"], pair["B"], pair["sigma"]).passed

    def test_determinant_bridge(self, corpus):
        for pair in corpus:
            ts = np.linspace(-4.0, 4.0, 9)
            da = shifted_det_grid(pair["A"], [0.0], ts)[0]
            db = shifted_det_grid(pair["B"], [0.0], ts)[0]
            assert np.all(np.abs(da - db) <= 1e-8 * np.maximum(1.0, np.abs(da)))


class TestKeptDefaultGrid:
    """With both grids defaulted, the reports equal those of the explicit default grids.
    Nothing is kept: every call computes its grid, verify_eq1 appends its lam = 0
    reference row, and verify_tutte reads only its own rows."""

    @staticmethod
    def fresh_pair(n):
        A, B, sigma = matrix_pair(cycle_adjacency(n), Permutation.swap(n, 1, 3))
        assert sigma is not None
        return A, B, sigma

    @staticmethod
    def default_grids(A, B) -> dict:
        """The default grids spelt out: each grid times the pair's unit scale(A, B)."""
        unit = scale(A.entries, B.entries)
        return {"lambda_grid": default_lambdas(A.n) * unit,
                "t_grid": tuple(np.asarray(DEFAULT_GRID) * unit)}

    @classmethod
    def eq1_reference(cls, A, B) -> GridReport:
        """verify_eq1's report rebuilt from fresh shifted_det_grid rows: the lam rows, then lam = 0."""
        lams, ts = cls.default_grids(A, B).values()
        da, db = (np.vstack([shifted_det_grid(M, lams, ts),
                             shifted_det_grid(M, [0.0], ts)]) for M in (A, B))
        diff = da - db
        resid = np.abs(diff[:-1] - diff[-1])
        peak = float(max(np.max(np.abs(da)), np.max(np.abs(db))))
        max_diff = float(np.max(resid))
        return GridReport(lambda_grid=tuple(lams), t_grid=ts, residuals=resid,
                          max_abs_diff=max_diff, scale=peak, tol=verifiers.TUTTE_TOL,
                          passed=max_diff <= verifiers.TUTTE_TOL * peak)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_reports_match_explicit_grids_byte_for_byte(self, n):
        A, B, sigma = self.fresh_pair(n)
        grids = {"lambda_grid": default_lambdas(n), "t_grid": DEFAULT_GRID}
        for verifier in (verify_tutte, verify_eq1, verify_tutte):
            kept = verifier(A, B, sigma)
            if verifier is verify_eq1:
                explicit = self.eq1_reference(A, B)
            else:
                explicit = verifier(SymmetricMatrix(A.entries.copy()),
                                    SymmetricMatrix(B.entries.copy()), sigma, **grids)
            assert kept.passed
            assert dumps(kept) == dumps(explicit), verifier.__name__

    @pytest.mark.parametrize("n", range(3, 12))
    def test_identity_pairs_match_explicit_grids(self, rng, n):
        w = rng.standard_normal((n, n))
        A, sigma = SymmetricMatrix(w + w.T), identity_hypomorphism(n)
        assert A.scale != 1.0  # the default grids are the unit grids scaled
        grids = self.default_grids(A, A)
        assert dumps(verify_tutte(A, A, sigma)) == dumps(verify_tutte(A, A, sigma, **grids))
        assert dumps(verify_eq1(A, A, sigma)) == dumps(self.eq1_reference(A, A))

    def test_determinants_computed(self, monkeypatch):
        # every call makes two LU stacks for the pair, whatever the t grid: tutte
        # factorises 2k matrices per side, eq1 2(k + 1) with its lam = 0 row, A's and
        # B's in one det call per stack
        counted = []
        det = np.linalg.det

        def counting(m):
            counted.append(int(np.prod(np.shape(m)[:-2])))
            return det(m)

        monkeypatch.setattr(np.linalg, "det", counting)
        rows = len(default_lambdas(9))
        A, B, sigma = self.fresh_pair(9)
        for _ in range(2):
            for verifier, k in ((verify_tutte, rows), (verify_eq1, rows + 1)):
                counted.clear()
                verifier(A, B, sigma)
                assert counted == [2 * k, 2 * k], verifier.__name__
        # -1 and 2 are eigenvalues of C9: at t = 0 alone every determinant is 0, and the
        # grid is rejected after the same two det calls
        for ts in ([0.0], np.linspace(-3.0, 3.0, 40)):
            counted.clear()
            with pytest.raises(NotFinite) if len(ts) == 1 else contextlib.nullcontext():
                verify_tutte(A, B, sigma, lambda_grid=[-1.0, 2.0], t_grid=ts)
            assert counted == [4, 4]

    def test_tutte_reads_only_its_own_rows(self, monkeypatch):
        # C9's ten-point lam grid holds no lam = 0: eq1 appends its reference row last
        A, B, sigma = self.fresh_pair(9)
        lams = default_lambdas(9)
        assert 0.0 not in lams
        before = dumps(verify_tutte(A, B, sigma))
        eq1 = verify_eq1(A, B, sigma)
        tutte = verify_tutte(A, B, sigma)
        assert dumps(tutte) == before
        assert tutte.residuals.shape == (10, 9) and eq1.residuals.shape == (10, 9)
        own = [shifted_det_grid(M, lams, DEFAULT_GRID) for M in (A, B)]
        zero = [shifted_det_grid(M, [0.0], DEFAULT_GRID) for M in (A, B)]
        assert tutte.scale == max(float(np.max(np.abs(g))) for g in own)
        assert eq1.scale == max(float(np.max(np.abs(g))) for g in own + zero)
        # a non-finite lam = 0 row fails eq1 alone; tutte's default and explicit grids hold none
        grid = matrixcore.shifted_det_grid

        def overflowing_zero_row(pair, lam_rows, ts):
            out = grid(pair, lam_rows, ts)
            if len(lam_rows) == lams.size + 1 and lam_rows[-1] == 0.0:
                out[:, -1] = np.inf
            return out

        monkeypatch.setattr(verifiers, "shifted_det_grid", overflowing_zero_row)
        with pytest.raises(NotFinite):
            verify_eq1(A, B, sigma)
        for grids in ({}, {"lambda_grid": lams, "t_grid": DEFAULT_GRID}):
            assert dumps(verify_tutte(A, B, sigma, **grids)) == before

    def test_overflowing_kept_grid_fails_every_call(self):
        A, B, sigma = matrix_pair(SymmetricMatrix(1e200 * cycle_adjacency(5).entries),
                                  Permutation.swap(5, 1, 3))
        assert sigma is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                for verifier in (verify_tutte, verify_eq1):
                    with pytest.raises(NotFinite):
                        verifier(A, B, sigma)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SWEEP = SCRIPTS / "run_theorem_sweep.py"
OUT_OF_RANGE_ORDERS = [["--n-min", "2"], ["--n-min", "3"], ["--n-min", "4"],
                       ["--n-max", str(SEARCH_CAP + 1)], ["--n-min", "7", "--n-max", "6"]]


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ORDERS)
def test_sweep_rejects_orders_outside_the_corpus_range(monkeypatch, capsys, argv):
    monkeypatch.setattr("sys.argv", [str(SWEEP)] + argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SWEEP), run_name="__main__")
    assert exc.value.code == 2
    assert f"need 5 <= --n-min <= --n-max <= {SEARCH_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ORDERS + [["--n-min", "8", "--n-max", "6"]])
def test_corpus_builder_rejects_orders_outside_the_corpus_range(monkeypatch, capsys, tmp_path,
                                                                argv):
    builder = SCRIPTS / "build_cycle_corpus.py"
    out = tmp_path / "corpus"
    monkeypatch.setattr("sys.argv", [str(builder), "--out", str(out)] + argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(builder), run_name="__main__")
    assert exc.value.code == 2
    assert f"need 5 <= --n-min <= --n-max <= {SEARCH_CAP}" in capsys.readouterr().err
    assert not out.exists()  # no header-only cycles.g6


def test_one_spectrum_per_matrix(monkeypatch):
    # scripts/run_theorem_sweep.py's calls on one pair: every lambda-dependent call on
    # a matrix object reads the spectrum and lambda0 kept on it
    built, probed = [], []
    build, probe = Spectrum.__init__, Spectrum.certified

    def counting_build(self, M):
        built.append(M)
        build(self, M)

    def counting_probe(self, lam):
        probed.append(self)
        return probe(self, lam)

    monkeypatch.setattr(Spectrum, "__init__", counting_build)
    monkeypatch.setattr(Spectrum, "certified", counting_probe)
    A, B, sigma = matrix_pair(cycle_adjacency(6), Permutation.swap(6, 1, 3))
    verify_tutte(A, B, sigma)
    verify_eq1(A, B, sigma)
    lam0 = max(lambda0_search(A), lambda0_search(B))
    verify_main1_t_agreement(A, B, sigma, lam0 + 1.0)
    verify_main_theorem(A, B, sigma)
    shift_a, shift_b = good_position_shift(A, lam0 + 1.0), good_position_shift(B, lam0 + 1.0)
    verify_main2(shift_a, shift_b, sigma)
    ids = [id(M) for M in built]
    assert len(ids) == len(set(ids))
    assert {id(A), id(B), id(shift_a), id(shift_b)} <= set(ids)
    # the probes of one search per side, and none after
    assert {id(spec) for spec in probed} == {id(A.spectrum), id(B.spectrum)}
    probes = len(probed)
    probed.clear()
    for M in (A, B):
        lambda0_search(SymmetricMatrix(M.entries.copy()))
    assert len(probed) == probes


def test_plain_arrays_give_the_same_reports(c6_pair):
    # the gate coerces both matrices, so every verifier reads a plain array pair
    # exactly as it reads the SymmetricMatrix pair
    A, B, sigma = c6_pair
    lam = max(lambda0_search(A), lambda0_search(B)) + 1.0
    shift_a, shift_b = good_position_shift(A, lam), good_position_shift(B, lam)
    cases = [(verify_tutte, A, B, ()), (verify_eq1, A, B, ()),
             (verify_main1_t_agreement, A, B, (lam,)), (verify_main_theorem, A, B, ()),
             (verify_main2, shift_a, shift_b, ())]
    for verifier, M, N, extra in cases:
        typed = verifier(M, N, sigma, *extra)
        plain = verifier(M.entries.copy(), N.entries.copy(), sigma, *extra)
        assert typed.passed
        assert dumps(plain) == dumps(typed), verifier.__name__
