import warnings

import numpy as np
import pytest

from reconlab import (
    BadPosition,
    DimensionMismatch,
    LambdaTooSmall,
    NotFinite,
    NotHypomorphic,
    SymmetricMatrix,
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
)
from reconlab.hypomorphism import cycle_adjacency, cycle_pair_corpus, matrix_pair
from reconlab.matrixcore import Permutation, Spectrum, scale, shifted_det_grid
from reconlab.serialize import dumps
from reconlab import verifiers
from reconlab.verifiers import DEFAULT_GRID, LowestEigenSample

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
            with pytest.raises(NotFinite):
                verify_eq1(*c5_pair, **grids)

    @pytest.mark.parametrize("grids", [{"lambda_grid": []}, {"t_grid": ()}],
                             ids=["empty-lambda", "empty-t"])
    def test_empty_grid_rejected(self, c5_pair, grids):
        with pytest.raises(DimensionMismatch):
            verify_tutte(*c5_pair, **grids)
        with pytest.raises(DimensionMismatch):
            verify_eq1(*c5_pair, **grids)

    def test_batched_grid_matches_per_point_loop(self, c6_pair):
        # the batched determinant grid against np.linalg.det of each A - lam I + t J
        A, B, sigma = c6_pair
        bumped = B.entries.copy()
        bumped[2, 4] = bumped[4, 2] = 0.3
        B2 = SymmetricMatrix(bumped)
        lams, ts = np.linspace(-3.0, 5.0, 11), [-2.0, 0.0, 1.5, 3.0]
        tutte = verify_tutte(A, B2, sigma, lambda_grid=lams, t_grid=ts, force=True)
        eq1 = verify_eq1(A, B2, sigma, lambda_grid=lams, t_grid=ts, force=True)
        n, j_mat = A.n, np.ones((A.n, A.n))

        def det(M, lam, t):
            return np.linalg.det(M.entries - lam * np.eye(n) + t * j_mat)

        for j, t in enumerate(ts):
            f0 = det(A, 0.0, t) - det(B2, 0.0, t)
            for i, lam in enumerate(lams):
                f = det(A, lam, t) - det(B2, lam, t)
                assert tutte.residuals[i, j] == abs(f)
                assert eq1.residuals[i, j] == abs(f - f0)
        assert not tutte.passed and not eq1.passed


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
        # see no difference; the default grid of 12 points for n = 11 does
        A = SymmetricMatrix(np.diag(DEFAULT_GRID + (5.0, 6.0)))
        B = SymmetricMatrix(np.diag(DEFAULT_GRID + (5.0, 7.0)))
        nine = verify_tutte(A, B, identity_hypomorphism(11), lambda_grid=DEFAULT_GRID,
                            t_grid=[0.0], force=True)
        assert nine.passed and nine.max_abs_diff == 0.0
        rep = verify_tutte(A, B, identity_hypomorphism(11), t_grid=[0.0], force=True)
        assert len(rep.lambda_grid) == 12
        assert not rep.passed and rep.max_abs_diff > 1e3


class TestGridScaleDefects:
    """Grid verdicts judged against one global determinant scale; the exact
    coefficient identity of ROADMAP item 3 cures both."""

    @pytest.mark.xfail(strict=True, reason="t = 1e200 swamps the matrix: both dets are 0.0")
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
    """The signed C5 near miss at scale 1e-13 passes every check. scale() floors
    at 1, so the gate's threshold EXACT_TOL * scale is an absolute 1e-12 there and
    the residual 2e-13 passes it; the default lambda grid is fixed on [-4, 4],
    where (-lambda)^5 swamps the 4e-65 determinant gap. At unit scale the same
    pair fails both (TestSignedCycleNearMisses). Pinned until the tolerance
    policy is made relative below unit scale."""

    @staticmethod
    def pair():
        return signed_cycle_near_miss(np.full(5, 1e-13), np.zeros(5))

    @pytest.mark.xfail(strict=True, reason="below unit scale the gate's threshold is absolute")
    def test_gate_rejects(self):
        assert not verify_hypomorphism(*self.pair(), identity_hypomorphism(5)).valid

    @pytest.mark.xfail(strict=True, reason="the fixed lambda grid swamps a 4e-65 determinant gap")
    def test_forced_tutte_fails(self):
        A, B = self.pair()
        assert not verify_tutte(A, B, identity_hypomorphism(5), force=True).passed


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

    def test_relabeled_c5_seven_grid(self, c5_pair):
        grid = np.linspace(-3.0, 3.0, 7)
        rep = verify_eq1(*c5_pair, lambda_grid=grid, t_grid=grid)
        assert rep.passed
        assert rep.max_abs_diff <= 1e-8 * max(1.0, rep.scale)

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
        # |c|^2 = n for c = Q^T 1, so |dt/dlam| >= 1/n and t_hi - t_lo >= (3 lam0 + 1) / n,
        # with equality on regular graphs
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
            assert (t_hi - t_lo) * A.n >= (3.0 * rep.lambda0 + 1.0) * (1.0 - 1e-9)

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
# The 9-point det grid loses the singular C8 at 1e13 (relative residual 1.49e-8
# against TUTTE_TOL = 1e-8); no tolerance cures it, exact polynomials would.
SWEEP_XFAIL = {("C8-shuffle", "tutte", 13)}


def _sweep_cases():
    for name in SWEEP_PAIRS:
        for verifier in SWEEP_VERIFIERS:
            for exponent in range(-8, 14):
                marks = ()
                if (name, verifier, exponent) in SWEEP_XFAIL:
                    marks = pytest.mark.xfail(strict=True, reason="float det grid on singular C8")
                yield pytest.param(name, verifier, exponent, marks=marks,
                                   id=f"{name}-{verifier}-{exponent}")


@pytest.mark.parametrize("name, verifier, exponent", _sweep_cases())
def test_scale_sweep_cycle_corpus(name, verifier, exponent):
    # every tolerance is relative, so a verdict holds at every scale of the pair
    pair = SWEEP_PAIRS[name]
    scale = 10.0 ** exponent
    A, B = SymmetricMatrix(scale * pair["A"].entries), SymmetricMatrix(scale * pair["B"].entries)
    lam = 1.5 * max(lambda0_search(A), lambda0_search(B))
    assert SWEEP_VERIFIERS[verifier](A, B, pair["sigma"], lam)


def _per_t_reference(A, B, samples):
    """The samples recomputed with one eigh of A + tJ and one of B + tJ per t."""
    ones = np.ones((A.n, A.n))
    out = []
    for s in samples:
        wa, va = np.linalg.eigh(A.entries + s.t * ones)
        wb, vb = np.linalg.eigh(B.entries + s.t * ones)
        out.append(LowestEigenSample(
            t=s.t, lambda_n_a=float(wa[0]), lambda_n_b=float(wb[0]),
            eigengap_a=float(wa[1] - wa[0]), eigengap_b=float(wb[1] - wb[0]),
            eigvec_alignment=float(abs(va[:, 0] @ vb[:, 0])), scale=scale(wa, wb)))
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
