import argparse
import hashlib
import json

import numpy as np
import pytest

from reconlab import __version__, cli, errors, geometry_suite, verifiers
from reconlab.cli import build_parser, main
from reconlab.graph6 import graph6_encode
from reconlab.hypomorphism import cycle_adjacency, matrix_pair
from reconlab.matrixcore import Permutation, SymmetricMatrix
from reconlab.serialize import dumps, matrix_to_dict, pair_to_dict
from reconlab.verifiers import DEFAULT_GRID

from conftest import CARD_SCALE_RAW, identity_hypomorphism, path_adjacency


@pytest.fixture
def octant_path(tmp_path):
    path = tmp_path / "octant.json"
    path.write_text('{"apex": [0.0, 0.0, 0.0], "generators": [[1.0, 0.0, 0.0], '
                    '[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "ambient_dim": null}')
    return str(path)


@pytest.fixture
def pair_path(tmp_path):
    A, B, sigma = matrix_pair(cycle_adjacency(6), Permutation.swap(6, 1, 3))
    path = tmp_path / "pair.json"
    path.write_text(dumps(pair_to_dict(A, B, sigma)))
    return str(path)


@pytest.fixture
def signed_c5_path(tmp_path):
    """C5 against C5 with edge (0, 1) set to -1 under identity sigmas: a forged pair."""
    A = cycle_adjacency(5)
    signed = A.entries.copy()
    signed[0, 1] = signed[1, 0] = -1.0
    path = tmp_path / "signed-c5.json"
    path.write_text(dumps(pair_to_dict(A, SymmetricMatrix(signed), identity_hypomorphism(5))))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngle:
    def test_octant_exact(self, octant_path, capsys):
        code, out, _ = run_cli(capsys, "angle", "--cone", octant_path,
                               "--samples", "1000000", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["report"]["fraction"] == 0.125
        assert report["report"]["method"] == "Exact3D"
        assert report["seed"] == 7 and report["samples"] == 1000000

    def test_monte_carlo_flag(self, octant_path, capsys):
        code, out, _ = run_cli(capsys, "angle", "--cone", octant_path,
                               "--samples", "50000", "--seed", "7", "--monte-carlo")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["method"] == "MonteCarlo"
        assert abs(report["fraction"] - 0.125) <= 4.0 * report["std_error"]

    def test_deterministic_byte_identical(self, octant_path, capsys):
        args = ("angle", "--cone", octant_path, "--seed", "3", "--deterministic")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_fraction_does_not_move_with_generator_scale(self, tmp_path, capsys):
        fractions = []
        for factor in (1.0, 2.0 ** 520):
            gens = factor * (np.eye(3) + 0.3 * np.triu(np.ones((3, 3)), 1))
            path = tmp_path / "skewed.json"
            path.write_text(json.dumps({"apex": [0.0] * 3, "generators": gens.tolist()}))
            code, out, _ = run_cli(capsys, "angle", "--cone", str(path), "--deterministic")
            assert code == 0
            fractions.append(json.loads(out)["report"]["fraction"])
        assert fractions[0] == fractions[1] == pytest.approx(0.06892, abs=1e-5)

    def test_csv_format(self, octant_path, capsys):
        code, out, _ = run_cli(capsys, "angle", "--cone", octant_path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "fraction,abs_norm,std_error,samples,method"

    def test_nan_cone_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan_cone.json"
        path.write_text('{"apex": [0.0, 0.0, 0.0], "generators": [[NaN, 0.0, 0.0], '
                        '[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "ambient_dim": null}')
        code, out, err = run_cli(capsys, "angle", "--cone", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "NotFinite"

    def test_three_dimensional_generators_are_input_error(self, tmp_path, capsys):
        path = tmp_path / "cube_cone.json"
        path.write_text('{"apex": [0], "generators": [[[1]]]}')
        code, out, err = run_cli(capsys, "angle", "--cone", str(path), "--samples", "1000")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "DimensionMismatch"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "angle", "--cone", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in json.loads(err)


class TestDeck:
    def test_deck_of_identity(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(dumps(matrix_to_dict(SymmetricMatrix(np.eye(3)))))
        code, out, _ = run_cli(capsys, "deck", "--matrix", str(path))
        assert code == 0
        envelope = json.loads(out)
        cards = envelope["report"]["deck"]
        assert len(cards) == 3 and cards[0]["n"] == 2
        assert "seed" not in envelope and "samples" not in envelope

    def test_subtolerance_asymmetry_is_accepted(self, tmp_path, capsys):
        # each card used to be checked at its own smaller scale and exit 2
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 3, "entries": CARD_SCALE_RAW.tolist()}))
        code, out, _ = run_cli(capsys, "deck", "--matrix", str(path))
        assert code == 0
        assert len(json.loads(out)["report"]["deck"]) == 3

    def test_nan_entry_is_input_error(self, tmp_path, capsys):
        # json.load accepts the NaN literal, so the matrix type must reject it
        path = tmp_path / "nan.json"
        path.write_text('{"n": 3, "entries": [[NaN, 1, 0], [1, 0, 1], [0, 1, 0]]}')
        code, out, err = run_cli(capsys, "deck", "--matrix", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "NotFinite"


class TestGenPair:
    def test_writes_bare_pair(self, tmp_path, capsys):
        g6 = tmp_path / "c.g6"
        g6.write_text("# comment\n" + graph6_encode(cycle_adjacency(5).entries) + "\n")
        out_path = tmp_path / "pair.json"
        code, _, _ = run_cli(capsys, "gen-pair", "--graph6", str(g6),
                             "--tau", "swap:1,3", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert set(data) == {"A", "B", "sigma"}
        assert data["sigma"] is not None

    def test_uncertified_pair_exits_one(self, tmp_path, capsys):
        g6 = tmp_path / "p.g6"
        g6.write_text(graph6_encode(path_adjacency(3).entries) + "\n")
        code, out, _ = run_cli(capsys, "gen-pair", "--graph6", str(g6), "--tau", "swap:0,1")
        assert code == 1
        assert json.loads(out)["sigma"] is None


class TestVerifyCommands:
    def test_tutte_pass(self, pair_path, capsys):
        code, out, _ = run_cli(capsys, "verify-tutte", "--pair", pair_path,
                               "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["report"]["max_abs_diff"] <= 1e-8 * max(1.0, report["report"]["scale"])
        assert "seed" not in report and "samples" not in report

    def test_tutte_custom_grid(self, pair_path, capsys):
        # values starting with '-' need the '=' form, per argparse convention
        code, out, _ = run_cli(capsys, "verify-tutte", "--pair", pair_path,
                               "--grid-lambda=-1:1:3", "--grid-t", "0,2")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["lambda_grid"] == [-1.0, 0.0, 1.0] and rep["t_grid"] == [0.0, 2.0]

    def test_forged_pair_fails_gate_then_force(self, tmp_path, capsys):
        A, B, sigma = matrix_pair(cycle_adjacency(6), Permutation.swap(6, 1, 3))
        bumped = B.entries.copy()
        bumped[0, 0] += 1e-3
        forged = tmp_path / "forged.json"
        forged.write_text(dumps(pair_to_dict(A, SymmetricMatrix(bumped), sigma)))
        code, _, err = run_cli(capsys, "verify-tutte", "--pair", str(forged))
        assert code == 1
        assert json.loads(err)["error"] == "NotHypomorphic"
        code, out, _ = run_cli(capsys, "verify-tutte", "--pair", str(forged), "--force")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_main_theorem_pass(self, pair_path, capsys, monkeypatch):
        monkeypatch.setattr(verifiers, "T_SAMPLES", 6)  # read at call time
        code, out, _ = run_cli(capsys, "verify-main", "--pair", pair_path, "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and len(report["report"]["samples"]) == 6
        assert "seed" not in report and "samples" not in report

    def test_main_csv(self, pair_path, capsys):
        code, out, _ = run_cli(capsys, "verify-main", "--pair", pair_path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("t,lambda_n_a")

    def test_tutte_csv(self, pair_path, capsys):
        code, out, _ = run_cli(capsys, "verify-tutte", "--pair", pair_path,
                               "--grid-lambda=-1:1:3", "--grid-t", "0,2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda,t,abs_residual" and len(lines) == 1 + 3 * 2
        assert lines[1].startswith("-1.0,0.0,")

    def test_large_scale_pair_keeps_exit_contract(self, tmp_path, capsys):
        # lambda0 grows with the matrix scale; an absolute positivity margin
        # could never be met at 1e13 and the search used to escape main()
        A, B, sigma = matrix_pair(cycle_adjacency(5), Permutation.swap(5, 1, 3))
        path = tmp_path / "big.json"
        path.write_text(dumps(pair_to_dict(SymmetricMatrix(1e13 * A.entries),
                                           SymmetricMatrix(1e13 * B.entries), sigma)))
        code, out, _ = run_cli(capsys, "verify-main", "--pair", str(path), "--deterministic")
        assert code in (0, 1)
        assert "passed" in json.loads(out)


class TestVerifyGeometry:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify-geometry", "--count", "3", "--seed", "9",
                               "--samples", "5000")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["report"]["tallies"]["lemma1_equivalence"]["failed"] == 0
        assert len(report["report"]["fractions"]) == 9 * 3  # nine estimates per instance

    def test_zero_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(geometry_suite, "RESID_TOL", 0.0)
        code, out, _ = run_cli(capsys, "verify-geometry", "--count", "2", "--seed", "9",
                               "--samples", "5000")
        assert code == 1
        envelope = json.loads(out)
        assert envelope["passed"] is False and envelope["tolerances"] == {"resid": 0.0}

    def test_reports_the_samples_it_ran(self, capsys):
        code, out, _ = run_cli(capsys, "verify-geometry", "--count", "1", "--seed", "9",
                               "--samples", "60000")
        assert code == 0
        assert json.loads(out)["samples"] == 50_000

    # the README example: one d = 2 cone (seed 24303) lies 4.38 standard errors
    # from its closed form, as a 32-shift spread (t with 31 degrees of freedom)
    # does more often than SIGMAS = 4 allows for a Gaussian
    @pytest.mark.xfail(strict=True, reason="exact_vs_monte_carlo: 49 passed, 1 failed")
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-geometry", "--deterministic")
        assert json.loads(out)["report"]["tallies"]["exact_vs_monte_carlo"]["failed"] == 0
        assert code == 0

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify-geometry", "--count", "1", "--seed", "9",
                               "--samples", "5000", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "invariant,passed,failed,flagged"
        assert any(line.startswith("lemma1_equivalence,") for line in lines[1:])


class TestInputHashes:
    """An envelope's `inputs` entry is the sha256 of the input file's bytes."""

    @pytest.mark.parametrize("command, flag, key", [
        ("deck", "--matrix", "matrix"),
        ("angle", "--cone", "cone"),
        ("verify-tutte", "--pair", "pair"),
        ("verify-main", "--pair", "pair"),
    ], ids=["deck", "angle", "verify-tutte", "verify-main"])
    def test_sha256_of_the_file(self, command, flag, key, octant_path, pair_path, tmp_path,
                                capsys):
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text(dumps(matrix_to_dict(cycle_adjacency(5))))
        path = {"--matrix": str(matrix_path), "--cone": octant_path, "--pair": pair_path}[flag]

        def reported():
            code, out, _ = run_cli(capsys, command, flag, path, "--deterministic")
            assert code == 0
            with open(path, "rb") as fh:
                return json.loads(out)["inputs"][key], hashlib.sha256(fh.read()).hexdigest()

        first, expected = reported()
        assert first == expected
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\t ")  # whitespace only: the parsed input is unchanged
        second, expected = reported()
        assert second == expected and second != first


class TestIngest:
    def test_valid_records(self, tmp_path, capsys):
        g6 = tmp_path / "g.g6"
        g6.write_text("# two graphs\nBw\nD?{\n")
        out_dir = tmp_path / "mats"
        code, out, _ = run_cli(capsys, "ingest", "--graph6", str(g6),
                               "--out", str(out_dir))
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 2
        first = json.loads((out_dir / "matrix_0000.json").read_text())
        assert first["n"] == 3

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        g6 = tmp_path / "g.g6"
        g6.write_text("Bw\nB&\n")
        code, _, err = run_cli(capsys, "ingest", "--graph6", str(g6))
        assert code == 2
        assert json.loads(err)["line"] == 2

    def test_stdout_stream(self, tmp_path, capsys):
        g6 = tmp_path / "g.g6"
        g6.write_text("Bw\n")
        code, out, _ = run_cli(capsys, "ingest", "--graph6", str(g6))
        assert code == 0
        assert json.loads(out.strip())["n"] == 3


class TestUsageContract:
    @pytest.mark.parametrize("argv", [
        ["angle", "--cone", "x.json", "--bogus"],
        ["deck", "--matrix", "m.json", "--format", "csv"],
        ["angle", "--cone", "x.json", "--force"],
        ["ingest", "--graph6", "g.g6", "--seed", "3"],
        ["deck", "--matrix", "m.json", "--seed", "3"],
        ["verify-main", "--pair", "p.json", "--samples", "5"],
        ["verify-geometry", "--count", "1", "--tol-eig", "1e300"],
        ["verify-main", "--pair", "p.json", "--t-samples", "1"],
    ], ids=["bogus", "deck-format", "angle-force", "ingest-seed", "deck-seed",
            "verify-main-samples", "geometry-tol-eig", "verify-main-t-samples"])
    def test_unknown_flag_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    @pytest.mark.parametrize("command", ["verify-tutte", "verify-main"])
    def test_forced_forged_pair_fails(self, command, signed_c5_path, capsys):
        code, out, _ = run_cli(capsys, command, "--pair", signed_c5_path, "--force",
                               "--deterministic")
        assert code == 1
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("argv", [
        ["verify-tutte", "--tol-tutte", "1e300"],
        ["verify-main", "--tol-eig", "1e300", "--tol-align", "5"],
        ["verify-main", "--tol-gap", "0"],
    ], ids=["tol-tutte", "tol-eig-align", "tol-gap"])
    def test_threshold_flags_are_usage_errors(self, argv, signed_c5_path, capsys):
        # a threshold flag could pass the forged pair; the thresholds are constants
        with pytest.raises(SystemExit) as err:
            main([*argv[:1], "--pair", signed_c5_path, "--force", *argv[1:]])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["error"] == "usage"

    def test_zero_samples_rejected(self, octant_path, capsys):
        code, _, err = run_cli(capsys, "angle", "--cone", octant_path, "--samples", "0")
        assert code == 2
        assert "samples" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [
        ["angle", "--cone", "OCTANT", "--seed", "-1"],
        ["angle", "--cone", "OCTANT", "--seed", "-1", "--monte-carlo"],
        ["verify-geometry", "--seed", "-1"],
    ], ids=["angle", "angle-monte-carlo", "verify-geometry"])
    def test_negative_seed_rejected(self, argv, octant_path, capsys):
        # a usage error naming the flag, not the library's exit-1 precondition
        code, out, err = run_cli(capsys, *[octant_path if a == "OCTANT" else a for a in argv])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "--seed must be >= 0"}

    @pytest.mark.parametrize("argv, error", [
        (["verify-tutte", "--grid-lambda=nan,1"], "NotFinite"),
        (["verify-tutte", "--grid-t=1e400"], "NotFinite"),
        (["verify-tutte", "--grid-lambda=1:2:0"], "DimensionMismatch"),
        (["verify-tutte", "--grid-lambda=1e70,1"], "NotFinite"),
    ], ids=["nan-grid", "overflowing-grid", "empty-grid", "overflowing-det"])
    def test_vacuous_or_non_finite_verify_input(self, argv, error, pair_path, capsys):
        code, out, err = run_cli(capsys, *argv[:1], "--pair", pair_path, *argv[1:])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error

    def test_zero_count_geometry_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify-geometry", "--count", "0")
        assert code == 2 and out == ""
        assert "count" in json.loads(err)["message"]

    @pytest.mark.parametrize("command, flag, text", [
        ("verify-tutte", "--pair", "[1, 2]"),
        ("verify-main", "--pair", "[1, 2]"),
        ("verify-tutte", "--pair", '{"A": {"n": 3, "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, '
                                   '"B": {"n": 3, "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, '
                                   '"sigma": 5}'),
        ("deck", "--matrix", '{"n": 1e400, "entries": [[1.0]]}'),
        ("angle", "--cone", '{"apex": [0.0, 0.0], "generators": [[1.0, 0.0], [0.0, 1.0]], '
                            '"ambient_dim": 1e400}'),
    ], ids=["tutte-list", "main-list", "sigma-int", "deck-n-overflow", "angle-dim-overflow"])
    def test_malformed_json_is_parse_error(self, command, flag, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("index", ["-1", "-5", "1"])
    def test_record_index_out_of_range(self, index, tmp_path, capsys):
        g6 = tmp_path / "c.g6"
        g6.write_text(graph6_encode(cycle_adjacency(5).entries) + "\n")
        code, out, err = run_cli(capsys, "gen-pair", "--graph6", str(g6), f"--index={index}")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_unreadable_pair_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "verify-tutte", "--pair", str(bad))
        assert code == 2


RECON_ERRORS = [cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.ReconError)]


class TestExitStatus:
    """The exit status follows from the error type: CheckFailed exits 1, the rest 2."""

    def test_check_failures(self):
        failing = {cls.__name__ for cls in RECON_ERRORS
                   if issubclass(cls, errors.CheckFailed) and cls is not errors.CheckFailed}
        assert failing == {"NotHypomorphic", "BadPosition", "PreconditionViolated", "NotNested",
                           "LambdaTooSmall", "NotCertified", "NotPositiveDefinite",
                           "NotPositiveSemidefinite", "ConsistencyError"}

    @pytest.mark.parametrize("exc_type", RECON_ERRORS + [OSError, ValueError, KeyError],
                             ids=lambda cls: cls.__name__)
    def test_status_from_type(self, exc_type, monkeypatch, capsys):
        exc = exc_type("boom", 0) if exc_type is errors.ParseError else exc_type("boom")

        def raise_it(**kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_geometry_suite", raise_it)
        code, out, err = run_cli(capsys, "verify-geometry", "--count", "1")
        assert code == (1 if issubclass(exc_type, errors.CheckFailed) else 2)
        assert out == "" and json.loads(err)["error"] == exc_type.__name__


class TestParserReuse:
    """main() shares one parser per process; no call may leak into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_same_argv_twice(self, pair_path, capsys):
        argv = ("verify-tutte", "--pair", pair_path, "--grid-t=0,2", "--deterministic")
        assert run_cli(capsys, *argv)[:2] == run_cli(capsys, *argv)[:2]

    def test_no_default_leaks_between_calls(self, pair_path, capsys):
        code, out, _ = run_cli(capsys, "verify-tutte", "--pair", pair_path,
                               "--grid-lambda=-3:5:11", "--deterministic")
        assert code == 0 and len(json.loads(out)["report"]["lambda_grid"]) == 11
        code, out, _ = run_cli(capsys, "verify-tutte", "--pair", pair_path, "--deterministic")
        assert code == 0
        assert json.loads(out)["report"]["lambda_grid"] == list(DEFAULT_GRID)

    def test_usage_error_between_good_calls(self, octant_path, capsys):
        argv = ("angle", "--cone", octant_path, "--deterministic")
        first = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as err:
            main(["angle", "--cone", octant_path, "--bogus"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["error"] == "usage"
        assert run_cli(capsys, *argv) == first and first[0] == 0

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["--version"])
            assert err.value.code == 0
            assert capsys.readouterr().out == f"reconlab {__version__}\n"


class TestFlagSets:
    """Every flag each subcommand takes; a new option is an explicit edit here."""

    COMMON = {"--out", "--deterministic"}
    EXPECTED = {
        "angle": COMMON | {"--seed", "--samples", "--format", "--cone", "--monte-carlo"},
        "deck": COMMON | {"--matrix"},
        "gen-pair": COMMON | {"--graph6", "--index", "--tau"},
        "verify-tutte": COMMON | {"--format", "--force", "--pair", "--grid-lambda", "--grid-t"},
        "verify-main": COMMON | {"--format", "--force", "--pair"},
        "verify-geometry": COMMON | {"--seed", "--samples", "--format", "--count"},
        "ingest": COMMON | {"--graph6"},
    }

    def test_each_subcommand_takes_exactly_its_flags(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                 for name, p in sub.choices.items()}
        assert flags == self.EXPECTED
