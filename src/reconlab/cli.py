"""Command-line front end.

Reports are the only output channel: JSON (default) or CSV to stdout or an
--out path. Exit codes: 0 all checks passed, 1 a failed verdict or any
`CheckFailed` (a mathematical check failed or was inconclusive), 2 malformed
input, usage or any other error. Usage errors emit a machine-readable JSON
object on stderr. An envelope's `inputs` holds the sha256 of each input
file's bytes, as `sha256sum` prints it.

`main()` builds the parser once per process and reuses it on every call.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .errors import CheckFailed, NotHypomorphic, ReconError
from .geometry_suite import DEFAULT_COUNT, run_geometry_suite
from .graph6 import graph6_decode, read_graph6_lines
from .hypomorphism import gen_pair
from .matrixcore import Permutation, deck
from .serialize import (
    cone_from_dict,
    dumps,
    matrix_from_dict,
    matrix_to_dict,
    pair_from_dict,
    pair_to_dict,
    report_to_csv,
    report_to_dict,
)
from .solidangle import DEFAULT_SAMPLES, DEFAULT_SEED, angle_fraction
from .verifiers import verify_main_theorem, verify_tutte

GEOMETRY_MAX_SAMPLES = 50_000  # Monte Carlo samples per geometry-suite estimate


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable usage errors, still exit 2
        sys.stderr.write(dumps({"error": "usage", "message": message}) + "\n")
        raise SystemExit(2)


def _parse_grid(spec: str) -> tuple:
    """Grid spec: 'lo:hi:count' for a uniform grid, or comma-separated values."""
    if ":" in spec:
        lo, hi, count = spec.split(":")
        return tuple(np.linspace(float(lo), float(hi), int(count)))
    return tuple(float(v) for v in spec.split(","))


def _parse_tau(spec: str, n: int) -> Permutation:
    if spec in (None, "rot", "rotation"):
        return Permutation.rotation(n)
    if spec.startswith("rot:"):
        return Permutation.rotation(n, int(spec.split(":", 1)[1]))
    if spec in ("ref", "reflection"):
        return Permutation.reflection(n)
    if spec in ("id", "identity"):
        return Permutation.identity(n)
    if spec.startswith("swap:"):
        i, j = (int(v) for v in spec.split(":", 1)[1].split(","))
        return Permutation.swap(n, i, j)
    return Permutation(tuple(int(v) for v in spec.split(",")))


def _read_json(path: str) -> tuple:
    """The parsed file and the sha256 of its bytes, as `sha256sum` prints it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


def _emit(args: argparse.Namespace, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args: argparse.Namespace, report, passed: bool, inputs: dict,
            tolerances: dict, csv_kind: Optional[str] = None,
            samples: Optional[int] = None) -> int:
    """Write the report envelope (or its CSV flattening); returns the exit code.

    `report` is a report object or a dict; `dumps` converts it while writing.
    """
    if csv_kind is not None and args.format == "csv":
        text = report_to_csv(csv_kind, report_to_dict(report))
    else:
        out = {"command": args.command, "version": __version__}
        if "samples" in args:  # only the sampled commands take --seed/--samples
            out["seed"] = args.seed
            out["samples"] = args.samples if samples is None else samples
        out.update(inputs=inputs, tolerances=tolerances, passed=passed, report=report)
        if not args.deterministic:
            out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        text = dumps(out) + "\n"
    _emit(args, text)
    return 0 if passed else 1


def _run_angle(args: argparse.Namespace) -> int:
    data, digest = _read_json(args.cone)
    cone = cone_from_dict(data)
    est = angle_fraction(cone, args.samples, args.seed, force_monte_carlo=args.monte_carlo)
    report = {**report_to_dict(est), "seed": args.seed}
    return _report(args, report, True, {"cone": digest}, {}, "angle")


def _run_deck(args: argparse.Namespace) -> int:
    data, digest = _read_json(args.matrix)
    cards = [matrix_to_dict(card) for card in deck(matrix_from_dict(data))]
    return _report(args, {"deck": cards}, True, {"matrix": digest}, {})


def _read_records(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return read_graph6_lines(fh.read())


def _run_gen_pair(args: argparse.Namespace) -> int:
    records = _read_records(args.graph6)
    if not 0 <= args.index < len(records):
        raise ValueError(f"record index {args.index} out of range ({len(records)} records)")
    _, text_record = records[args.index]
    graph = graph6_decode(text_record)
    tau = _parse_tau(args.tau, graph.n)
    A, B, sigma = gen_pair(graph, tau)
    # pair files are bare wire-format JSON so the verify commands can ingest them
    _emit(args, dumps(pair_to_dict(A, B, sigma)) + "\n")
    return 0 if sigma is not None else 1


def _read_certified_pair(path: str):
    data, digest = _read_json(path)
    A, B, sigma = pair_from_dict(data)
    if sigma is None:
        raise NotHypomorphic("pair file carries no certificate (sigma is null)")
    return digest, A, B, sigma


def _run_verify_tutte(args: argparse.Namespace) -> int:
    lambda_grid = _parse_grid(args.grid_lambda) if args.grid_lambda else None
    t_grid = _parse_grid(args.grid_t) if args.grid_t else None
    digest, A, B, sigma = _read_certified_pair(args.pair)
    report = verify_tutte(A, B, sigma, lambda_grid=lambda_grid, t_grid=t_grid, force=args.force)
    return _report(args, report, report.passed,
                   {"pair": digest}, {"tutte": report.tol}, "grid")


def _run_verify_main(args: argparse.Namespace) -> int:
    digest, A, B, sigma = _read_certified_pair(args.pair)
    report = verify_main_theorem(A, B, sigma, force=args.force)
    tolerances = {"eig": report.eig_tol, "gap": report.gap_tol, "align": report.align_tol}
    return _report(args, report, report.passed,
                   {"pair": digest}, tolerances, "main")


def _run_verify_geometry(args: argparse.Namespace) -> int:
    mc_samples = min(args.samples, GEOMETRY_MAX_SAMPLES)
    report = run_geometry_suite(seed=args.seed, count=args.count, mc_samples=mc_samples)
    return _report(args, report, report.passed, {},
                   {"resid": report.resid_tol}, "suite", samples=mc_samples)


def _run_ingest(args: argparse.Namespace) -> int:
    records = _read_records(args.graph6)
    out_dir = args.out
    emitted = []
    for ordinal, (lineno, text_record) in enumerate(records):
        try:
            graph = graph6_decode(text_record)
        except ReconError as exc:
            sys.stderr.write(dumps({"error": "parse", "line": lineno,
                                    "message": str(exc)}) + "\n")
            return 2
        matrix = {"n": graph.n, "entries": graph.adjacency.astype(float).tolist()}
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"matrix_{ordinal:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps(matrix) + "\n")
            emitted.append(path)
        else:
            sys.stdout.write(dumps(matrix) + "\n")
    if out_dir:
        sys.stdout.write(dumps({"written": emitted}) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `reconlab` parser, built once per process and shared by every `main()`
    call; callers must not mutate it. Each parse returns a fresh `Namespace`,
    and no option has a mutable default."""
    parser = _Parser(prog="reconlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"reconlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *, sampled=True, csv=False, force=False):
        """A subcommand with the shared flags it reads; `handler(args)` runs it."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if sampled:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
            p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--out", help="write the report here instead of stdout")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--deterministic", action="store_true",
                       help="omit timestamps so identical runs are byte-identical")
        if force:
            p.add_argument("--force", action="store_true",
                           help="bypass the certificate gate (negative controls)")
        return p

    p = command("angle", _run_angle, "solid-angle fraction of a cone", csv=True)
    p.add_argument("--cone", required=True)
    p.add_argument("--monte-carlo", action="store_true",
                   help="sample even when a closed form applies")

    p = command("deck", _run_deck, "vertex-deleted submatrices of a matrix", sampled=False)
    p.add_argument("--matrix", required=True)

    p = command("gen-pair", _run_gen_pair, "relabel a graph and search the certificate",
                sampled=False)
    p.add_argument("--graph6", required=True)
    p.add_argument("--index", type=int, default=0, help="record index within the file")
    p.add_argument("--tau", default="rot",
                   help="rot[:k] | ref | id | swap:i,j | comma image")

    p = command("verify-tutte", _run_verify_tutte, "shifted-determinant identity on a grid",
                sampled=False, csv=True, force=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--grid-lambda", help="lo:hi:count or comma values")
    p.add_argument("--grid-t", help="lo:hi:count or comma values")

    p = command("verify-main", _run_verify_main,
                "lowest-eigenpair agreement on the t interval", sampled=False, csv=True,
                force=True)
    p.add_argument("--pair", required=True)

    p = command("verify-geometry", _run_verify_geometry, "seeded invariant suite", csv=True)
    p.add_argument("--count", type=int, default=DEFAULT_COUNT)

    p = command("ingest", _run_ingest, "graph6 file to matrix JSON records", sampled=False)
    p.add_argument("--graph6", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "samples" in args and args.samples < 1:
            raise ValueError("samples must be >= 1")
        if "seed" in args and args.seed < 0:
            raise ValueError("--seed must be >= 0")
        return args.handler(args)
    except (ReconError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1 if isinstance(exc, CheckFailed) else 2


if __name__ == "__main__":
    sys.exit(main())
