"""The measured process: builds one workload's inputs with reconlab and runs it.

    python3 bench/worker.py SPEC OUT --mode setup|run|trace --spawned T \
        [--seconds S --min-ops N --pos P --first-op K]

It imports reconlab and numpy only, so its peak RSS is the program's own.
One client, closed loop: each operation starts when the previous one ends.
Each operation's outcome goes to OUT.ops.jsonl as it completes (outside the
timed region); the orchestrator judges them after this process has exited.
`--spawned` is the CLOCK_MONOTONIC reading taken just before this process
was started, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import time
from array import array
from types import SimpleNamespace

import numpy as np

from reconlab import (cli, geometry_suite, graph6, hypomorphism, presentation, serialize,
                      solidangle, verifiers)
from reconlab.graph6 import Graph6Record
from reconlab.hypomorphism import cycle_adjacency, cycle_pair_corpus
from reconlab.matrixcore import Permutation, SymmetricMatrix, perm_similarity
from reconlab.presentation import Presentation
from reconlab.solidangle import AngleMethod, Cone

from tracing import Tracer

PROBE_SAMPLES = 200_000
CAL_EVERY_S = 0.25

# The library entry points the benchmark calls; the traced run swaps in wrappers.
LIB = SimpleNamespace(
    graph6_encode=graph6.graph6_encode,
    graph6_decode=graph6.graph6_decode,
    gen_pair=hypomorphism.gen_pair,
    find_hypomorphism=hypomorphism.find_hypomorphism,
    verify_hypomorphism=hypomorphism.verify_hypomorphism,
    lambda0_search=presentation.lambda0_search,
    verify_tutte=verifiers.verify_tutte,
    verify_eq1=verifiers.verify_eq1,
    verify_main1_t_agreement=verifiers.verify_main1_t_agreement,
    verify_main_theorem=verifiers.verify_main_theorem,
    verify_main2=verifiers.verify_main2,
    good_position_shift=verifiers.good_position_shift,
    angle_fraction=solidangle.angle_fraction,
    partition_check=solidangle.partition_check,
    comparison_check=solidangle.comparison_check,
    displacement_check=solidangle.displacement_check,
    run_geometry_suite=geometry_suite.run_geometry_suite,
    report_to_dict=serialize.report_to_dict,
    dumps=serialize.dumps,
    cli_main=cli.main,
)


def _angle_span(args, est):
    if est is not None and est.method is AngleMethod.MONTE_CARLO and est.samples > 0:
        return "solidangle.mc"
    return "solidangle.exact"


def install_tracing(tracer: Tracer) -> None:
    """Wrap every LIB entry and rebind the names modules imported from each other."""
    w = tracer.wrap
    find = w("hypomorphism.find", LIB.find_hypomorphism,
             lambda a, k, r: {"ok": r is not None})
    verify = w("hypomorphism.verify", LIB.verify_hypomorphism)
    lam0 = w("presentation.lambda0_search", LIB.lambda0_search)
    grid = (lambda a, k, r: {"grid": [len(r.lambda_grid), len(r.t_grid)]} if r else None)
    tutte = w("verifiers.tutte", LIB.verify_tutte, grid)
    main_thm = w("verifiers.main_theorem", LIB.verify_main_theorem)
    angle = w(_angle_span, LIB.angle_fraction,
              lambda a, k, r: {"samples": r.samples} if r is not None else None)
    decode = w("graph6.decode", LIB.graph6_decode)
    gen_pair = w("hypomorphism.gen_pair", LIB.gen_pair)
    suite = w("geometry_suite.run", LIB.run_geometry_suite)
    to_dict = w("serialize.report", LIB.report_to_dict)
    dumps = w("serialize.report", LIB.dumps)
    LIB.__dict__.update(
        graph6_encode=w("graph6.encode", LIB.graph6_encode),
        graph6_decode=decode, gen_pair=gen_pair, find_hypomorphism=find,
        verify_hypomorphism=verify, lambda0_search=lam0, verify_tutte=tutte,
        verify_eq1=w("verifiers.eq1", LIB.verify_eq1, grid),
        verify_main1_t_agreement=w("verifiers.t_agreement", LIB.verify_main1_t_agreement),
        verify_main_theorem=main_thm,
        verify_main2=w("verifiers.main2", LIB.verify_main2),
        good_position_shift=w("verifiers.good_position_shift", LIB.good_position_shift),
        angle_fraction=angle,
        partition_check=w("solidangle.partition", LIB.partition_check),
        comparison_check=w("solidangle.comparison", LIB.comparison_check),
        displacement_check=w("solidangle.displacement", LIB.displacement_check),
        run_geometry_suite=suite, report_to_dict=to_dict, dumps=dumps,
        cli_main=w(lambda a, r: "cli." + a[0][0], LIB.cli_main),
    )
    # calls one layer makes into another
    hypomorphism.find_hypomorphism = find
    verifiers.verify_hypomorphism = verify
    verifiers.lambda0_search = lam0
    solidangle.angle_fraction = angle
    geometry_suite.angle_fraction = angle
    cli.angle_fraction = angle
    cli.graph6_decode = decode
    cli.gen_pair = gen_pair
    cli.verify_tutte = tutte
    cli.verify_main_theorem = main_thm
    cli.run_geometry_suite = suite
    cli.report_to_dict = to_dict
    cli.dumps = dumps


def _adjacency(n, edges):
    a = np.zeros((n, n), dtype=int)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# workloads: build (set-up), op (timed), outcome (untimed, JSON for the judge)

class AtlasTheorem:
    """The theorem pipeline of scripts/run_theorem_sweep.py on one atlas pair."""

    def build(self, spec, _):
        return [(Graph6Record(it["graph"][0], _adjacency(*it["graph"])),
                 Permutation(tuple(it["tau"]))) for it in spec["items"]]

    def op(self, item):
        rec, tau = item
        text = LIB.graph6_encode(rec.adjacency)
        A, B, sigma = LIB.gen_pair(LIB.graph6_decode(text), tau)
        if sigma is None:
            return text, A, None, ()
        cert = LIB.verify_hypomorphism(A, B, sigma)
        tutte = LIB.verify_tutte(A, B, sigma)
        eq1 = LIB.verify_eq1(A, B, sigma)
        lam = max(LIB.lambda0_search(A), LIB.lambda0_search(B)) + 1.0
        tagree = LIB.verify_main1_t_agreement(A, B, sigma, lam)
        main_thm = LIB.verify_main_theorem(A, B, sigma)
        main2 = LIB.verify_main2(LIB.good_position_shift(A, lam),
                                 LIB.good_position_shift(B, lam), sigma)
        reports = (cert, tutte, eq1, tagree, main_thm, main2)
        return text, A, reports, [LIB.dumps(LIB.report_to_dict(r)) for r in reports]

    def outcome(self, item, result):
        text, A, reports, texts = result
        return {"g6": text, "a_sha": _sha(A.entries.tobytes()), "found": reports is not None,
                "verdicts": [bool(getattr(r, "passed", getattr(r, "valid", False)))
                             for r in reports or ()],
                "reports": list(texts)}


class AtlasSearch:
    """find_hypomorphism alone, mostly on pairs it must reject."""

    def build(self, spec, _):
        mats = [SymmetricMatrix(_adjacency(*g).astype(float)) for g in spec["graphs"]]
        return [(mats[it["graph"]], perm_similarity(mats[it["graph"]],
                                                    Permutation(tuple(it["tau"]))))
                for it in spec["items"]]

    def op(self, item):
        return LIB.find_hypomorphism(*item)

    def outcome(self, item, sigma):
        return None if sigma is None else [list(s.image) for s in sigma.sigmas]


def _estimate(est):
    return {"fraction": est.fraction, "std_error": est.std_error, "samples": est.samples,
            "method": est.method.value}


class SolidAngle:
    """Monte Carlo panel at 10^6 samples, the lemma checks and the geometry suite."""

    def build(self, spec, _):
        self.samples = spec["samples"]
        self.check_samples = spec["check_samples"]
        items = []
        for it in spec["items"]:
            it = dict(it)
            if it["kind"] == "mc":
                d = it["cone"]["d"]
                it["obj"] = Cone(apex=np.zeros(d), generators=np.array(it["cone"]["gens"]))
            elif it["kind"] == "partition":
                it["obj"] = Presentation(np.array(it["columns"]))
            elif it["kind"] in ("comparison", "displacement"):
                it["obj"] = tuple(np.array(it[k]) for k in ("u", "points", "v"))
            items.append(it)
        return items

    def op(self, it):
        kind = it["kind"]
        if kind == "mc":
            est = LIB.angle_fraction(it["obj"], self.samples, it["cone"]["seed"],
                                     force_monte_carlo=True)
            exact = LIB.angle_fraction(it["obj"]) if it["cone"]["d"] == 3 else None
            return est, exact
        if kind == "partition":
            return LIB.partition_check(it["obj"], self.check_samples, it["seed"])
        if kind == "comparison":
            return LIB.comparison_check(*it["obj"], samples=self.check_samples, seed=it["seed"])
        if kind == "displacement":
            return LIB.displacement_check(*it["obj"], samples=self.check_samples,
                                          seed=it["seed"])
        return LIB.run_geometry_suite(seed=it["seed"], count=it["count"],
                                      mc_samples=it["mc_samples"])

    def outcome(self, it, res):
        kind = it["kind"]
        if kind == "mc":
            est, exact = res
            return {"mc": _estimate(est), "exact": None if exact is None else exact.fraction}
        if kind == "partition":
            return {"sum": res.sum_fraction, "std_error": res.combined_std_error, "ok": res.ok}
        if kind == "suite":
            return {name: [t.passed, t.failed, t.flagged] for name, t in res.tallies.items()}
        return {"lhs": _estimate(res.lhs), "rhs": _estimate(res.rhs), "strict": res.strict,
                "inconclusive": res.inconclusive, "violated": res.violated}


class CliCorpus:
    """In-process `reconlab ...` command lines, stdout and stderr captured."""

    def build(self, spec, workdir):
        corpus = os.path.join(workdir, "corpus")
        os.makedirs(corpus, exist_ok=True)
        for name, text in spec["files"].items():
            with open(os.path.join(corpus, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        # as scripts/build_cycle_corpus.py builds it
        ns = (5, 6, 7, 8)
        with open(os.path.join(corpus, "cycles.g6"), "w", encoding="utf-8") as fh:
            fh.write("# cycle graphs C5..C8\n")
            for n in ns:
                fh.write(graph6.graph6_encode(cycle_adjacency(n).entries) + "\n")
        for pair in cycle_pair_corpus(ns=ns):
            with open(os.path.join(corpus, f"{pair['name']}.json"), "w", encoding="utf-8") as fh:
                fh.write(serialize.dumps(serialize.pair_to_dict(pair["A"], pair["B"],
                                                                pair["sigma"])) + "\n")
        return [[a.replace("{dir}", corpus) for a in it["argv"]] for it in spec["items"]]

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = LIB.cli_main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def outcome(self, argv, res):
        code, out, err = res
        return {"code": code, "stdout": out, "stderr": err}


WORKLOADS = {"atlas-theorem": AtlasTheorem, "atlas-search": AtlasSearch,
             "solid-angle": SolidAngle, "cli-corpus": CliCorpus}


# ---------------------------------------------------------------------------

def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


_CAL_MATRIX = np.array([[4.0 + (i == j) * 2.0 * i - abs(i - j) * 0.5 for j in range(8)]
                        for i in range(8)])
_CAL_ONES = np.ones(8)


def calibration_kernel() -> float:
    """Seconds one fixed piece of interpreter and small-LAPACK work takes now.

    It uses no reconlab code, so a change to the program cannot move it; the
    machine's speed of the moment moves it and the workload alike. The
    median of three repetitions damps single interruptions.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for k in range(40):
            np.linalg.eigvalsh(_CAL_MATRIX)
            np.linalg.solve(_CAL_MATRIX, _CAL_ONES)
            sum({i: i * k for i in range(64)}.values())
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def run_loop(wl, items, seconds, min_ops, sink, pos, first_op, tracer=None):
    """Closed loop over `items` (cycled from position `pos`) for `seconds`.

    Operations are numbered from `first_op`. Between operations, outside the
    timed region, the calibration kernel runs every CAL_EVERY_S seconds.
    Returns per-op latencies, the calibration samples, and for each op the
    index of the last calibration sample taken before it.
    """
    op = wl.op if tracer is None else tracer.wrap("op", wl.op)
    clock = time.perf_counter
    lat, cal_idx = array("d"), array("l")
    cal = [calibration_kernel()]
    next_cal = clock() + CAL_EVERY_S
    seen = set()
    deadline = clock() + seconds
    k = 0
    while True:
        i = (pos + k) % len(items)
        if tracer is not None:
            tracer.op = first_op + k
        t0 = clock()
        try:
            result = op(items[i])
            error = None
        except Exception as exc:  # a failed operation is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        lat.append(t1 - t0)
        cal_idx.append(len(cal) - 1)
        outcome = {"error": error} if error else wl.outcome(items[i], result)
        text = json.dumps(outcome, sort_keys=True)
        if i in seen:
            text = json.dumps({"digest": _sha(text.encode())})
        seen.add(i)
        sink.write(f'[{first_op + k}, {i}, {text}]\n')
        k += 1
        if t1 >= deadline and k >= min_ops:
            cal.append(calibration_kernel())
            return lat, cal, cal_idx
        if t1 >= next_cal:
            cal.append(calibration_kernel())
            next_cal = clock() + CAL_EVERY_S


def mc_probe(cones):
    """Fixed Monte Carlo probe for workloads that make no solid-angle calls."""
    out = []
    for c in cones:
        cone = Cone(apex=np.zeros(c["d"]), generators=np.array(c["gens"]))
        cal = calibration_kernel()
        t0 = time.perf_counter()
        est = LIB.angle_fraction(cone, PROBE_SAMPLES, c["seed"], force_monte_carlo=True)
        seconds = time.perf_counter() - t0
        cal = (cal + calibration_kernel()) / 2.0
        out.append({"d": c["d"], "seconds": seconds, "cal": cal, **_estimate(est)})
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec")
    parser.add_argument("out")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--pos", type=int, default=0, help="item position to start at")
    parser.add_argument("--first-op", type=int, default=0, help="number of the first operation")
    args = parser.parse_args()

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[spec["workload"]]()
    items = wl.build(spec["inputs"], os.path.dirname(args.spec))
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode != "setup":
        result["blas_threads"] = blas_threads()
        with open(args.out + ".ops.jsonl", "w", encoding="utf-8") as sink:
            if args.mode == "run":
                lat, cal, cal_idx = run_loop(wl, items, args.seconds, args.min_ops, sink,
                                             args.pos, args.first_op)
                if spec["probe"]:
                    result["probe"] = mc_probe(spec["probe"])
            else:
                # both halves run the same inputs in the same order
                half = args.seconds / 2.0
                lat, cal, cal_idx = run_loop(wl, items, half, args.min_ops, sink, args.pos,
                                             args.first_op)
                result["untraced_ops"] = len(lat)
                tracer = Tracer()
                install_tracing(tracer)
                lat2, cal2, idx2 = run_loop(wl, items, half, args.min_ops, sink, args.pos,
                                            args.first_op + len(lat), tracer)
                lat.extend(lat2)
                cal_idx.extend(j + len(cal) for j in idx2)
                cal += cal2
                tracer.write(args.out + ".spans.jsonl")
            result.update(lat=lat.tolist(), cal=cal, cal_idx=cal_idx.tolist())
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
