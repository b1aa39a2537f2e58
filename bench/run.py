#!/usr/bin/env python3
"""reconlab benchmark: one workload, one closed-loop client, judged outputs.

    python3 bench/run.py --workload atlas-theorem --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of stdout is the result object
(`correct`, `attempted`, `failed`, `metrics`); the line before it is the run
record (environment, inputs, failures, CLI output digests, trace summary).
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones. See bench/README.md for what each measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

import inputs as gen
from judge import JUDGES, SIGMAS
from tracing import layer_stats, p50_ms

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PROCESSES = 16    # worker processes one run's operation sequence is split over
# Reported times are calibrated: scaled by CAL_REF_S over the duration of the
# worker's calibration kernel around the operation (README, "Calibrated time").
# CAL_REF_S is the kernel's duration on the 2-core Xeon this was built on.
CAL_REF_S = 0.0008
MIN_OPS = 100         # at least 10 samples beyond p90
RUN_DEADLINE_S = 170  # everything, including judging, ends within this


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def git_sha(root):
    """HEAD of the checkout's git repository, read without running git; None if absent."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def build_inputs(workload, seed, work):
    """(worker inputs, judge context, record of the inputs)."""
    rng = np.random.default_rng(seed)
    ctx, record = {}, {}
    if workload in ("atlas-theorem", "atlas-search", "cli-corpus"):
        graphs = gen.atlas_graphs()
        ctx["classes"] = gen.card_classes(graphs, work)
    if workload == "atlas-theorem":
        spec = gen.theorem_spec(graphs, ctx["classes"], rng)
        import networkx as nx

        ctx["atlas_truth"] = {k: (gen.graph6_text(g), hashlib.sha256(
            nx.to_numpy_array(g, nodelist=range(len(g)), dtype=float).tobytes()).hexdigest())
            for k, g in graphs}
        by_atlas = dict(graphs)
        changed = [gen.relabel_changes(by_atlas[it["atlas"]], it["tau"]) for it in spec["items"]]
        ctx["changed"] = changed
        record["pairs"] = len(changed)
        record["pairs_b_ne_a"] = sum(changed)
    elif workload == "atlas-search":
        spec = gen.search_spec(graphs, rng)
        expected = [gen.search_expected(ctx["classes"][it["graph"]], it["tau"])
                    for it in spec["items"]]
        record["pairs"] = len(expected)
        record["pairs_card_isomorphic"] = sum(expected)
    elif workload == "solid-angle":
        spec = gen.solid_angle_spec(rng)
    else:
        spec = gen.cli_spec(graphs, ctx["classes"], rng)
        import networkx as nx

        def matrices(text):
            return [nx.to_numpy_array(nx.from_graph6_bytes(line.encode()), dtype=float).tolist()
                    for line in text.splitlines() if line and not line.startswith("#")]

        ctx["g6_truth"] = {
            "atlas.g6": matrices(spec["files"]["atlas.g6"]),
            "cycles.g6": [nx.to_numpy_array(nx.cycle_graph(n), dtype=float).tolist()
                          for n in (5, 6, 7, 8)],
        }
        record["commands"] = len(spec["items"])
    ctx["inputs"] = spec
    return spec, ctx, record


def spawn(root, spec_path, out_path, args, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path,
             "--spawned", repr(spawned), *args],
            env=env, cwd=root, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("worker process did not finish in time")
    if proc.returncode != 0:
        fail(f"worker process exited with code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def measure(root, spec_path, run_dir, trace, seconds, deadline):
    """Run the workload's one operation sequence across RUN_PROCESSES workers.

    Each worker continues the sequence where the previous one stopped, so the
    pooled operations are those one long process would have run. On a shared
    VM the same work can run up to 30 % faster or slower from one process to
    the next, and splitting averages that out.
    A traced worker runs its stretch untraced, then again traced.
    """
    out = os.path.join(run_dir, "out.json")
    spawn(root, spec_path, out, ["--mode", "setup"], deadline)  # fills the bytecode caches
    m = {"setup": [], "lat": [], "ops": [], "rss_kb": 0, "probe": [], "ratios": [],
         "traced_ops": set(), "spans": [], "worker_ops_per_s": [], "raw_lat": [],
         "raw_setup": [], "scale": {}}
    pos = first = 0
    for _ in range(RUN_PROCESSES):
        r = spawn(root, spec_path, out,
                  ["--mode", "trace" if trace else "run",
                   "--seconds", repr(seconds / RUN_PROCESSES),
                   "--min-ops", str(1 if trace else -(-MIN_OPS // RUN_PROCESSES)),
                   "--pos", str(pos), "--first-op", str(first)], deadline)
        lat = r["lat"]
        cal = r["cal"]
        scale = [CAL_REF_S / (0.5 * (cal[j] + cal[j + 1])) for j in r["cal_idx"]]
        cal_lat = [t * f for t, f in zip(lat, scale)]
        m["worker_ops_per_s"].append(len(lat) / sum(lat))
        m["raw_setup"].append(r["setup_s"])
        m["setup"].append(r["setup_s"] * CAL_REF_S / cal[0])  # cal[0] directly follows set-up
        m["rss_kb"] = max(m["rss_kb"], r["rss_kb"])
        m["blas_threads"] = r["blas_threads"]
        m["probe"] += [{**p, "seconds": p["seconds"] * CAL_REF_S / p["cal"]}
                       for p in r.get("probe", [])]
        m["ops"] += read_jsonl(out + ".ops.jsonl")
        if trace:
            untraced = r["untraced_ops"]
            m["ratios"] += [t / u for t, u in zip(cal_lat[untraced:], cal_lat[:untraced])]
            m["traced_ops"].update(range(first + untraced, first + len(lat)))
            m["scale"].update(zip(range(first, first + len(lat)), scale))
            offset = len(m["spans"])
            for span in read_jsonl(out + ".spans.jsonl"):
                if span[3] >= 0:
                    span[3] += offset
                m["spans"].append(span)
            pos += untraced
        else:
            pos += len(lat)
        first += len(lat)
        m["raw_lat"] += lat
        m["lat"] += cal_lat
    return m


def _rms(values):
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else 0.0


def mc_figure(errors, seconds):
    """RMS |estimate - reference| times sqrt(mean seconds per estimate)."""
    return _rms(errors) * math.sqrt(float(np.mean(seconds))) if len(seconds) else 0.0


def end_to_end(m, failed, judge):
    lat = np.asarray(m["lat"])
    p50, p90 = np.percentile(lat, [50, 90]) * 1e3
    if judge.mc_errors:  # solid-angle's panel, cli-corpus's angle --monte-carlo
        mc_ops = [k for k, (_, i, _) in enumerate(m["ops"]) if i in judge.mc_errors]
        mc = mc_figure([e for _, e in judge.mc_errors.values()], lat[mc_ops])
    else:
        mc = mc_figure([abs(p["fraction"] - judge.reference(c["gens"]))
                        for c, p in zip(gen.mc_probe(), m["probe"])],
                       [p["seconds"] for p in m["probe"]])
    return {
        "setup_s": float(np.median(m["setup"])),
        "ops_per_s": len(lat) / float(lat.sum()),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "ok_frac": 1.0 - failed / len(lat),
        "peak_rss_mb": m["rss_kb"] / 1024.0,
        "mc_err_sqrt_s": mc,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, ctx, m, judge):
    """Per-layer metrics over the traced operations of a --trace 1 run."""
    stats = layer_stats(m["spans"], m["scale"])
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "attrs": [], "ops": []}

    def span(name):
        return stats.get(name, empty)

    def busy(name):
        return span(name)["self_s"]

    def p50(name):
        return p50_ms(span(name)["durations"])

    root, lam0, find, mc = (span(n) for n in ("op", "presentation.lambda0_search",
                                              "hypomorphism.find", "solidangle.mc"))
    # op k of a worker's traced stretch ran the input of op k of its untraced one
    out = {"trace.overhead_pct": 100.0 * (float(np.median(m["ratios"])) - 1.0),
           "trace.accounted_pct": 100.0 * (1.0 - _ratio(root["self_s"], sum(root["durations"]))),
           "presentation.lambda0_search.calls": lam0["calls"],
           "presentation.lambda0_search.busy_s": lam0["self_s"],
           "presentation.lambda0_search.p50_ms": p50_ms(lam0["durations"]),
           "verifiers.main_theorem.p50_ms": p50("verifiers.main_theorem"),
           "hypomorphism.find.calls": find["calls"],
           "hypomorphism.find.busy_s": find["self_s"],
           "hypomorphism.find.p50_ms": p50_ms(find["durations"]),
           "hypomorphism.find.accept_ratio":
               _ratio(sum(a["ok"] for a in find["attrs"] if a), find["calls"]),
           "hypomorphism.verify.calls": span("hypomorphism.verify")["calls"],
           "hypomorphism.verify.busy_s": busy("hypomorphism.verify"),
           "graph6.decode.calls": span("graph6.decode")["calls"],
           "graph6.decode.busy_s": busy("graph6.decode"),
           "solidangle.mc.calls": mc["calls"],
           "solidangle.mc.busy_s": mc["self_s"],
           "solidangle.exact.calls": span("solidangle.exact")["calls"],
           "solidangle.exact.busy_s": busy("solidangle.exact"),
           "geometry_suite.run.busy_s": busy("geometry_suite.run"),
           "serialize.report.calls": span("serialize.report")["calls"],
           "serialize.report.busy_s": busy("serialize.report")}
    for short in ("tutte", "eq1", "t_agreement", "main_theorem", "main2"):
        out[f"verifiers.{short}.busy_s"] = busy(f"verifiers.{short}")
    for kind in ("partition", "comparison", "displacement"):
        out[f"solidangle.{kind}.busy_s"] = busy(f"solidangle.{kind}")
    for cmd in ("angle", "deck", "gen-pair", "verify-tutte", "verify-main", "verify-geometry",
                "ingest"):
        out[f"cli.{cmd}.calls"] = span(f"cli.{cmd}")["calls"]
        out[f"cli.{cmd}.p50_ms"] = p50(f"cli.{cmd}")

    # computed, not measured: each grid point costs two determinants
    dets = sum(2 * a["grid"][0] * a["grid"][1] for a in span("verifiers.tutte")["attrs"] if a)
    dets += sum(2 * (a["grid"][0] + 1) * a["grid"][1]
                for a in span("verifiers.eq1")["attrs"] if a)
    out["matrixcore.shifted_det.calls_computed"] = dets
    out["matrixcore.shifted_det.us_per_call_computed"] = 1e6 * _ratio(
        busy("verifiers.tutte") + busy("verifiers.eq1"), dets)

    samples = sum(a["samples"] for a in mc["attrs"] if a)
    out["solidangle.mc.samples"] = samples
    out["solidangle.mc.samples_per_s"] = _ratio(samples, mc["self_s"])
    first_mc = {}
    for op, dur in zip(mc["ops"], mc["durations"]):
        first_mc.setdefault(op, dur)  # the op's first MC call is the estimate it reports
    traced = [(op, i) for op, i, _ in m["ops"] if op in m["traced_ops"]]
    for d in gen.PANEL_DIMS:
        items_d = {i for i, (dd, _) in judge.mc_errors.items() if dd == d}
        out[f"solidangle.mc.d{d}.err_sqrt_s"] = mc_figure(
            [judge.mc_errors[i][1] for i in items_d],
            [first_mc[op] for op, i in traced if i in items_d and op in first_mc])

    outcomes = {i: p for _, i, p in m["ops"] if isinstance(p, dict) and "digest" not in p
                and "error" not in p}
    items = ctx["inputs"]["items"]
    verdicts, checks, suite, cli_ops = [], [], [0, 0], []
    for _, i in traced:
        oc = outcomes.get(i)
        if oc is None:
            continue
        if workload == "atlas-theorem":
            verdicts += oc["verdicts"][1:]  # the gate's certificate is not a verifier
        elif workload == "solid-angle" and items[i]["kind"] in ("comparison", "displacement"):
            checks.append(oc["strict"] or oc["violated"])
        elif workload == "solid-angle" and items[i]["kind"] == "suite":
            suite[0] += sum(sum(t) for t in oc.values())
            suite[1] += sum(t[1] for t in oc.values())
        elif workload == "cli-corpus":
            cli_ops.append(oc)
            name = items[i]["argv"][0]
            if oc["code"] == 2 or name not in ("verify-tutte", "verify-main", "verify-geometry"):
                continue
            doc = json.loads(oc["stdout"])
            if name == "verify-geometry":
                tallies = doc["report"]["tallies"].values()
                suite[0] += sum(t["passed"] + t["failed"] + t["flagged"] for t in tallies)
                suite[1] += sum(t["failed"] for t in tallies)
            else:
                verdicts.append(doc["passed"])
    out["verifiers.passed_ratio"] = _ratio(sum(verdicts), len(verdicts))
    out["solidangle.conclusive_ratio"] = _ratio(sum(checks), len(checks))
    out["geometry_suite.checks"], out["geometry_suite.failed"] = suite
    out["cli.exit2.calls"] = sum(oc["code"] == 2 for oc in cli_ops)
    out["cli.bytes_out"] = sum(len((oc["stdout"] + oc["stderr"]).encode()) for oc in cli_ops)

    total = sum(st["self_s"] for st in stats.values())
    summary = {name: round(100.0 * _ratio(st["self_s"], total), 2) for name, st in
               sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])}
    return out, summary


def environment(root, blas):
    versions = {}
    for mod in ("numpy", "scipy", "networkx"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "blas_threads": blas, "git_sha": git_sha(root)}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(JUDGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reconlab", "__init__.py")):
        fail("run from the repository root: src/reconlab is missing")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    work = os.path.join(root, ".benchwork")
    run_dir = os.path.join(work, f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    phases, mark = {}, [started]

    def tick(name):  # wall time of each phase of this run, for the record
        now = time.monotonic()
        phases[name] = now - mark[0]
        mark[0] = now

    try:
        spec, ctx, record = build_inputs(args.workload, args.seed, work)
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "inputs": spec,
                       "probe": gen.mc_probe() if args.workload.startswith("atlas") else []},
                      fh)
        tick("inputs_s")
        m = measure(root, spec_path, run_dir, args.trace, args.seconds, deadline)
        ops = m["ops"]
        tick("run_s")

        judge = JUDGES[args.workload](ctx, os.path.join(work, "orthant_refs.json"))
        failures = []
        for op, item, payload in ops:
            ok, why = judge(item, payload)
            if not ok:
                failures.append({"op": op, "item": item, "why": why})
        probe_ok = all(abs(p["fraction"] - judge.reference(c["gens"])) <= SIGMAS * p["std_error"]
                       for c, p in zip(gen.mc_probe() * RUN_PROCESSES, m["probe"]))
        judge.save()
        tick("judge_s")

        raw = np.asarray(m["raw_lat"])
        record["wall_clock"] = {"ops_per_s": len(raw) / float(raw.sum()),
                                "op_p50_ms": float(np.percentile(raw, 50)) * 1e3,
                                "op_p90_ms": float(np.percentile(raw, 90)) * 1e3}
        record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "ops": len(ops), "failed": len(failures),
                       "failures": failures[:20], "mc_probe_ok": probe_ok,
                       "setup_samples_s": m["setup"], "wall_clock_setup_s": m["raw_setup"],
                       "worker_ops_per_s": m["worker_ops_per_s"],
                       "env": environment(root, m["blas_threads"])})
        if args.workload == "atlas-theorem":
            run_items = {i for _, i, _ in ops}
            record["pairs_run"] = len(run_items)
            record["pairs_run_b_ne_a"] = sum(ctx["changed"][i] for i in run_items)
        if args.workload == "cli-corpus":
            record["cli_digests"] = {
                spec["items"][i]["label"]: hashlib.sha256(p["stdout"].encode()).hexdigest()
                for _, i, p in ops if "stdout" in p}
        if args.trace:
            spans_path = os.path.join(work, f"spans-{args.workload}-{args.seed}.jsonl")
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(span) + "\n" for span in m["spans"])
            metrics, summary = per_layer(args.workload, ctx, m, judge)
            record["trace_summary"] = {"spans_file": os.path.relpath(spans_path, root),
                                       "self_time_pct": summary}
            wanted = bench["per_layer"]
        else:
            metrics = end_to_end(m, len(failures), judge)
            wanted = bench["end_to_end"]
        record["phases_s"] = phases
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        fail(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures and probe_ok, "attempted": len(ops), "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
