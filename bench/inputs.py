"""Seeded inputs for the benchmark workloads.

Runs in the orchestrating process, which may import networkx; the measured
worker receives only the plain data written here (edge lists, permutation
images, generator matrices, command lines) and builds the package's objects
from it itself.
"""

from __future__ import annotations

import json
import os

import numpy as np

ATLAS_NODES = range(3, 8)
SEARCH_TAUS_PER_GRAPH = 4

# Solid-angle panel: fixed, so the error part of mc_err_sqrt_s repeats exactly
# from run to run and only the time part varies.
PANEL_SEED = 0x5EED
PANEL_PER_DIM = 8
PANEL_DIMS = (3, 4, 5, 6)
PANEL_SAMPLES = 10 ** 6
CHECK_SAMPLES = 200_000
CHECKS_PER_KIND = 4
# The geometry suite's 4-sigma invariants are statistical; the acceptance seed
# pins a run whose verdict the tier-1 acceptance test already checks.
SUITE_SEED = 24301
SUITE_COUNT = 8
SUITE_MC_SAMPLES = 20_000

CLI_MC_SAMPLES = 20_000
CLI_ATLAS_RECORDS = 24
CLI_GEN_PAIRS = 4


def atlas_graphs():
    """(atlas index, networkx graph) for every atlas graph on 3..7 vertices."""
    import networkx as nx

    return [(k, g) for k, g in enumerate(nx.graph_atlas_g())
            if g.number_of_nodes() in ATLAS_NODES]


def _card_classes_nx(graphs):
    import networkx as nx

    out = []
    for _, g in graphs:
        n = g.number_of_nodes()
        cards = [g.subgraph([v for v in range(n) if v != i]) for i in range(n)]
        cls, reps = [], []
        for i in range(n):
            for k, r in enumerate(reps):
                if nx.faster_could_be_isomorphic(cards[i], cards[r]) and \
                        nx.is_isomorphic(cards[i], cards[r]):
                    cls.append(k)
                    break
            else:
                cls.append(len(reps))
                reps.append(i)
        out.append(cls)
    return out


def card_classes(graphs, cache_dir):
    """Per graph, the class of each vertex under isomorphism of its card.

    Vertices i and j share a class when deleting either leaves isomorphic
    graphs (networkx VF2). The atlas is fixed, so the result is cached per
    networkx version.
    """
    import networkx as nx

    path = os.path.join(cache_dir, f"card_classes-nx{nx.__version__}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    classes = _card_classes_nx(graphs)
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(classes, fh)
    os.replace(tmp, path)
    return classes


def card_class_tau(classes, rng) -> list:
    """A seeded relabelling that permutes vertices only within their card class.

    B = tau A tau^T then has B_i isomorphic to A_i at every index i, so the
    deck search succeeds and the certificate gate passes.
    """
    image = list(range(len(classes)))
    for c in sorted(set(classes)):
        members = [v for v, k in enumerate(classes) if k == c]
        for v, w in zip(members, rng.permutation(members)):
            image[v] = int(w)
    return image


def search_expected(classes, tau) -> bool:
    """Card-isomorphism oracle: A_i ~ B_i for all i iff tau preserves card classes."""
    inverse = [0] * len(tau)
    for k, v in enumerate(tau):
        inverse[v] = k
    return all(classes[i] == classes[inverse[i]] for i in range(len(tau)))


def relabel_changes(g, tau) -> bool:
    """True when B = tau A tau^T differs from A (tau is not an automorphism)."""
    return any(not g.has_edge(tau[i], tau[j]) for i, j in g.edges)


def stratified_order(sizes, rng) -> list:
    """Seeded order in which every prefix holds each vertex count in proportion."""
    keys = []
    by_size = {}
    for idx, n in enumerate(sizes):
        by_size.setdefault(n, []).append(idx)
    for members in by_size.values():
        for rank, idx in enumerate(rng.permutation(members)):
            keys.append(((rank + rng.uniform()) / len(members), int(idx)))
    return [idx for _, idx in sorted(keys)]


def _graph_data(g):
    return [g.number_of_nodes(), [list(e) for e in g.edges()]]


def theorem_spec(graphs, classes, rng) -> dict:
    order = stratified_order([g.number_of_nodes() for _, g in graphs], rng)
    taus = [card_class_tau(classes[i], rng) for i in range(len(graphs))]
    return {
        "items": [{"atlas": graphs[i][0], "graph": _graph_data(graphs[i][1]),
                   "tau": taus[i]} for i in order],
    }


def search_spec(graphs, rng) -> dict:
    pairs = [(i, [int(v) for v in rng.permutation(g.number_of_nodes())])
             for i, (_, g) in enumerate(graphs) for _ in range(SEARCH_TAUS_PER_GRAPH)]
    order = rng.permutation(len(pairs))
    return {
        "graphs": [_graph_data(g) for _, g in graphs],
        "items": [{"graph": pairs[k][0], "tau": pairs[k][1]} for k in order],
    }


def _nonsingular(rng, d, min_det):
    gens = rng.standard_normal((d, d))
    while abs(np.linalg.det(gens)) < min_det:
        gens = rng.standard_normal((d, d))
    return gens


def mc_panel() -> list:
    """Fixed simplicial cones at d = 3..6, interleaved by dimension."""
    rng = np.random.default_rng(PANEL_SEED)
    by_dim = {d: [_nonsingular(rng, d, 0.1) for _ in range(PANEL_PER_DIM)] for d in PANEL_DIMS}
    panel = []
    for j in range(PANEL_PER_DIM):
        for d in PANEL_DIMS:
            panel.append({"d": d, "gens": by_dim[d][j].tolist(), "seed": 1000 * d + j})
    return panel


def _partition_instance(rng, n=5):
    while True:
        alpha = rng.uniform(0.3, 1.0, n)
        lead = rng.standard_normal((n - 1, n - 1))
        if np.linalg.cond(lead) < 1e3:
            break
    last = -(lead @ alpha[: n - 1]) / alpha[n - 1]
    cols = np.vstack([np.column_stack([lead, last]), np.zeros(n)])
    return {"columns": cols.tolist()}


def _comparison_instance(rng, d=4):
    gens = _nonsingular(rng, d, 0.3)
    u = 0.3 * rng.standard_normal(d)
    alpha = rng.uniform(0.08, 0.2, d)
    return {"u": u.tolist(), "points": (u + gens).tolist(), "v": (u + alpha @ gens).tolist()}


def _displacement_instance(rng, k=4):
    while True:
        gens_k = np.eye(k) + 0.35 * rng.standard_normal((k, k))
        if abs(np.linalg.det(gens_k)) < 0.2:
            continue
        pts = np.hstack([gens_k, np.zeros((k, 1))])
        dirs = (pts[1:] - pts[0]).T
        sol = np.linalg.lstsq(dirs, -pts[0], rcond=None)[0]
        if min(1.0 - sol.sum(), sol.min()) > 0.05:
            break
    v = np.zeros(k + 1)
    v[k] = rng.uniform(0.3, 2.0)
    return {"u": np.zeros(k + 1).tolist(), "points": pts.tolist(), "v": v.tolist()}


def solid_angle_spec(rng) -> dict:
    """One cycle: the MC panel, seeded check instances and one geometry suite."""
    ops = [{"kind": "mc", "cone": c} for c in mc_panel()]
    makers = (("partition", _partition_instance), ("comparison", _comparison_instance),
              ("displacement", _displacement_instance))
    checks = [{"kind": kind, **make(rng), "seed": int(rng.integers(1 << 30))}
              for kind, make in makers for _ in range(CHECKS_PER_KIND)]
    # spread the checks through the cycle so no stretch of it is check-only
    step = len(ops) // len(checks)
    for j, check in enumerate(checks):
        ops.insert(j * (step + 1) + step, check)
    ops.append({"kind": "suite", "seed": SUITE_SEED, "count": SUITE_COUNT,
                "mc_samples": SUITE_MC_SAMPLES})
    return {"samples": PANEL_SAMPLES, "check_samples": CHECK_SAMPLES, "items": ops}


def mc_probe() -> list:
    """First panel cone of each dimension: the MC probe used where no workload op is MC."""
    panel = mc_panel()
    return [next(c for c in panel if c["d"] == d) for d in PANEL_DIMS]


def graph6_text(g) -> str:
    import networkx as nx

    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def cli_spec(graphs, classes, rng) -> dict:
    """Command lines over the cycle corpus, an atlas graph6 file and cone files.

    `{dir}` in an argument stands for the worker's corpus directory; the
    worker writes the cycle pair files there itself (as
    scripts/build_cycle_corpus.py does), the files below are plain data.
    """
    picks = sorted(int(i) for i in rng.choice(len(graphs), CLI_ATLAS_RECORDS, replace=False))
    records = "".join(graph6_text(graphs[i][1]) + "\n" for i in picks)
    files = {"atlas.g6": "# atlas graphs\n" + records}
    files["bad.g6"] = "# malformed record on line 3\nBw\nB!\n"
    files["bad_pair.json"] = '{"A": {"n": 3, "entries": [[0, 1, 1], [1, 0'
    files["asym.json"] = json.dumps({"n": 3, "entries": [[0, 1, 0], [0, 0, 1], [1, 1, 0]]})
    for k, i in enumerate(picks[-2:]):
        g = graphs[i][1]
        n = g.number_of_nodes()
        a = np.zeros((n, n))
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1.0
        files[f"matrix{k}.json"] = json.dumps({"n": n, "entries": a.tolist()})
    for c in mc_probe():
        files[f"cone_mc{c['d']}.json"] = json.dumps(
            {"apex": [0.0] * c["d"], "generators": c["gens"], "ambient_dim": None})
    for k in range(2):
        files[f"cone3_{k}.json"] = json.dumps(
            {"apex": [0.0] * 3, "generators": _nonsingular(rng, 3, 0.1).tolist(),
             "ambient_dim": None})

    det = "--deterministic"
    cmds = []

    def add(label, argv, expect, **extra):
        cmds.append({"label": label, "argv": argv, "expect": expect, **extra})

    add("ingest atlas", ["ingest", "--graph6", "{dir}/atlas.g6", det], 0)
    add("ingest cycles", ["ingest", "--graph6", "{dir}/cycles.g6", det], 0)
    for k in range(2):
        add(f"deck matrix{k}", ["deck", "--matrix", f"{{dir}}/matrix{k}.json", det], 0)
    for j in range(CLI_GEN_PAIRS):
        rec = int(rng.integers(len(picks)))
        n = graphs[picks[rec]][1].number_of_nodes()
        cc = classes[picks[rec]]
        for kind, tau in (("card-class", card_class_tau(cc, rng)),
                          ("random", [int(v) for v in rng.permutation(n)])):
            add(f"gen-pair {kind} {j}",
                ["gen-pair", "--graph6", "{dir}/atlas.g6", "--index", str(rec),
                 "--tau", ",".join(map(str, tau)), det],
                0 if search_expected(cc, tau) else 1)
    for n in (5, 6, 7, 8):
        for kind in ("rotation", "reflection", "shuffle"):
            pair = f"{{dir}}/C{n}-{kind}.json"
            add(f"verify-tutte C{n}-{kind}", ["verify-tutte", "--pair", pair, det], 0)
            add(f"verify-main C{n}-{kind}", ["verify-main", "--pair", pair, det], 0)
    add("verify-tutte C8-shuffle grid",
        ["verify-tutte", "--pair", "{dir}/C8-shuffle.json", "--grid-lambda=-3:5:11",
         "--grid-t=-2,0,1.5,3", det], 0)
    for k in range(2):
        add(f"angle cone3_{k}", ["angle", "--cone", f"{{dir}}/cone3_{k}.json", det], 0,
            cone=f"cone3_{k}.json")
    for c in mc_probe():
        add(f"angle --monte-carlo d{c['d']}",
            ["angle", "--cone", f"{{dir}}/cone_mc{c['d']}.json", "--monte-carlo",
             "--samples", str(CLI_MC_SAMPLES), "--seed", str(c["seed"]), det], 0,
            cone=f"cone_mc{c['d']}.json")
    add("verify-geometry", ["verify-geometry", "--count", "2", "--samples",
                            str(SUITE_MC_SAMPLES), "--seed", str(SUITE_SEED), det], 0)
    add("ingest malformed", ["ingest", "--graph6", "{dir}/bad.g6", det], 2)
    add("verify-tutte truncated json", ["verify-tutte", "--pair", "{dir}/bad_pair.json", det], 2)
    add("deck asymmetric", ["deck", "--matrix", "{dir}/asym.json", det], 2)
    add("verify-main missing file", ["verify-main", "--pair", "{dir}/missing.json", det], 2)
    add("gen-pair non-bijective tau",
        ["gen-pair", "--graph6", "{dir}/cycles.g6", "--tau", "0,0,1,2,3", det], 2)
    add("verify-tutte usage", ["verify-tutte", det], 2)
    add("angle usage", ["angle", "--cone", "{dir}/cone3_0.json", "--samples", "many"], 2)
    return {"files": files, "items": cmds}
