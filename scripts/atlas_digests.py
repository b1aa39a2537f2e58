#!/usr/bin/env python3
"""Print one `sha256 label` line per (vertex count, report kind) over the graph atlas.

Every `networkx.graph_atlas_g()` graph on 3-7 vertices (1249 graphs) is
paired with itself under the identity relabelling and under one seeded random
relabelling, and `gen_pair` searches each pair's deck certificate. Card i
must match card i, so the search rejects most random relabellings (it
accepts 34 of the 1249); the `pair` lines cover both outcomes. Each certified
pair goes through the pipeline of scripts/run_theorem_sweep.py: the deck
gate, `verify_tutte`, `verify_eq1`, lambda0, the t agreement at lambda0 + 1,
the main theorem, and `verify_main2` on the `good_position_shift` pair. A
step that raises is recorded by its error's type name. Each line hashes the
serialised reports of one kind for every pair of one vertex count, so two
runs or two checkouts compare with `diff` (about 15 s):

    PYTHONPATH=src python scripts/atlas_digests.py > atlas.txt
"""

import hashlib

import networkx as nx
import numpy as np

from reconlab import (
    Graph6Record,
    Permutation,
    ReconError,
    gen_pair,
    lambda0_search,
    verify_eq1,
    verify_hypomorphism,
    verify_main1_t_agreement,
    verify_main2,
    verify_main_theorem,
    verify_tutte,
)
from reconlab.serialize import dumps, pair_to_dict
from reconlab.verifiers import good_position_shift

SEED = 20260
VERTEX_COUNTS = range(3, 8)
KINDS = ("pair", "gate", "tutte", "eq1", "lambda0", "t_agreement", "main_theorem", "main2")


def _run(fn, *args):
    try:
        return fn(*args)
    except (ReconError, ValueError, ArithmeticError) as exc:
        return {"error": type(exc).__name__}


def pipeline(A, B, sigma) -> dict:
    """Report (or error) of every step after the search, keyed by kind."""
    out = {"gate": _run(verify_hypomorphism, A, B, sigma),
           "tutte": _run(verify_tutte, A, B, sigma),
           "eq1": _run(verify_eq1, A, B, sigma),
           "lambda0": _run(lambda: max(lambda0_search(A), lambda0_search(B)))}
    lam0 = out["lambda0"]
    if isinstance(lam0, dict):  # the steps at lambda0 + 1 cannot run
        out["t_agreement"] = out["main2"] = lam0
    else:
        out["t_agreement"] = _run(verify_main1_t_agreement, A, B, sigma, lam0 + 1.0)
        out["main2"] = _run(lambda: verify_main2(good_position_shift(A, lam0 + 1.0),
                                                 good_position_shift(B, lam0 + 1.0), sigma))
    out["main_theorem"] = _run(verify_main_theorem, A, B, sigma)
    return out


def main():
    rng = np.random.default_rng(SEED)
    digests = {(n, kind): hashlib.sha256() for n in VERTEX_COUNTS for kind in KINDS}
    for index, g in enumerate(nx.graph_atlas_g()):
        n = g.number_of_nodes()
        if n not in VERTEX_COUNTS:
            continue
        graph = Graph6Record(n, nx.to_numpy_array(g, nodelist=range(n), dtype=int))
        random_tau = Permutation(tuple(int(v) for v in rng.permutation(n)))
        for tau_name, tau in (("identity", Permutation.identity(n)), ("random", random_tau)):
            A, B, sigma = gen_pair(graph, tau)
            reports = {"pair": pair_to_dict(A, B, sigma)}
            if sigma is not None:
                reports.update(pipeline(A, B, sigma))
            for kind, report in reports.items():
                digests[n, kind].update(f"{index} {tau_name} {dumps(report)}\n".encode("utf-8"))
    for (n, kind), digest in digests.items():
        print(digest.hexdigest(), f"n={n} {kind}")


if __name__ == "__main__":
    main()
