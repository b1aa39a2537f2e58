#!/usr/bin/env python3
"""Print one `sha256 label` line per deterministic CLI report on the cycle corpus.

Builds the relabeled-cycle pairs C5..C8 in a temporary directory and runs a
fixed list of `reconlab <command> --deterministic` calls in-process: `deck`,
`verify-tutte` on every pair (and once with explicit grids), `verify-main` on
every pair and a closed-form `angle`, then the sampled commands: Monte Carlo
`angle` on the 4-D orthant (70,001 samples; a product orthant comes out exact
with a nonzero error), on a skewed 5-D cone (131,072 samples: 32 shifts of a
31-point lattice) and on a skewed 6-D cone (1,048,577 samples: 46 shifts of
the largest, 181-point lattice, evaluated in three chunks), a small
`verify-geometry` and the README's default one on 200 instances (it exits 1
on the known `exact_vs_monte_carlo` failure, and the exit code is part of
its digest). Each digest covers the exit code, stdout and stderr, so
two runs or two checkouts compare with `diff`:

    PYTHONPATH=src python scripts/cli_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile

from reconlab import cli
from reconlab.hypomorphism import cycle_adjacency, cycle_pair_corpus
from reconlab.serialize import dumps, matrix_to_dict, pair_to_dict

OCTANT = {"apex": [0.0, 0.0, 0.0],
          "generators": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
ORTHANT4 = {"apex": [0.0] * 4,
            "generators": [[float(i == j) for j in range(4)] for i in range(4)]}


def skewed_cone(d: int) -> dict:
    """Generators e_i + 0.3 (e_{i+1} + ... + e_d): a cone whose coefficient map is not I."""
    return {"apex": [0.0] * d,
            "generators": [[float(i == j) + 0.3 * (j > i) for j in range(d)] for i in range(d)]}


def _write(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj) + "\n")
    return path


def commands(root: str) -> list:
    """(label, argv) for every command; the input files are written under root."""
    out = []
    for n in (5, 8):
        path = _write(os.path.join(root, f"C{n}.matrix.json"), matrix_to_dict(cycle_adjacency(n)))
        out.append((f"deck C{n}", ["deck", "--matrix", path]))
    pairs = [(p["name"], _write(os.path.join(root, f"{p['name']}.json"),
                                pair_to_dict(p["A"], p["B"], p["sigma"])))
             for p in cycle_pair_corpus()]
    out += [(f"verify-tutte {name}", ["verify-tutte", "--pair", path]) for name, path in pairs]
    name, path = pairs[-1]
    out.append((f"verify-tutte {name} explicit-grids",
                ["verify-tutte", "--pair", path, "--grid-lambda=-3:3:11", "--grid-t=-1,0,2"]))
    out += [(f"verify-main {name}", ["verify-main", "--pair", path]) for name, path in pairs]
    octant = _write(os.path.join(root, "octant.json"), OCTANT)
    out.append(("angle octant", ["angle", "--cone", octant]))
    orthant4 = _write(os.path.join(root, "orthant4.json"), ORTHANT4)
    out.append(("angle orthant4 monte-carlo",
                ["angle", "--cone", orthant4, "--monte-carlo", "--samples", "70001", "--seed", "7"]))
    for d, samples in ((5, 2 * 65_536), (6, 16 * 65_536 + 1)):
        cone = _write(os.path.join(root, f"skewed{d}.json"), skewed_cone(d))
        out.append((f"angle skewed{d} monte-carlo {samples}",
                    ["angle", "--cone", cone, "--monte-carlo", "--samples", str(samples),
                     "--seed", "11"]))
    out.append(("verify-geometry count-2",
                ["verify-geometry", "--count", "2", "--samples", "20000", "--seed", "24301"]))
    out.append(("verify-geometry readme-default",
                ["verify-geometry", "--count", "200", "--seed", "24301"]))
    return out


def main():
    with tempfile.TemporaryDirectory() as root:
        for label, argv in commands(root):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv + ["--deterministic"])
                except SystemExit as exc:  # usage errors leave argparse this way
                    code = exc.code
            text = f"{code}\n{stdout.getvalue()}{stderr.getvalue()}"
            print(hashlib.sha256(text.encode("utf-8")).hexdigest(), label)


if __name__ == "__main__":
    main()
