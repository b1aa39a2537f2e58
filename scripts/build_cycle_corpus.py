#!/usr/bin/env python3
"""Build the relabeled-cycle pair corpus as JSON files.

Writes one pair file per (n, relabeling) plus a graph6 file with the raw
cycles, ready for `reconlab verify-tutte --pair ...`.
"""

import argparse
import os

from reconlab.graph6 import graph6_encode
from reconlab.hypomorphism import CORPUS_MIN_ORDER, SEARCH_CAP, cycle_adjacency, cycle_pair_corpus
from reconlab.serialize import dumps, pair_to_dict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="corpus", help="output directory")
    # the corpus starts at CORPUS_MIN_ORDER, and the search certifies no order past SEARCH_CAP
    parser.add_argument("--n-min", type=int, default=CORPUS_MIN_ORDER,
                        help=f"smallest cycle order, at least {CORPUS_MIN_ORDER}")
    parser.add_argument("--n-max", type=int, default=8,
                        help=f"largest cycle order, at most {SEARCH_CAP} (the search's cap)")
    args = parser.parse_args()
    if not CORPUS_MIN_ORDER <= args.n_min <= args.n_max <= SEARCH_CAP:
        parser.error(f"need {CORPUS_MIN_ORDER} <= --n-min <= --n-max <= {SEARCH_CAP}, "
                     f"got --n-min {args.n_min} --n-max {args.n_max}")

    os.makedirs(args.out, exist_ok=True)
    ns = tuple(range(args.n_min, args.n_max + 1))
    with open(os.path.join(args.out, "cycles.g6"), "w") as fh:
        fh.write("# cycle graphs C%d..C%d\n" % (args.n_min, args.n_max))
        for n in ns:
            fh.write(graph6_encode(cycle_adjacency(n).entries) + "\n")

    for pair in cycle_pair_corpus(ns=ns):
        path = os.path.join(args.out, f"{pair['name']}.json")
        with open(path, "w") as fh:
            fh.write(dumps(pair_to_dict(pair["A"], pair["B"], pair["sigma"])) + "\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
