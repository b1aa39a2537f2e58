#!/usr/bin/env python3
"""Sweep every verifier over the relabeled-cycle corpus and print a summary.

Exit code 1 if any check fails, mirroring the CLI contract.
"""

import argparse
import sys

from reconlab import (
    lambda0_search,
    verify_eq1,
    verify_main1_t_agreement,
    verify_main2,
    verify_main_theorem,
    verify_tutte,
)
from reconlab.hypomorphism import cycle_pair_corpus
from reconlab.verifiers import good_position_shift


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()

    corpus = cycle_pair_corpus(ns=tuple(range(args.n_min, args.n_max + 1)))
    all_ok = True
    header = f"{'pair':<16}{'tutte':<8}{'eq1':<8}{'t-agree':<10}{'main':<8}{'kernel':<8}"
    print(header)
    print("-" * len(header))
    for pair in corpus:
        A, B, sigma = pair["A"], pair["B"], pair["sigma"]
        tutte = verify_tutte(A, B, sigma)
        eq1 = verify_eq1(A, B, sigma)
        lam0 = max(lambda0_search(A), lambda0_search(B))
        tagree = verify_main1_t_agreement(A, B, sigma, lam0 + 1.0)
        main_thm = verify_main_theorem(A, B, sigma)
        shift_a = good_position_shift(A, lam0 + 1.0)
        shift_b = good_position_shift(B, lam0 + 1.0)
        kernel = verify_main2(shift_a, shift_b, sigma)
        row_ok = all(r.passed for r in (tutte, eq1, tagree, main_thm, kernel))
        all_ok = all_ok and row_ok
        print(f"{pair['name']:<16}"
              f"{'ok' if tutte.passed else 'FAIL':<8}"
              f"{'ok' if eq1.passed else 'FAIL':<8}"
              f"{tagree.abs_diff:<10.1e}"
              f"{'ok' if main_thm.passed else 'FAIL':<8}"
              f"{kernel.kernel_alignment:<8.6f}")
    print("-" * len(header))
    print("all checks passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
