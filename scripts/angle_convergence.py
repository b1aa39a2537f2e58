#!/usr/bin/env python3
"""Monte Carlo convergence against the closed-form solid angles.

Prints CSV rows (samples, estimate, abs_error, std_error, error_in_sigmas,
seconds, error_sqrt_s) for the octant, a random spherical-triangle cone, the
4-D orthant (exact fraction 1/16; a product orthant comes out exact) and the
5-D cone whose coefficients have correlation 1/2 (exact fraction 1/6; the
program has no closed form above 3-D and always samples). The error falls
with the budget, error_sqrt_s = abs_error * sqrt(seconds) is the figure of
merit that weighs accuracy against time, and error_in_sigmas shows whether
std_error is honest: the script exits with status 1 when any row lies beyond
SIGMAS standard errors.
"""

import argparse
import math
import sys
import time

import numpy as np

from reconlab import Cone, angle_fraction
from reconlab.solidangle import SIGMAS


def sweep(name, cone, exact, seed, sample_grid) -> bool:
    """Print one row per budget; True when every row lies within SIGMAS standard errors."""
    print(f"# {name}: exact fraction {exact:.12f}")
    print("samples,estimate,abs_error,std_error,error_in_sigmas,seconds,error_sqrt_s")
    honest = True
    for samples in sample_grid:
        start = time.perf_counter()
        est = angle_fraction(cone, samples=samples, seed=seed, force_monte_carlo=True)
        seconds = time.perf_counter() - start
        err = abs(est.fraction - exact)
        sigmas = err / est.std_error
        honest = honest and sigmas <= SIGMAS
        print(f"{samples},{est.fraction:.10f},{err:.3e},{est.std_error:.3e},{sigmas:.2f},"
              f"{seconds:.3e},{err * math.sqrt(seconds):.3e}")
    return honest


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--max-exponent", type=int, default=6,
                        help="largest sample count is 10^this")
    args = parser.parse_args()

    grid = [10 ** k for k in range(2, args.max_exponent + 1)]
    octant = Cone(apex=np.zeros(3), generators=np.eye(3))
    rng = np.random.default_rng(args.seed)
    gens = rng.standard_normal((3, 3))
    while abs(np.linalg.det(gens)) < 0.1:
        gens = rng.standard_normal((3, 3))
    triangle = Cone(apex=np.zeros(3), generators=gens)
    # generators whose Gram inverse is 0.5 I + 0.5 J: P(w >= 0) = 1/(d + 1)
    equicorrelated = Cone(apex=np.zeros(5),
                          generators=np.linalg.cholesky(np.linalg.inv(0.5 * np.eye(5) + 0.5)))
    cases = [("octant", octant, angle_fraction(octant).fraction),
             ("random spherical triangle", triangle, angle_fraction(triangle).fraction),
             ("4-D orthant", Cone(apex=np.zeros(4), generators=np.eye(4)), 1.0 / 16.0),
             ("5-D cone, coefficient correlation 1/2", equicorrelated, 1.0 / 6.0)]
    honest = [sweep(name, cone, exact, args.seed + k, grid)
              for k, (name, cone, exact) in enumerate(cases)]
    if not all(honest):
        print(f"# some estimate lies beyond {SIGMAS} standard errors", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
