#!/usr/bin/env python3
"""Monte Carlo convergence against the closed-form solid angles.

Prints CSV rows (samples, estimate, error, std_error, sigmas) for the octant,
a random spherical-triangle cone and the 4-D orthant (exact fraction 1/16,
where the program has no closed form and always samples), so the 1/sqrt(N)
decay is visible and the error in sigmas shows whether std_error is honest.
"""

import argparse

import numpy as np

from reconlab import Cone, angle_fraction


def sweep(name, cone, exact, seeds, sample_grid):
    print(f"# {name}: exact fraction {exact:.12f}")
    print("samples,estimate,abs_error,std_error,error_in_sigmas")
    for samples in sample_grid:
        est = angle_fraction(cone, samples=samples, seed=seeds, force_monte_carlo=True)
        err = abs(est.fraction - exact)
        sigmas = err / est.std_error if est.std_error else 0.0
        print(f"{samples},{est.fraction:.8f},{err:.3e},{est.std_error:.3e},{sigmas:.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--max-exponent", type=int, default=6,
                        help="largest sample count is 10^this")
    args = parser.parse_args()

    grid = [10 ** k for k in range(2, args.max_exponent + 1)]
    octant = Cone(apex=np.zeros(3), generators=np.eye(3))
    sweep("octant", octant, angle_fraction(octant).fraction, args.seed, grid)
    rng = np.random.default_rng(args.seed)
    gens = rng.standard_normal((3, 3))
    while abs(np.linalg.det(gens)) < 0.1:
        gens = rng.standard_normal((3, 3))
    triangle = Cone(apex=np.zeros(3), generators=gens)
    sweep("random spherical triangle", triangle, angle_fraction(triangle).fraction,
          args.seed + 1, grid)
    sweep("4-D orthant", Cone(apex=np.zeros(4), generators=np.eye(4)), 1.0 / 16.0,
          args.seed + 2, grid)


if __name__ == "__main__":
    main()
