"""Simplicial cones and their ball-volume norms.

A cone is the set of nonnegative combinations of its generators (the vectors
u_i - u for an apex u); its norm is the volume of the intersection with the
unit ball of a declared ambient dimension, reported as a fraction of the ball.
Every comparison of estimates, here and in the geometry suite, allows SIGMAS
combined standard errors.

Ambient convention: the fraction is measured in `ambient_dim`, defaulting to
the dimension of the generator span. A declared ambient strictly above the
span dimension makes the cone measure zero and the fraction exactly 0. This
convention makes the norm invariant under orthogonal maps and lets cones
living in different coordinate spaces be compared through congruence.

Sampled path: since a cone is radial, the fraction of the ball inside it
equals the probability that a standard Gaussian direction lands in it. In
coefficient coordinates that direction is w ~ N(0, Gram^-1), Gram = G G^T
for generator rows G, so the fraction is the orthant probability P(w >= 0)
and depends on the Gram matrix alone: congruent cones get the same estimate.
`orthant.orthant_probability` computes it by Genz's separation of variables
on randomly shifted rank-1 lattices. `samples` stays the caller's Monte Carlo
budget: it buys ceil(samples / SAMPLES_PER_POINT) lattice evaluations, a
constant fixed by timing against the hit-or-miss sampler it replaced (see
the README). The estimate for a given (seed, samples) pair is bit-identical
from run to run, its standard error is the spread of the shifted replicates
(never 0), and its points are evaluated in bounded chunks, so memory stays
flat in `samples`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadPosition,
    DimensionMismatch,
    NonSimplicialCone,
    NotFinite,
    NotNested,
    PreconditionViolated,
)
from .matrixcore import REL_TOL, leave_one_out, scale
from .orthant import orthant_probability
from .presentation import Presentation, good_position_report

DEFAULT_SEED = 0x5EED
DEFAULT_SAMPLES = 200_000
COEF_TOL = 1e-12
SIGMAS = 4.0  # Monte Carlo comparisons allow this many combined standard errors
SAMPLES_PER_POINT = 125  # a Monte Carlo budget of `samples` buys samples / this lattice points
_INTERIOR_TOL = 1e-12


class AngleMethod(enum.Enum):
    MONTE_CARLO = "MonteCarlo"
    EXACT_2D = "Exact2D"
    EXACT_3D = "Exact3D"


def ball_volume(d: int) -> float:
    """Volume of the unit d-ball, pi^(d/2) / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Cone:
    """Apex plus generator vectors (rows); ambient_dim defaults to span dim."""

    apex: np.ndarray
    generators: np.ndarray
    ambient_dim: Optional[int] = None

    def __post_init__(self):
        apex = np.array(self.apex, dtype=float)
        gens = np.atleast_2d(np.array(self.generators, dtype=float))
        if gens.ndim != 2:
            raise DimensionMismatch(f"generators must be rows of a 2-D array, got {gens.shape}")
        if gens.shape[0] < 1:
            raise NonSimplicialCone("at least one generator required")
        if apex.shape != (gens.shape[1],):
            raise DimensionMismatch(f"apex in R^{apex.shape}, generators in R^{gens.shape[1]}")
        if self.ambient_dim is not None and self.ambient_dim > gens.shape[1]:
            raise DimensionMismatch("ambient_dim exceeds coordinate dimension")
        if not (np.isfinite(apex).all() and np.isfinite(gens).all()):
            raise NotFinite("cone apex or generators have a non-finite entry")
        apex.setflags(write=False)
        gens.setflags(write=False)
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "generators", gens)

    @property
    def k(self) -> int:
        return self.generators.shape[0]

    @classmethod
    def from_points(cls, apex, points) -> "Cone":
        apex = np.asarray(apex, dtype=float)
        return cls(apex=apex, generators=np.asarray(points, dtype=float) - apex)


@dataclass(frozen=True)
class SolidAngleEstimate:
    fraction: float
    abs_norm: float
    std_error: float
    samples: int
    method: AngleMethod


def _span_data(generators: np.ndarray):
    """(orthonormal basis of the span of the generator rows as columns, span rank);
    raises if they are dependent."""
    u, s, _ = np.linalg.svd(generators.T, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > REL_TOL * smax)) if smax > 0 else 0
    k = generators.shape[0]
    if rank < k:
        raise NonSimplicialCone(f"{k} generators span only {rank} dimensions")
    return u[:, :rank], rank


def _unit_scale(a: np.ndarray) -> np.ndarray:
    """a / (2 scale(a)), largest |entry| in [0.5, 1): exact; no product overflows or underflows."""
    return np.ldexp(a, -math.frexp(scale(a))[1])  # scale(a) = 2^(e - 1) has frexp exponent e


def cone_contains(cone: Cone, x) -> bool:
    """Membership of the vector x (taken relative to the cone vertex at 0).

    True iff x lies in the generator span and its unique expansion
    coefficients are all >= -coefTol. Boundary points count as inside.
    Membership does not change under positive scaling of the generators or
    of x, so each is read at unit scale, whatever its magnitude.
    """
    gens = _unit_scale(cone.generators)
    q, _ = _span_data(gens)
    x = _unit_scale(np.asarray(x, dtype=float))
    coords = q.T @ x
    resid = float(np.linalg.norm(x - q @ coords))
    if resid > REL_TOL * scale(np.linalg.norm(x)):
        return False
    coef = np.linalg.solve(q.T @ gens.T, coords)
    return bool(np.min(coef) >= -COEF_TOL)


def _estimate(fraction: float, d: int, std_error: float, samples: int,
              method: AngleMethod) -> SolidAngleEstimate:
    return SolidAngleEstimate(fraction=float(fraction), abs_norm=float(fraction) * ball_volume(d),
                              std_error=float(std_error), samples=samples, method=method)


def _exact_2d(generators: np.ndarray, d: int) -> SolidAngleEstimate:
    # planar angle via atan2(|cross|, dot), robust near 0 and pi
    g1, g2 = generators
    dot = float(g1 @ g2)
    cross_sq = float(g1 @ g1) * float(g2 @ g2) - dot * dot
    angle = math.atan2(math.sqrt(max(cross_sq, 0.0)), dot)
    return _estimate(angle / (2.0 * math.pi), d, 0.0, 0, AngleMethod.EXACT_2D)


def _exact_3d(generators: np.ndarray, q: np.ndarray, d: int) -> SolidAngleEstimate:
    """Spherical-triangle solid angle (van Oosterom-Strackee), over 4*pi; q is the span basis."""
    g = (q.T @ generators.T).T  # 3 generators in span coordinates
    g = g / np.linalg.norm(g, axis=1)[:, None]
    numer = abs(float(np.linalg.det(g)))
    denom = 1.0 + float(g[0] @ g[1]) + float(g[1] @ g[2]) + float(g[2] @ g[0])
    omega = 2.0 * math.atan2(numer, denom)
    return _estimate(omega / (4.0 * math.pi), d, 0.0, 0, AngleMethod.EXACT_3D)


def _zero_method(d: int) -> AngleMethod:
    if d == 2:
        return AngleMethod.EXACT_2D
    if d == 3:
        return AngleMethod.EXACT_3D
    return AngleMethod.MONTE_CARLO


def _require_count(name: str, value, least: int):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise PreconditionViolated(f"{name} must be an integer >= {least}, got {value!r}")


def angle_fraction(cone: Cone, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                   force_monte_carlo: bool = False) -> SolidAngleEstimate:
    """Fraction of the ambient unit ball covered by the cone.

    Dispatch: span below ambient gives exact 0 (lower-dimensional cones have
    measure zero); ambient 2 uses the planar angle; ambient 3 with three
    generators uses the spherical-triangle closed form; everything else is
    the sampled orthant probability (AngleMethod.MONTE_CARLO, see the module
    docstring). Every route sees the generators scaled by the one power of
    two that brings their largest entry into [0.5, 1), so the result does not
    move with the generators' scale. `force_monte_carlo` samples even where a
    closed form exists, for cross-validation. `samples` must be an integer
    >= 1 and `seed` an integer >= 0; bools are refused.
    """
    _require_count("samples", samples, 1)
    _require_count("seed", seed, 0)
    gens = _unit_scale(cone.generators)  # the fraction does not depend on scale
    q, rank = _span_data(gens)
    d = cone.ambient_dim if cone.ambient_dim is not None else rank
    if rank > d:
        raise DimensionMismatch(f"generators span {rank} dimensions, ambient is {d}")
    if rank < d:
        return _estimate(0.0, d, 0.0, 0, _zero_method(d))
    if not force_monte_carlo:
        if d == 2:
            return _exact_2d(gens, d)
        if d == 3 and cone.k == 3:
            return _exact_3d(gens, q, d)
    gram = gens @ gens.T
    fraction, std_error = orthant_probability(gram, -(-samples // SAMPLES_PER_POINT), seed)
    return _estimate(fraction, d, std_error, samples, AngleMethod.MONTE_CARLO)


def combined_std_error(*estimates: SolidAngleEstimate) -> float:
    return math.sqrt(sum(e.std_error ** 2 for e in estimates))


def monotonicity_check(cone_inner: Cone, cone_outer: Cone, samples: int = DEFAULT_SAMPLES,
                       seed: int = DEFAULT_SEED) -> bool:
    """Nested cones must have ordered norms, up to SIGMAS combined standard errors."""
    a, b = cone_inner.apex, cone_outer.apex
    if a.shape != b.shape or np.max(np.abs(a - b)) > REL_TOL * scale(a, b):
        raise NotNested("cones must share the apex")
    for g in cone_inner.generators:
        if not cone_contains(cone_outer, g):
            raise NotNested("inner generator outside the outer cone")
    inner = angle_fraction(cone_inner, samples, seed)
    outer = angle_fraction(cone_outer, samples, seed + 1)
    return inner.fraction <= outer.fraction + SIGMAS * combined_std_error(inner, outer)


def _affine_weights(vertices: np.ndarray, x: np.ndarray):
    """(weights w, projection p) of x onto aff(vertices), or None if the vertices are dependent.

    p = v_0 + sum_{i>0} w_i (v_i - v_0) by least squares, w_0 = 1 - sum_{i>0} w_i.
    """
    base = vertices[0]
    directions = (vertices[1:] - base).T
    sol, _, rank, _ = np.linalg.lstsq(directions, x - base, rcond=None)
    if rank < directions.shape[1]:
        return None
    return np.concatenate([[1.0 - float(np.sum(sol))], sol]), base + directions @ sol


@dataclass(frozen=True)
class ComparisonReport:
    lhs: SolidAngleEstimate
    rhs: SolidAngleEstimate
    strict: bool
    inconclusive: bool
    violated: bool
    margin: float


def _verdict(lhs: SolidAngleEstimate, rhs: SolidAngleEstimate) -> dict:
    """Strictness of rhs > lhs with a SIGMAS-sigma margin; closer calls are inconclusive."""
    margin = SIGMAS * combined_std_error(lhs, rhs)
    diff = rhs.fraction - lhs.fraction
    strict = diff > margin
    violated = diff < -margin
    return dict(strict=strict, inconclusive=not strict and not violated, violated=violated,
                margin=margin)


def comparison_check(u, points: Sequence, v, samples: int = DEFAULT_SAMPLES,
                     seed: int = DEFAULT_SEED) -> ComparisonReport:
    """Moving the apex to an interior point of the hull must enlarge the angle.

    Preconditions: the cone at u is simplicial with positive norm, and v is
    strictly interior to conv({u} union points): with the apex translated to
    the origin, v = sum alpha_i u_i with every alpha_i > 0 and sum alpha < 1.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    pts = np.asarray(points, dtype=float)
    affine = _affine_weights(np.vstack([u, pts]), v)
    if affine is None or (float(np.linalg.norm(affine[1] - v))
                          > 1e-9 * scale(np.linalg.norm(v - u))):
        raise PreconditionViolated("v is not in the affine span of the simplex at u")
    if np.min(affine[0]) <= _INTERIOR_TOL:
        raise PreconditionViolated("v is not strictly interior to conv({u} U points)")
    lhs_cone = Cone.from_points(u, pts)
    rhs_cone = Cone.from_points(v, pts)
    lhs = angle_fraction(lhs_cone, samples, seed)
    rhs = angle_fraction(rhs_cone, samples, seed + 1)
    return ComparisonReport(lhs=lhs, rhs=rhs, **_verdict(lhs, rhs))


@dataclass(frozen=True)
class DisplacementReport(ComparisonReport):
    rhs_congruent: SolidAngleEstimate
    gram_residual: float


def displacement_check(u, points: Sequence, v, samples: int = DEFAULT_SAMPLES,
                       seed: int = DEFAULT_SEED) -> DisplacementReport:
    """Displacing the apex orthogonally off the configuration shrinks the angle.

    Preconditions: (u - v) orthogonal to every u - u_i, u != v, and the
    projection of u onto aff(points) interior to the hull. Each cone is
    measured in its own span, of dimension len(points), or raises
    NonSimplicialCone; the displaced cone is cross-checked against its
    congruent in-span image v' = u + (1 - sqrt(|v-u|^2/|u0-u|^2 + 1)) (u0 - u),
    whose Gram matches.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    pts = np.asarray(points, dtype=float)
    if np.linalg.norm(u - v) <= _INTERIOR_TOL:
        raise PreconditionViolated("u and v must differ")
    gens_u = pts - u
    dots = gens_u @ (u - v)
    if float(np.max(np.abs(dots))) > 1e-9 * scale(gens_u * np.linalg.norm(u - v)):
        raise PreconditionViolated("u - v is not orthogonal to the u-generators")

    # projection of u onto aff(points): affine weights must be strictly positive
    affine = _affine_weights(pts, u)
    if affine is None:
        raise PreconditionViolated("affine hull of points is degenerate")
    weights, u0 = affine
    if np.min(weights) <= _INTERIOR_TOL:
        raise PreconditionViolated("projection of u is not interior to conv(points)")

    lhs = angle_fraction(Cone.from_points(u, pts), samples, seed)
    rhs = angle_fraction(Cone.from_points(v, pts), samples, seed + 1)

    dist_sq = float((v - u) @ (v - u))
    u0_sq = float((u0 - u) @ (u0 - u))
    vprime = u + (1.0 - math.sqrt(dist_sq / u0_sq + 1.0)) * (u0 - u)
    gram_v = (pts - v) @ (pts - v).T
    gram_vp = (pts - vprime) @ (pts - vprime).T
    gram_residual = float(np.max(np.abs(gram_v - gram_vp)))
    rhs_congruent = angle_fraction(Cone.from_points(vprime, pts), samples, seed + 2)

    return DisplacementReport(lhs=lhs, rhs=rhs, rhs_congruent=rhs_congruent,
                              gram_residual=gram_residual,
                              **_verdict(rhs, lhs))  # expects lhs > rhs


@dataclass(frozen=True)
class PartitionReport:
    sum_fraction: float
    ok: bool
    fractions: tuple
    combined_std_error: float


def partition_check(U: Presentation, samples: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> PartitionReport:
    """Leave-one-out cones of a good-position presentation tile the ball.

    The n cones cone(0, U without u_i), measured in the (n-1)-dimensional
    span, must have fractions summing to 1.
    """
    report = good_position_report(U.gram)
    if not report.is_good:
        raise BadPosition(f"presentation not in good position: {report.reason.value}")
    apex = np.zeros(U.columns.shape[0])
    cones = [Cone(apex=apex, generators=U.columns[:, keep].T) for keep in leave_one_out(U.n)]
    estimates = [angle_fraction(cone, samples, seed + i) for i, cone in enumerate(cones)]
    total = float(sum(e.fraction for e in estimates))
    err = combined_std_error(*estimates)
    ok = abs(total - 1.0) <= SIGMAS * err + 1e-9
    return PartitionReport(sum_fraction=total, ok=ok,
                           fractions=tuple(e.fraction for e in estimates),
                           combined_std_error=err)
