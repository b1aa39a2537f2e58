"""Gaussian orthant probabilities by Genz's separation of variables.

P(w >= 0) for w ~ N(0, Sigma) equals P(w <= 0), which Genz (1992) writes as
an integral over the unit cube: with Sigma = L L^T (L lower triangular, rows
scaled to a unit diagonal) and u in [0, 1]^(d-1),

    e_1 = 1/2,  y_i = Phi^-1(u_i e_i),  e_i = Phi(-sum_{k<i} L_ik y_k),
    f(u) = e_1 e_2 ... e_d,

and P(w <= 0) is the integral of f. The variables are ordered first by the
Genz-Bretz prioritisation (each step takes the variable whose expected
conditional probability is smallest), which puts the most variation in the
first coordinates.

The integral is taken over a rank-1 lattice {k z / n} with n prime, its
generating vector z built once per (n, dimension) by the fast
component-by-component construction of Nuyens & Cools (2006), randomised by
at least REPLICATES independent uniform shifts. The first SMOOTHED
coordinates take a quintic periodising transform, the rest the tent
transform, and each shifted lattice divides its sum by that of the
transform's weights, so a constant integrand (a product orthant) comes out
exact. Each shifted lattice gives one estimate; the reported value is their
mean and the standard error is their spread over the square root of their
number, floored at PHI_ERROR (the error of the numpy Phi and Phi^-1 below),
so it is never 0.

Phi is Cody's (1969) rational erfc and Phi^-1 is Wichura's (1988) AS241,
both in numpy, so no scipy is needed at run time. Each range's rational runs
over the powers of its own variable and only where it is needed: Cody's
small and mid ranges at every point over the powers of y = |x| / sqrt(2),
the range beyond y = 4 over r = 1/y^2 only at the points there; Wichura's
central rational at every point, and log, sqrt and the near and far tails
only at the points with q < 0.075, the far tail only if some t > 5. The
ranges' variables are strung together, one matrix product evaluates every
polynomial at once and each range divides only at its own points, so a Phi
or Phi^-1 call makes a fixed number of numpy calls, a few more when a tail
has points, whatever the number of points and the degree. A Phi call with a
point beyond y = 4 reads the whole Cody table, its y clipped at 27 (erfc(27)
is below the smallest normal double); one with none reads the first four
rows only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

REPLICATES = 32  # randomly shifted copies of the lattice, at least; their spread is the error
MAX_LATTICE = 181  # the largest lattice (a prime): beyond it a budget buys more shifts
CHUNK_POINTS = 4096  # at most this many points (whole shifted lattices) at once: flat memory
SMOOTHED = 3  # leading lattice coordinates that take the quintic transform, the rest the tent
PHI_ERROR = 1e-12  # floor of the reported standard error: the numpy Phi is this good
_TINY = np.finfo(float).tiny
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ERFC_CLIP = 27.0  # erfc(27) is below the smallest normal double
_HALF_RSQRT_PI = 0.5 / math.sqrt(math.pi)


def _in_square(poly) -> tuple:
    """A polynomial in y^2, highest power first, as one in y."""
    return tuple(c for a in poly[:-1] for c in (a, 0.0)) + (poly[-1],)


def _coefficients(*polys) -> np.ndarray:
    """One row per polynomial (highest power first), over the powers 0, 1, ... of its variable."""
    rows = np.zeros((len(polys), max(map(len, polys))))
    for row, poly in zip(rows, polys):
        row[:len(poly)] = poly[::-1]
    return rows


# Cody's erfc (CALERF): erf(y)/y for y <= 0.46875 as a rational in y^2 and
# e^(y^2) erfc(y) for y <= 4 as one in y, as numerator rows, then denominator
# rows; last, the numerator and denominator of (1/sqrt(pi) - e^(y^2) erfc(y) y) / r
# for y > 4 as one in r = 1/y^2, so a call with no point there reads _CODY[:4].
# The numerators are halved below, since Phi(-sqrt(2) y) = erfc(y) / 2.
_CODY = _coefficients(
    _in_square((1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
                3.77485237685302021e02, 3.20937758913846947e03)),
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    _in_square((1.0, 2.36012909523441209e01, 2.44024637934444173e02,
                1.28261652607737228e03, 2.84423683343917062e03)),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
# Wichura's AS241 (PPND16), numerator rows, then denominator rows: x = c A(r)/B(r)
# with c = q - 1/2 and r = 0.180625 - c^2 for |c| <= 0.425, and with t = sqrt(-log q),
# x = -C(t - 1.6)/D(t - 1.6) for t <= 5 and x = -E(t - 5)/F(t - 5) beyond (q <= 1/2;
# the tails' numerators are negated below). B stays above 0.002 for every q in
# [0, 1/2], so the central rational may run at every point.
_WICHURA = _coefficients(
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)
_CODY[[0, 1, 4]] *= 0.5
_WICHURA[1:3] *= -1.0


def _polynomials(coefs: np.ndarray, *variables: np.ndarray) -> np.ndarray:
    """Every row of coefs at every point of the variables, strung together in order.

    Each range's variable runs over that range's points only, and the caller
    reads the range's numerator and denominator rows at those points. The
    powers come by repeated doubling and one matrix product evaluates every
    polynomial. A lone point is evaluated twice, because BLAS takes its
    matrix-vector route for a single column and sums in another order there:
    a value must not depend on the points beside it.

    The powers and the values share one allocation: as two, the allocator
    could hand the heap's top back to the kernel between calls, and a
    10^6-sample estimate then took up to about 280 page faults to get it back.
    """
    count = sum(map(len, variables))
    width = coefs.shape[1]
    work = np.empty((width + len(coefs), count + (count == 1)))
    powers = work[:width]
    powers[0] = 1.0
    start = 0
    for v in variables:
        powers[1, start:start + len(v)] = v
        start += len(v)
    if count == 1:
        powers[1, 1] = powers[1, 0]
    done = 2  # powers 0..done-1 are filled
    while done < width:
        step = min(done - 1, width - done)
        np.multiply(powers[1:1 + step], powers[done - 1], powers[done:done + step])
        done += step
    return np.matmul(coefs, powers, out=work[width:])


def _half_erfc(y: np.ndarray) -> np.ndarray:
    """erfc(y) / 2 for y >= 0, that is Phi(-sqrt(2) y) (Cody 1969)."""
    n = len(y)
    big = y > 4.0
    if not big.any():  # no point in the tail's range: its rows and variable are left out
        nd = _polynomials(_CODY[:4], y)
        small, tail = nd[:2, :n] / nd[2:, :n]
    else:
        y = np.minimum(y, _ERFC_CLIP)
        yb = y[big]
        r = 1.0 / (yb * yb)
        nd = _polynomials(_CODY, y, r)
        small, tail = nd[:2, :n] / nd[2:4, :n]
        tail[big] = (_HALF_RSQRT_PI - r * (nd[4, n:] / nd[5, n:])) / yb
    # e^(-y^2) in one factor: y = |x| / sqrt(2) is rounded already, so Cody's split buys nothing
    tail *= np.exp(-y * y)
    return np.where(y <= 0.46875, 0.5 - y * small, tail)


def ndtr(x: np.ndarray) -> np.ndarray:
    """The standard normal distribution function Phi, elementwise over a 1-D array."""
    h = _half_erfc(_SQRT_HALF * np.abs(x))
    return np.where(x < 0.0, h, 1.0 - h)


def _lower_ndtri(q: np.ndarray) -> np.ndarray:
    """Phi^-1(q) for q <= 1/2 (Wichura 1988); q below tiny counts as tiny, so 0 stays finite."""
    n = len(q)
    c = q - 0.5
    tail = q < 0.075
    t = np.sqrt(-np.log(np.maximum(q[tail], _TINY)))
    m = n + len(t)  # the tail's points end here
    far = t > 5.0
    variables = [0.180625 - c * c, t - 1.6]
    if np.count_nonzero(far):
        variables.append(t[far] - 5.0)
    nd = _polynomials(_WICHURA, *variables)
    x = c * (nd[0, :n] / nd[3, :n])
    near = nd[1, n:m] / nd[4, n:m]
    if len(variables) == 3:
        near[far] = nd[2, m:] / nd[5, m:]
    x[tail] = near
    return x


def ndtri(p: np.ndarray) -> np.ndarray:
    """Phi^-1, elementwise; p is clipped into [tiny, 1 - tiny], so 0 and 1 stay finite."""
    # the lower-tail probability min(p, 1 - p) is exact for p >= 1/2 too
    return np.copysign(_lower_ndtri(np.minimum(p, 1.0 - p)), p - 0.5)


def _genz_bretz(sigma: np.ndarray) -> np.ndarray:
    """Cholesky factor of Sigma, variables reordered by Genz-Bretz, rows over their diagonal.

    Step i takes, among the variables left, the one whose conditional upper
    limit b = -mean / sd is smallest, where mean = sum_k L_jk E[y_k] runs over
    the variables already taken at their truncated means E[y | y <= b] =
    -phi(b) / Phi(b), and sd is the conditional standard deviation.
    """
    d = sigma.shape[0]
    c = sigma.tolist()
    var = [c[j][j] for j in range(d)]  # conditional variance of each variable left
    mean = [0.0] * d  # and its conditional mean
    low = [[0.0] * d for _ in range(d)]
    for i in range(d):
        j = i
        for k in range(i + 1, d):
            if -mean[k] * math.sqrt(max(var[j], _TINY)) < -mean[j] * math.sqrt(max(var[k], _TINY)):
                j = k  # b_k < b_j, compared without dividing
        for seq in (c, var, mean, low):
            seq[i], seq[j] = seq[j], seq[i]
        for line in c:
            line[i], line[j] = line[j], line[i]
        sd = low[i][i] = math.sqrt(max(var[i], _TINY))
        b = -mean[i] / sd
        cdf = 0.5 * math.erfc(-b * _SQRT_HALF)
        taken = -math.exp(-0.5 * b * b) / _SQRT_2PI / cdf if cdf > 0.0 else b
        row = low[i]
        for k in range(i + 1, d):
            other = low[k]
            lk = other[i] = (c[k][i] - sum(other[m] * row[m] for m in range(i))) / sd
            var[k] -= lk * lk
            mean[k] += lk * taken
    low = np.array(low)
    return low / low.diagonal()[:, None]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _primitive_root(n: int) -> int:
    """Smallest generator of the multiplicative group mod the prime n."""
    factors, m, p = [], n - 1, 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(2, n) if all(pow(g, (n - 1) // f, n) != 1 for f in factors))


@functools.lru_cache(maxsize=64)
def lattice(n: int, dim: int) -> np.ndarray:
    """Generating vector of an n-point rank-1 lattice in dim dimensions (n prime or 1).

    Fast component-by-component construction (Nuyens & Cools 2006) for the
    Korobov space of smoothness 2 with product weights 1/j: component j
    minimises the squared worst-case error given the components before it.
    With g a primitive root, candidate g^a and point g^-b meet in g^(a-b),
    so the errors of all n - 1 candidates are one circular convolution,
    taken with numpy.fft.
    """
    z = np.ones(dim, dtype=np.int64)
    if n <= 3:  # every candidate gives the same lattice
        z.setflags(write=False)
        return z
    g = _primitive_root(n)
    powers = np.empty(n - 1, dtype=np.int64)  # g^a mod n, by doubling blocks
    powers[0], size = 1, 1
    while size < n - 1:
        step = min(size, n - 1 - size)
        powers[size:size + step] = powers[:step] * pow(g, size, n) % n
        size += step
    x = np.arange(n) / n
    omega = 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0)  # the kernel, 2 pi^2 B_2(x)
    kernel = np.fft.fft(omega[powers])
    inverse = powers[-np.arange(n - 1) % (n - 1)]  # g^-b mod n
    prod = np.ones(n)  # prod[k] = product over chosen j of (1 + gamma_j omega(k z_j / n))
    for j in range(dim):
        if j:
            err = np.fft.ifft(kernel * np.fft.fft(prod[inverse])).real
            z[j] = powers[int(np.argmin(err))]
        prod *= 1.0 + omega[np.arange(n) * z[j] % n] / (j + 1)
    z.setflags(write=False)
    return z


@functools.lru_cache(maxsize=64)
def _points(n: int, dim: int) -> np.ndarray:
    """The unshifted lattice points k z / n, k = 0..n-1, one row per coordinate (read-only)."""
    points = np.multiply.outer(lattice(n, dim), np.arange(n)) % n / n
    points.setflags(write=False)
    return points


@functools.lru_cache(maxsize=64)
def lattice_size(evaluations: int) -> int:
    """Points per shifted lattice: the largest prime up to evaluations / REPLICATES
    and MAX_LATTICE, or 1.

    Larger lattices are more accurate per point, but their errors over random
    shifts grow heavy tails that the spread of a few dozen shifts misses: of
    1000 seeded estimates of the 1/(d+1) cones at d = 3..6 with 8000 points,
    3 fell beyond 4 standard errors with 32 shifts of 241 points and none with
    44 shifts of 181. Past MAX_LATTICE a budget buys more shifts instead.
    """
    n = min(evaluations // REPLICATES, MAX_LATTICE)
    while n >= 2 and not _is_prime(n):
        n -= 1
    return max(n, 1)


def _periodise(x: np.ndarray) -> tuple:
    """(u, weight) with the integral of f(u) * weight over x equal to that of f over u.

    The first SMOOTHED coordinates take the quintic transform u = x^3 (10 - 15x + 6x^2),
    whose weight 30 x^2 (1 - x)^2 makes the integrand vanish to second order at the
    faces of the cube, and the rest the tent transform u = 1 - |2x - 1| (weight 1).
    """
    head = x[:SMOOTHED]
    sq = head * head
    u = np.empty_like(x)
    u[:SMOOTHED] = sq * head * (10.0 + head * (6.0 * head - 15.0))
    if len(x) > SMOOTHED:
        u[SMOOTHED:] = 1.0 - np.abs(2.0 * x[SMOOTHED:] - 1.0)
    weight = np.multiply.reduce(30.0 * sq * np.square(1.0 - head), axis=0)
    return u, weight


def orthant_probability(gram: np.ndarray, evaluations: int, seed: int) -> tuple:
    """(P(w >= 0), standard error) for w ~ N(0, gram^-1), from about `evaluations` points.

    The estimate reads only the Gram matrix. It is deterministic in (gram,
    evaluations, seed): one generator default_rng(seed) draws the shifts, row
    r being shift r, and at most CHUNK_POINTS points are evaluated at a time.
    """
    minus_low = -_genz_bretz(np.linalg.inv(gram))
    d = minus_low.shape[0]
    dim = d - 1
    if dim == 0:
        return 0.5, PHI_ERROR
    n = lattice_size(evaluations)
    base = _points(n, dim)
    shifts_count = max(REPLICATES, evaluations // MAX_LATTICE)
    shifts = np.random.default_rng(seed).random((shifts_count, dim)).T
    sums = np.empty(shifts_count)
    norms = np.empty(shifts_count)  # each shifted lattice's sum of the transform's weights
    per_chunk = max(1, CHUNK_POINTS // n)  # whole shifted lattices per chunk
    for first in range(0, shifts_count, per_chunk):
        taken = slice(first, min(first + per_chunk, shifts_count))
        x = (base[:, None, :] + shifts[:, taken, None]).reshape(dim, -1)
        x -= np.floor(x)
        u, weight = _periodise(x)
        norms[taken] = weight.reshape(-1, n).sum(axis=1)
        y = np.empty_like(x)
        y[0] = _lower_ndtri(0.5 * u[0])
        f = 0.5 * weight
        for i in range(1, d):
            e = ndtr(minus_low[i, :i] @ y[:i])
            f *= e
            if i < dim:
                y[i] = ndtri(u[i] * e)
        sums[taken] = f.reshape(-1, n).sum(axis=1)
    estimates = sums / norms
    mean = estimates.sum() / shifts_count
    spread = math.sqrt(float(np.square(estimates - mean).sum())
                       / (shifts_count * (shifts_count - 1)))
    return float(mean), max(spread, PHI_ERROR)
