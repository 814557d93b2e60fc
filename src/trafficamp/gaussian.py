"""Exact moments of polynomials in correlated Gaussians, and polynomial presets.

Expectations are computed by enumerating pair matchings (Isserlis), with
deterministic coordinates (e.g. a constant initial state) handled as plain
constants rather than degenerate covariances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

DEGREE_CAP = 16


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with coefficients in ascending degree order."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0.0:
            cs = cs[:-1]
        if not cs:
            cs = (0.0,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = np.zeros_like(np.asarray(x, dtype=np.float64))
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self):
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))


# ReLU projected onto polynomials of degree <= 3 under the standard Gaussian
# (Hermite coefficients; the cubic Hermite coefficient of ReLU vanishes).
_RELU_H0 = 1.0 / np.sqrt(2 * np.pi)
POLY_PRESETS = {
    "identity": Polynomial((0.0, 1.0)),
    "square_centered": Polynomial((-1.0, 0.0, 1.0)),
    "cube_hermite": Polynomial((0.0, -3.0, 0.0, 1.0)),
    "relu_poly3": Polynomial((_RELU_H0 - _RELU_H0 / 2, 0.5, _RELU_H0 / 2, 0.0)),
}


def named_polynomial(spec):
    """Resolve a preset name or coefficient list into a Polynomial."""
    if isinstance(spec, Polynomial):
        return spec
    if isinstance(spec, str):
        if spec not in POLY_PRESETS:
            raise ValueError("unknown polynomial preset %r" % spec)
        return POLY_PRESETS[spec]
    return Polynomial(tuple(spec))


class GaussianLaw:
    """A jointly Gaussian vector, with optional deterministic coordinates.

    Deterministic coordinates take their mean value with probability one and
    must have zero covariance rows; random coordinates must be centered.
    """

    def __init__(self, cov, mean=None, deterministic=None):
        self.cov = np.asarray(cov, dtype=np.float64)
        k = self.cov.shape[0]
        if self.cov.shape != (k, k) or not np.allclose(self.cov, self.cov.T):
            raise ValueError("covariance must be square symmetric")
        self.mean = np.zeros(k) if mean is None else np.asarray(mean, dtype=np.float64)
        self.deterministic = tuple(bool(b) for b in (deterministic or [False] * k))
        if len(self.mean) != k or len(self.deterministic) != k:
            raise ValueError("mean/deterministic size mismatch")
        for i in range(k):
            if self.deterministic[i]:
                if np.any(self.cov[i] != 0):
                    raise ValueError("deterministic coordinate %d has covariance" % i)
            elif self.mean[i] != 0:
                raise ValueError("random coordinates must be centered")
        self._cache = {}

    @property
    def dim(self):
        return self.cov.shape[0]


def _matching_sum(xs, cov, cache):
    """Sum over perfect matchings of the index list xs of prod cov[u,v]."""
    xs = tuple(sorted(xs))
    if len(xs) % 2 == 1:
        return 0.0
    if not xs:
        return 1.0
    if xs in cache:
        return cache[xs]
    first, rest = xs[0], xs[1:]
    total = 0.0
    for j in range(len(rest)):
        total += cov[first, rest[j]] * _matching_sum(rest[:j] + rest[j + 1:], cov, cache)
    cache[xs] = total
    return total


def isserlis_moment(exponents, law):
    """E[prod X_i^{e_i}] for the given Gaussian law (Isserlis/Wick formula)."""
    if isinstance(exponents, dict):
        exponents = [exponents.get(i, 0) for i in range(law.dim)]
    exponents = [int(e) for e in exponents]
    if len(exponents) != law.dim:
        raise ValueError("one exponent per coordinate")
    if sum(exponents) > DEGREE_CAP:
        raise ValueError("total degree %d exceeds cap %d" % (sum(exponents), DEGREE_CAP))
    const = 1.0
    xs = []
    for i, e in enumerate(exponents):
        if e < 0:
            raise ValueError("negative exponent")
        if law.deterministic[i]:
            const *= law.mean[i] ** e
        else:
            xs.extend([i] * e)
    return const * _matching_sum(tuple(xs), law.cov, law._cache)


def poly_expectation(ps, law):
    """E[prod_i p_i(X_i)] for polynomials attached to coordinates.

    ps maps coordinate -> Polynomial; omitted coordinates contribute 1.
    Exact via monomial expansion through isserlis_moment.
    """
    items = sorted(ps.items())
    if sum(p.degree for _, p in items) > DEGREE_CAP:
        raise ValueError("total degree exceeds cap %d" % DEGREE_CAP)
    total = 0.0
    for picks in itertools.product(*[range(p.degree + 1) for _, p in items]):
        coef = 1.0
        expo = [0] * law.dim
        for (i, p), k in zip(items, picks):
            coef *= p.coeffs[k]
            expo[i] += k
        if coef != 0.0:
            total += coef * isserlis_moment(expo, law)
    return total
