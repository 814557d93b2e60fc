import numpy as np
import pytest

from trafficamp.gaussian import (GaussianLaw, POLY_PRESETS, Polynomial,
                                 isserlis_moment, named_polynomial,
                                 poly_expectation)


def _rand_law(rng, k):
    b = rng.standard_normal((k, k))
    return GaussianLaw(b @ b.T)


def test_polynomial_basics():
    p = Polynomial((0, 0, 0, 1.0))
    assert p.derivative().coeffs == (0.0, 0.0, 3.0)
    assert Polynomial((5.0,)).derivative().coeffs == (0.0,)
    assert Polynomial((-1.0, 0.0, 1.0)).derivative().coeffs == (0.0, 2.0)
    assert p(2.0) == 8.0
    assert np.allclose(POLY_PRESETS["cube_hermite"](np.array([2.0])), [2.0])
    assert named_polynomial([1, 2]).coeffs == (1.0, 2.0)
    assert named_polynomial("identity") is POLY_PRESETS["identity"]


def test_isserlis_examples():
    unit = GaussianLaw([[1.0]])
    assert abs(isserlis_moment([4], unit) - 3.0) < 1e-12
    assert isserlis_moment([3], unit) == 0.0
    rng = np.random.default_rng(0)
    law = _rand_law(rng, 4)
    s = law.cov
    v = isserlis_moment([1, 1, 1, 1], law)
    assert abs(v - (s[0, 1] * s[2, 3] + s[0, 2] * s[1, 3] + s[0, 3] * s[1, 2])) < 1e-12
    v = isserlis_moment([2, 2, 0, 0], law)
    assert abs(v - (s[0, 0] * s[1, 1] + 2 * s[0, 1] ** 2)) < 1e-12


def test_deterministic_coordinates():
    law = GaussianLaw([[0, 0], [0, 2.0]], mean=[3.0, 0.0],
                      deterministic=[True, False])
    assert abs(isserlis_moment([2, 2], law) - 9.0 * 2.0) < 1e-12
    with pytest.raises(ValueError):
        GaussianLaw([[1.0, 0], [0, 1.0]], mean=[1.0, 0.0],
                    deterministic=[True, False])


def test_poly_expectation():
    sq = Polynomial((0, 0, 1.0))
    assert abs(poly_expectation({0: sq}, GaussianLaw([[2.5]])) - 2.5) < 1e-12
    rng = np.random.default_rng(1)
    law = _rand_law(rng, 3)
    ident = POLY_PRESETS["identity"]
    assert abs(poly_expectation({0: ident, 1: ident}, law) - law.cov[0, 1]) < 1e-12
    h3 = POLY_PRESETS["cube_hermite"]
    unit = GaussianLaw([[1.0]])
    assert abs(poly_expectation({0: h3}, unit)) < 1e-12
    same = GaussianLaw([[1.0, 1.0], [1.0, 1.0]])
    assert abs(poly_expectation({0: h3, 1: h3}, same) - 6.0) < 1e-12


def test_poly_expectation_linearity():
    rng = np.random.default_rng(2)
    law = _rand_law(rng, 2)
    p = Polynomial(tuple(rng.standard_normal(4)))
    q = Polynomial(tuple(rng.standard_normal(4)))
    other = Polynomial(tuple(rng.standard_normal(3)))
    combined = Polynomial(tuple(2.0 * np.pad(p.coeffs, (0, 4 - len(p.coeffs)))
                                - 3.0 * np.pad(q.coeffs, (0, 4 - len(q.coeffs)))))
    lhs = poly_expectation({0: combined, 1: other}, law)
    rhs = (2.0 * poly_expectation({0: p, 1: other}, law)
           - 3.0 * poly_expectation({0: q, 1: other}, law))
    assert abs(lhs - rhs) < 1e-10


def test_isserlis_vs_monte_carlo_smoke():
    rng = np.random.default_rng(5)
    law = _rand_law(rng, 3)
    chol = np.linalg.cholesky(law.cov + 1e-12 * np.eye(3))
    x = rng.standard_normal((400000, 3)) @ chol.T
    sample = x[:, 0] ** 2 * x[:, 1] * x[:, 2]
    emp, se = sample.mean(), sample.std() / np.sqrt(len(sample))
    exact = isserlis_moment([2, 1, 1], law)
    assert abs(emp - exact) < 4 * se


def test_degree_caps():
    unit = GaussianLaw([[1.0]])
    with pytest.raises(ValueError):
        isserlis_moment([18], unit)
