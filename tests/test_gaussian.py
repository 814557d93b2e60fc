import numpy as np
import pytest

from trafficamp.gaussian import (GaussianLaw, POLY_PRESETS, Polynomial,
                                 isserlis_moment, named_polynomial,
                                 poly_expectation, wick_product,
                                 _partial_matchings_on)


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


def test_wick_products():
    unit = GaussianLaw([[1.0]])
    assert wick_product({0: 1}, unit) == {(0,): 1.0}
    h2 = wick_product({0: 2}, unit)
    assert h2[(0, 0)] == 1.0 and abs(h2[()] + 1.0) < 1e-12
    h4 = wick_product({0: 4}, unit)
    assert h4[(0, 0, 0, 0)] == 1.0
    assert abs(h4[(0, 0)] + 6.0) < 1e-12
    assert abs(h4[()] - 3.0) < 1e-12


def test_wick_orthogonality():
    rng = np.random.default_rng(3)
    law = _rand_law(rng, 4)
    for a, b in (((0,), (0, 0)), ((0, 1), (1,)), ((0, 0, 1), (0, 1))):
        ea = wick_product(list(a), law)
        eb = wick_product(list(b), law)
        total = 0.0
        for ma, ca in ea.items():
            for mb, cb in eb.items():
                expo = [0] * 4
                for i in ma + mb:
                    expo[i] += 1
                total += ca * cb * isserlis_moment(expo, law)
        assert abs(total) < 1e-10


def test_wick_recursion_identity():
    # prod X_{i_j} = sum over matchings of cov products times Wick products,
    # as an identity between monomial expansions
    rng = np.random.default_rng(4)
    law = _rand_law(rng, 4)
    for idxs in ((0,), (0, 0), (0, 1), (0, 1, 2), (0, 0, 1, 2), (0, 1, 1, 2, 3, 3)):
        lhs = {tuple(sorted(idxs)): 1.0}
        rhs = {}
        k = len(idxs)
        for m in _partial_matchings_on(list(range(k))):
            coef = 1.0
            for u, v in m:
                coef *= law.cov[idxs[u], idxs[v]]
            matched = {u for pair in m for u in pair}
            rest = [idxs[u] for u in range(k) if u not in matched]
            for mono, c2 in wick_product(rest, law).items():
                rhs[mono] = rhs.get(mono, 0.0) + coef * c2
        for key in set(lhs) | set(rhs):
            assert abs(lhs.get(key, 0.0) - rhs.get(key, 0.0)) < 1e-9


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
    with pytest.raises(ValueError):
        wick_product({0: 11}, unit)
