"""Property tests: the contraction engine and the exact Onsager sums against
their nested-loop oracles on random small multigraphs and matrices, and
round trips of cumulant tables."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from trafficamp import graphpoly as gp
from trafficamp.amp import onsager_b, onsager_b_brute
from trafficamp.diagrams import Diagram
from trafficamp.freeprob import (CumulantTable, cumulants_to_moments,
                                 moments_to_cumulants)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def multigraphs(draw):
    """A diagram on at most 5 vertices with loops, parallel edges and 0-2 roots."""
    k = draw(st.integers(1, 5))
    vertex = st.integers(0, k - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    roots = draw(st.lists(vertex, max_size=2))
    return Diagram(k, tuple(edges), tuple(roots))


def _sym(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


@SETTINGS
@given(d=multigraphs(), n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_eval_w_matches_brute(d, n, seed):
    a = _sym(np.random.default_rng(seed), n)
    fast = gp.eval_w(d, a, budget=float("inf"))
    slow = gp.eval_w_brute(d, a)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9), d


@SETTINGS
@given(d=multigraphs(), n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_eval_z_matches_brute(d, n, seed):
    a = _sym(np.random.default_rng(seed), n)
    fast = gp.eval_z(d, a, budget=float("inf"))
    slow = gp.eval_z_brute(d, a)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9), d


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(3, 6), s=st.integers(0, 2), w=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_onsager_b_matches_brute(n, s, w, seed):
    rng = np.random.default_rng(seed)
    a = _sym(rng, n)
    fprime = [rng.standard_normal(n) for _ in range(s + w)]
    fast = onsager_b(a, fprime, s, s + w)
    slow = onsager_b_brute(a, fprime, s, s + w)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)


def tables(tag):
    values = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=8)
    return st.builds(CumulantTable, values, st.just(tag))


@SETTINGS
@given(t=st.one_of(tables("cumulants"), tables("moments")))
def test_cumulant_table_json_round_trip(t):
    back = CumulantTable.from_json(json.loads(json.dumps(t.to_json())))
    assert back == t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=tables("cumulants"))
def test_cumulants_moments_round_trip(t):
    m = cumulants_to_moments(t)
    assert m.tag == "moments" and len(m) == len(t)
    back = moments_to_cumulants(m)
    assert back.tag == "cumulants"
    scale = max(1.0, max(abs(v) for v in m.values))
    assert np.allclose(back.values, t.values, rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=tables("moments"))
def test_moments_cumulants_round_trip(t):
    k = moments_to_cumulants(t)
    back = cumulants_to_moments(k)
    scale = max(1.0, max(abs(v) for v in k.values))
    assert np.allclose(back.values, t.values, rtol=0, atol=1e-12 * scale)
