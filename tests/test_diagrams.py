from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trafficamp import diagrams, graphpoly
from trafficamp.diagrams import (CATALOG, Diagram, DiagramClass, DiagramError,
                                 _block_is_cycle, biconnected_blocks,
                                 canonical_form, canonicalize, classify,
                                 cycles_of_cactus, enumerate_connected_multigraphs,
                                 enumerate_two_edge_connected, format_diagram,
                                 is_connected, named_diagram, parse_diagram,
                                 quotient, set_partitions, w_to_z_coefficients,
                                 z_to_w_coefficients)

from test_graphpoly import _root_options


def test_classify_examples():
    tri = CATALOG["cycle3"]
    cls = classify(tri)
    assert cls.cactus and cls.two_edge_connected and cls.connected

    theta = classify(CATALOG["theta"])
    assert theta.two_edge_connected and not theta.cactus


def test_classify_flag_implications():
    for d in enumerate_connected_multigraphs(4, 4):
        for roots in ((), (0,)):
            cls = classify(d.with_roots(roots))
            if cls.cactus:
                assert cls.two_edge_connected
            if cls.two_edge_connected:
                assert cls.connected


def test_classify_stable_under_relabeling():
    rng = np.random.default_rng(0)
    for d in list(enumerate_connected_multigraphs(4, 4))[::5]:
        n = d.vertex_count
        perm = rng.permutation(n)
        edges = tuple((int(perm[u]), int(perm[v])) for u, v in d.edges)
        d2 = Diagram(n, edges, tuple(int(perm[r]) for r in d.roots))
        assert classify(d) == classify(d2)


# oracle: classify as it was when treelike came from max-flow over every
# vertex pair, copied literally less the flags that the class no longer
# carries (treelike, Gaussian tree, Eulerian) and their helpers

def _legacy_classify(d):
    """Structural flags of a diagram."""
    conn = is_connected(d)
    blocks = biconnected_blocks(d)
    brs = sorted(b[0] for b in blocks if len(b) == 1)
    two_ec = conn and not brs
    cactus = two_ec and all(_block_is_cycle(d, b) for b in blocks)
    return DiagramClass(conn, two_ec, cactus)


def test_classify_matches_legacy_enumerated():
    count = 0
    for g in enumerate_connected_multigraphs(6, 7):
        v = g.vertex_count
        for roots in [()] + [(r,) for r in range(v)] + [(0, v - 1)]:
            d = g.with_roots(roots)
            assert classify(d) == _legacy_classify(d), d
            count += 1
    assert count == 10084


@st.composite
def _multigraphs(draw):
    """A diagram on at most 8 vertices with loops, parallel edges and 0-2 roots."""
    k = draw(st.integers(1, 8))
    vertex = st.integers(0, k - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    roots = draw(st.lists(vertex, max_size=2))
    return Diagram(k, tuple(edges), tuple(roots))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_multigraphs())
def test_classify_matches_legacy_random(d):
    assert classify(d) == _legacy_classify(d)


def test_quotient_examples():
    p2 = CATALOG["path2"]
    assert canonical_form(quotient(p2, [[0, 2], [1]])) == canonical_form(CATALOG["cycle2"])
    assert quotient(p2, [[0], [1], [2]]) == p2
    q = quotient(p2, [[0, 1, 2]])
    assert q.vertex_count == 1 and q.edges == ((0, 0), (0, 0))
    with pytest.raises(DiagramError):
        quotient(p2, [[0, 1]])


def test_quotient_of_2ec_is_2ec():
    rng = np.random.default_rng(1)
    pool = [d for d in enumerate_two_edge_connected(5)]
    for d in pool[:: max(1, len(pool) // 20)]:
        parts = list(set_partitions(range(d.vertex_count)))
        for idx in rng.choice(len(parts), size=min(5, len(parts)), replace=False):
            q = quotient(d, parts[idx])
            assert classify(q).two_edge_connected


def test_canonical_form():
    tri = CATALOG["cycle3"]
    relabeled = Diagram(3, ((1, 2), (0, 2), (0, 1)))
    assert canonical_form(tri) == canonical_form(relabeled)
    assert canonical_form(tri) != canonical_form(CATALOG["path2"])
    end = CATALOG["path2"].with_roots((0,))
    mid = CATALOG["path2"].with_roots((1,))
    assert canonical_form(end) != canonical_form(mid)


def test_canonical_form_random_relabelings():
    rng = np.random.default_rng(2)
    for d in list(enumerate_connected_multigraphs(5, 5))[::7]:
        n = d.vertex_count
        perm = rng.permutation(n)
        d2 = Diagram(n, tuple((int(perm[u]), int(perm[v])) for u, v in d.edges))
        assert canonical_form(d) == canonical_form(d2)


def test_w_to_z_coefficients():
    got = {format_diagram(k): v
           for k, v in w_to_z_coefficients(CATALOG["path2"]).items()}
    assert sum(got.values()) == 5  # Bell(3)
    assert got["diagram{v=3; roots=[]; edges=[(0,2),(1,2)]}"] == 1
    assert got["diagram{v=2; roots=[]; edges=[(0,1),(0,1)]}"] == 1
    assert got["diagram{v=2; roots=[]; edges=[(0,1),(1,1)]}"] == 2
    assert got["diagram{v=1; roots=[]; edges=[(0,0),(0,0)]}"] == 1

    edge = {format_diagram(k): v
            for k, v in w_to_z_coefficients(CATALOG["edge"]).items()}
    assert edge == {"diagram{v=2; roots=[]; edges=[(0,1)]}": 1,
                    "diagram{v=1; roots=[]; edges=[(0,0)]}": 1}
    assert w_to_z_coefficients(Diagram(1)) == {Diagram(1): 1}


def test_z_to_w_coefficients():
    got = {format_diagram(k): v
           for k, v in z_to_w_coefficients(CATALOG["edge"]).items()}
    assert got == {"diagram{v=2; roots=[]; edges=[(0,1)]}": 1,
                   "diagram{v=1; roots=[]; edges=[(0,0)]}": -1}
    assert z_to_w_coefficients(Diagram(1)) == {Diagram(1): 1}


def _legacy_z_to_w(d):
    """z_to_w_coefficients by recursive elimination of the strictly coarser
    quotients: z_d = w_d - sum_{a != d} c_{a,d} z_a (test oracle)."""
    return dict(_legacy_z_to_w_cached(canonicalize(d)))


@lru_cache(maxsize=None)
def _legacy_z_to_w_cached(dc):
    out = {dc: 1}
    for a, c in w_to_z_coefficients(dc).items():
        if a == dc:
            continue
        for b, c2 in _legacy_z_to_w_cached(a):
            out[b] = out.get(b, 0) - c * c2
            if out[b] == 0:
                del out[b]
    return tuple(out.items())


def test_z_to_w_coefficients_match_the_recursive_elimination():
    # criterion 1's family, and every root option of every catalog diagram
    family = list(enumerate_connected_multigraphs(6, 6))
    family += [d.with_roots(roots) for d in CATALOG.values() for roots in _root_options(d)]
    for d in family:
        got = z_to_w_coefficients(d)
        assert got == _legacy_z_to_w(d), d
        assert next(iter(got)) == canonicalize(d)  # d's own term first


def test_z_to_w_coefficients_make_one_quotient_per_partition(monkeypatch):
    calls = []
    real_quotient = diagrams.quotient

    def counting_quotient(d, partition):
        calls.append(partition)
        return real_quotient(d, partition)

    monkeypatch.setattr(diagrams, "quotient", counting_quotient)
    diagrams._z_to_w_cached.cache_clear()
    z_to_w_coefficients(CATALOG["cycle8"].with_roots((0, 1)))
    assert len(calls) == 4140  # Bell(8): one pass over the vertex partitions


def test_roundtrip_small():
    for name in ("edge", "path2", "cycle3", "theta", "star3", "loop"):
        d = CATALOG[name]
        acc = {}
        for a, c1 in z_to_w_coefficients(d).items():
            for b, c2 in w_to_z_coefficients(a).items():
                acc[b] = acc.get(b, 0) + c1 * c2
                if acc[b] == 0:
                    del acc[b]
        assert acc == {canonicalize(d): 1}


def test_cycles_of_cactus():
    assert cycles_of_cactus(CATALOG["bowtie"]) == [3, 3]
    assert cycles_of_cactus(CATALOG["cycle4"]) == [4]
    assert cycles_of_cactus(Diagram(1)) == []
    assert cycles_of_cactus(Diagram(1, ((0, 0), (0, 0)))) == [1, 1]
    with pytest.raises(DiagramError):
        cycles_of_cactus(CATALOG["theta"])


def test_parse_and_catalog():
    d = parse_diagram("diagram{v=3; roots=[0]; edges=[(0,1),(1,2)]}")
    assert d == CATALOG["path2"].with_roots((0,))
    assert parse_diagram(format_diagram(d)) == d
    assert named_diagram("theta") is CATALOG["theta"]
    assert named_diagram("diagram{v=1; roots=[]; edges=[]}") == Diagram(1)
    with pytest.raises(DiagramError):
        named_diagram("nope")


def test_numeric_reconstruction_against_brute():
    # w_d(A) = sum_a c_{a,d} z_a(A) with z by injective brute force
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2
    for name in ("path2", "cycle3", "theta", "star3"):
        d = CATALOG[name]
        w = graphpoly.eval_w_brute(d, a)
        z_sum = sum(c * graphpoly.eval_z_brute(q, a)
                    for q, c in w_to_z_coefficients(d).items())
        assert abs(w - z_sum) < 1e-10
