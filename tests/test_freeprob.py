import numpy as np
import pytest

from trafficamp.diagrams import (CATALOG, Diagram, classify, cycle_diagram,
                                 cycles_of_cactus, enumerate_two_edge_connected,
                                 quotient)
from trafficamp.freeprob import (CumulantTable, NCPartition,
                                 cactus_traffic_value, catalan,
                                 cumulants_to_moments, diagonal_from_spectral,
                                 enumerate_nc, kreweras, moments_to_cumulants,
                                 named_table, weingarten_limit,
                                 _matching_cycles)


def test_nc_counts():
    for k in range(1, 9):
        assert len(enumerate_nc(k)) == catalan(k)
    with pytest.raises(ValueError):
        enumerate_nc(0)


def test_nc_validation():
    with pytest.raises(ValueError):
        NCPartition(((1, 3), (2, 4)))  # crossing
    NCPartition(((1, 4), (2, 3)))      # nested is fine


def _refines(p, q):
    owner = {}
    for bi, b in enumerate(q.blocks):
        for x in b:
            owner[x] = bi
    return all(len({owner[x] for x in b}) == 1 for b in p.blocks)


def test_kreweras():
    discrete4 = NCPartition(((1,), (2,), (3,), (4,)))
    assert kreweras(discrete4).blocks == ((1, 2, 3, 4),)
    assert kreweras(NCPartition(((1, 2),))).blocks == ((1,), (2,))
    for k in range(1, 8):
        ncs = enumerate_nc(k)
        for p in ncs:
            assert kreweras(kreweras(p)) == p
        full = NCPartition((tuple(range(1, k + 1)),))
        disc = NCPartition(tuple((i,) for i in range(1, k + 1)))
        assert kreweras(full) == disc and kreweras(disc) == full
    # order-reversing: p refines q implies K(q) refines K(p)
    for k in (4, 5):
        ncs = enumerate_nc(k)
        for p in ncs:
            kp = kreweras(p)
            for q in ncs:
                if _refines(p, q):
                    assert _refines(kreweras(q), kp)


def test_cumulant_transforms():
    semi = named_table("semicircle")
    assert semi.values == (0, 1, 0, 2, 0, 5, 0, 14)
    assert np.allclose(moments_to_cumulants(semi).values,
                       (0, 1, 0, 0, 0, 0, 0, 0), atol=1e-12)
    assert np.allclose(cumulants_to_moments(named_table("goe")).values,
                       semi.values, atol=1e-12)
    rad = named_table("rademacher")
    assert np.allclose(moments_to_cumulants(rad).values,
                       (0, 1, 0, -1, 0, 2, 0, -5), atol=1e-12)
    assert np.allclose(cumulants_to_moments(named_table("rom")).values,
                       rad.values, atol=1e-12)
    # point mass at c: kappa = (c, 0, 0, ...) -> m_q = c^q
    c = 0.7
    point = CumulantTable((c, 0, 0, 0, 0, 0), "cumulants")
    m = cumulants_to_moments(point)
    assert np.allclose(m.values, [c ** q for q in range(1, 7)], atol=1e-12)


def test_transform_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = CumulantTable(tuple(rng.standard_normal(8)), "cumulants")
        back = moments_to_cumulants(cumulants_to_moments(t))
        assert np.allclose(back.values, t.values, atol=1e-12)


def test_cactus_traffic_value():
    rom, goe = named_table("rom"), named_table("goe")
    assert cactus_traffic_value(CATALOG["bowtie"], rom) == 0.0
    assert cactus_traffic_value(CATALOG["cycle4"], rom) == -1.0
    assert cactus_traffic_value(CATALOG["cycle2"], goe) == 1.0
    assert cactus_traffic_value(CATALOG["theta"], goe) == 0.0  # non-cactus
    with pytest.raises(IndexError):
        cactus_traffic_value(CATALOG["cycle4"], CumulantTable((0.0, 1.0)))


def test_diagonal_from_spectral():
    assert diagonal_from_spectral(CATALOG["cycle4"], named_table("semicircle")) == 2.0
    assert diagonal_from_spectral(Diagram(1), named_table("rademacher")) == 1.0
    rad = named_table("rademacher")
    assert diagonal_from_spectral(CATALOG["bowtie"], rad) == 0.0  # odd cycle
    even = Diagram(7, ((0, 1), (1, 2), (2, 3), (3, 0),
                       (0, 4), (4, 5), (5, 6), (6, 0)))
    assert diagonal_from_spectral(even, rad) == 1.0


MOMS = CumulantTable((0.5, 1.5, 0.25, 2.0, 1.0, 3.0, 0.5, 4.0), "moments")


def _z_route(d, moments):
    """A cactus's w-value through its cycles' non-crossing quotients: per cycle,
    the sum over NC(length) of the quotient's analytic z-value, a product of
    the free cumulants over the quotient's cycles."""
    cycles = cycles_of_cactus(d)
    kappa = moments_to_cumulants(
        CumulantTable(moments.values[:max(cycles, default=1)], "moments"))
    out = 1.0
    for length in cycles:
        total = 0.0
        for p in enumerate_nc(length):
            q = quotient(cycle_diagram(length), [[x - 1 for x in b] for b in p.blocks])
            prod = 1.0
            for piece in cycles_of_cactus(q):
                prod *= kappa[piece]
            total += prod
        out *= total
    return out


def test_diagonal_from_spectral_matches_the_z_route_on_every_cactus():
    cactuses = [d for d in enumerate_two_edge_connected(8) if classify(d).cactus]
    assert len(cactuses) == 198
    for moments in (named_table("semicircle"), named_table("rademacher"), MOMS):
        for d in cactuses:
            w = diagonal_from_spectral(d, moments)
            assert abs(w - _z_route(d, moments)) <= 1e-9 * max(1.0, abs(w)), d


def test_weingarten_cycles_equal_cumulants():
    kap = moments_to_cumulants(MOMS)
    for length in range(1, 7):
        v = weingarten_limit(cycle_diagram(length), MOMS)
        assert abs(v - kap[length]) < 1e-9


def test_weingarten_zeros():
    assert weingarten_limit(CATALOG["theta"], MOMS) == 0.0      # non-Eulerian
    assert weingarten_limit(CATALOG["k4"], MOMS) == 0.0         # non-Eulerian
    quad = Diagram(2, ((0, 1),) * 4)                            # Eulerian non-cactus
    assert abs(weingarten_limit(quad, MOMS)) < 1e-12
    doubled_tri = Diagram(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)))
    assert abs(weingarten_limit(doubled_tri, MOMS)) < 1e-12
    # odd-symmetric spectrum kills odd cycles
    sym = CumulantTable((0.0, 1.5, 0.0, 2.0, 0.0, 3.0), "moments")
    assert abs(weingarten_limit(CATALOG["cycle3"], sym)) < 1e-12


def _naive_weingarten(d, moments):
    if any(x % 2 for x in d.degrees()):
        return 0.0
    size = 2 * d.edge_count
    atilde = [(2 * e, 2 * e + 1) for e in range(d.edge_count)]
    vof = [0] * size
    for ei, (u, v) in enumerate(d.edges):
        vof[2 * ei], vof[2 * ei + 1] = u, v

    def matchings(elems):
        if not elems:
            yield []
            return
        a = elems[0]
        for j in range(1, len(elems)):
            for m in matchings(elems[1:j] + elems[j + 1:]):
                yield [(a, elems[j])] + m

    target = d.vertex_count - 1
    total = 0.0
    for beta in matchings(list(range(size))):
        if any(vof[a] != vof[b] for a, b in beta):
            continue
        if size // 2 - len(_matching_cycles(beta, atilde, size)) != target:
            continue
        for gamma in matchings(list(range(size))):
            d1 = size // 2 - len(_matching_cycles(beta, gamma, size))
            d2 = size // 2 - len(_matching_cycles(gamma, atilde, size))
            if d1 + d2 != target:
                continue
            mu = 1.0
            for length in _matching_cycles(beta, gamma, size):
                mu *= (-1.0) ** (length // 2 - 1) * catalan(length // 2 - 1)
            mom = 1.0
            for length in _matching_cycles(atilde, gamma, size):
                mom *= moments[length // 2]
            total += mu * mom
    return total


def test_weingarten_pruned_matches_naive():
    for d in enumerate_two_edge_connected(4):
        assert abs(weingarten_limit(d, MOMS) - _naive_weingarten(d, MOMS)) < 1e-9


def _quartic_crosses(blocks):
    # the earlier O(k^4) scan, kept literally as the oracle
    owner = {}
    for bi, b in enumerate(blocks):
        for x in b:
            owner[x] = bi
    k = len(owner)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for kk in range(j + 1, k + 1):
                for ll in range(kk + 1, k + 1):
                    if owner[i] == owner[kk] and owner[j] == owner[ll] and owner[i] != owner[j]:
                        return True
    return False


def test_crosses_matches_quartic_scan():
    from trafficamp.diagrams import set_partitions
    from trafficamp.freeprob import _crosses
    crossing = 0
    for k in range(1, 9):
        nc = set()
        for part in set_partitions(range(1, k + 1)):
            blocks = tuple(tuple(b) for b in part)
            old = _quartic_crosses(blocks)
            assert _crosses(blocks) == old, blocks
            crossing += old
            if not old:
                nc.add(tuple(sorted(tuple(sorted(b)) for b in blocks)))
        listed = [p.blocks for p in enumerate_nc(k)]
        assert len(set(listed)) == len(listed) and set(listed) == nc
    # Bell(k) partitions, Catalan(k) of them non-crossing, for k = 1..8
    bell = (1, 2, 5, 15, 52, 203, 877, 4140)
    assert crossing == sum(bell) - sum(catalan(k) for k in range(1, 9))
