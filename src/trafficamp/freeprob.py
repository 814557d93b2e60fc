"""Non-crossing partition combinatorics and analytic traffic-distribution values.

Provides the moment <-> free-cumulant transforms, the limiting values of
cactus diagrams for ensembles given by a cumulant table, and an independent
Weingarten-calculus oracle that recomputes the same limits from half-edge
matching asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .diagrams import DiagramError, classify, cycles_of_cactus

NC_CAP = 12
HALF_EDGE_CAP = 16


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class NCPartition:
    """A non-crossing partition of {1..k}; blocks are sorted tuples."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        blocks = tuple(sorted(blocks))
        object.__setattr__(self, "blocks", blocks)
        elems = sorted(x for b in blocks for x in b)
        if elems != list(range(1, len(elems) + 1)):
            raise ValueError("blocks must partition {1..k}")
        if _crosses(blocks):
            raise ValueError("partition is crossing")

    @property
    def size(self):
        return sum(len(b) for b in self.blocks)


def _crosses(blocks):
    """Whether some a < b < c < d have a, c in one block and b, d in another.

    One scan of the elements in order, with a stack of the blocks that have
    begun and not ended: a block crosses another exactly when it resumes
    while a block begun after it is still open above it.
    """
    owner, last = {}, {}
    for bi, b in enumerate(blocks):
        for x in b:
            owner[x] = bi
            last[bi] = max(last.get(bi, x), x)
    begun, stack = set(), []
    for x in sorted(owner):
        bi = owner[x]
        if bi not in begun:
            begun.add(bi)
            stack.append(bi)
        elif stack[-1] != bi:
            return True
        if x == last[bi]:
            stack.pop()
    return False


def enumerate_nc(k):
    """All non-crossing partitions of {1..k}; Catalan(k) of them.

    Built by insertion: for x = 1..k, x starts a singleton or joins a block b
    of a non-crossing partition of 1..x-1, the latter only when no block c
    straddles max(b) (c[0] < b[-1] < c[-1]).  Each partition arises once.
    """
    if not 1 <= k <= NC_CAP:
        raise ValueError("k must be in 1..%d" % NC_CAP)
    parts = [()]
    for x in range(1, k + 1):
        grown = []
        for blocks in parts:
            grown.append(blocks + ((x,),))
            for i, b in enumerate(blocks):
                if not any(c[0] < b[-1] < c[-1] for c in blocks):
                    grown.append(blocks[:i] + (b + (x,),) + blocks[i + 1:])
        parts = grown
    return [NCPartition(blocks) for blocks in parts]


def kreweras(p):
    """Kreweras complement, normalized to be an involution.

    The complement is computed through the permutation identity
    sigma_K = sigma_pi^{-1} c and then reflected; the reflection conjugates
    the complement to its inverse so K(K(p)) = p, while block sizes (all the
    Mobius machinery uses) agree with the unreflected complement.
    """
    k = p.size
    perm = {}
    for b in p.blocks:
        for i, x in enumerate(b):
            perm[x] = b[(i + 1) % len(b)]
    inv = {v: u for u, v in perm.items()}
    sigma_k = {i: inv[i % k + 1] for i in range(1, k + 1)}
    blocks = []
    seen = set()
    for start in range(1, k + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = sigma_k[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = sigma_k[x]
        blocks.append(cyc)
    reflected = tuple(tuple(sorted((-x) % k + 1 for x in b)) for b in blocks)
    return NCPartition(reflected)


def nc_mobius_to_zero(p):
    """mu(discrete, p) = prod over blocks of (-1)^{|A|-1} Cat(|A|-1)."""
    out = 1
    for b in p.blocks:
        out *= (-1) ** (len(b) - 1) * catalan(len(b) - 1)
    return out


# ---------------------------------------------------------------------------
# cumulant tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CumulantTable:
    """A finite sequence kappa_1..kappa_Q (tag 'cumulants') or m_1..m_Q ('moments')."""

    values: tuple
    tag: str = "cumulants"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.tag not in ("cumulants", "moments"):
            raise ValueError("tag must be 'cumulants' or 'moments'")
        if len(self.values) < 1:
            raise ValueError("table must have at least one entry")

    def __getitem__(self, q):
        if not 1 <= q <= len(self.values):
            raise IndexError("order %d outside table of length %d" % (q, len(self.values)))
        return self.values[q - 1]

    def __len__(self):
        return len(self.values)

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(obj["values"]), obj["tag"])


def named_table(name, length=8):
    """Preset tables: goe/rom (cumulants), semicircle/rademacher (moments)."""
    vals = []
    for q in range(1, length + 1):
        if name == "goe":
            vals.append(1.0 if q == 2 else 0.0)
        elif name == "rom":
            vals.append(0.0 if q % 2 else (-1.0) ** (q // 2 - 1) * catalan(q // 2 - 1))
        elif name == "semicircle":
            vals.append(0.0 if q % 2 else float(catalan(q // 2)))
        elif name == "rademacher":
            vals.append(0.0 if q % 2 else 1.0)
        else:
            raise ValueError("unknown table preset %r" % name)
    tag = "cumulants" if name in ("goe", "rom") else "moments"
    return CumulantTable(tuple(vals), tag)


@lru_cache(maxsize=None)
def _nc_structure(k):
    """Per NC(k) partition: (block sizes, Mobius value of the Kreweras
    complement), precomputed once per order."""
    out = []
    for p in enumerate_nc(k):
        sizes = tuple(len(b) for b in p.blocks)
        out.append((sizes, nc_mobius_to_zero(kreweras(p))))
    return tuple(out)


def cumulants_to_moments(t):
    """m_q = sum over NC(q) of prod kappa_{|block|}."""
    if t.tag != "cumulants":
        raise ValueError("table must be tagged cumulants")
    out = []
    for q in range(1, len(t) + 1):
        total = 0.0
        for sizes, _ in _nc_structure(q):
            prod = 1.0
            for s in sizes:
                prod *= t[s]
            total += prod
        out.append(total)
    return CumulantTable(tuple(out), "moments")


def moments_to_cumulants(t):
    """kappa_k = sum over NC(k) of mu(pi, top) prod m_{|block|}.

    mu(pi, top) = mu(bottom, K(pi)) expands over the Kreweras complement's
    blocks as signed Catalan numbers.
    """
    if t.tag != "moments":
        raise ValueError("table must be tagged moments")
    out = []
    for k in range(1, len(t) + 1):
        total = 0.0
        for sizes, mob in _nc_structure(k):
            prod = 1.0
            for s in sizes:
                prod *= t[s]
            total += mob * prod
        out.append(total)
    return CumulantTable(tuple(out), "cumulants")


# ---------------------------------------------------------------------------
# analytic traffic / diagonal values
# ---------------------------------------------------------------------------

def cactus_traffic_value(d, t):
    """Limiting z-value of a connected diagram: prod of kappa over cycles for
    cactuses, 0 for any other connected diagram (strong cactus property)."""
    if t.tag != "cumulants":
        raise ValueError("cactus_traffic_value needs a cumulant table")
    cls = classify(d)
    if not cls.connected:
        raise DiagramError("diagram must be connected")
    if not cls.cactus:
        return 0.0
    out = 1.0
    for length in cycles_of_cactus(d):
        out *= t[length]
    return out


def diagonal_from_spectral(d, moments):
    """Limiting w-value of a cactus from spectral moments: prod of m over cycles."""
    if moments.tag != "moments":
        raise ValueError("diagonal_from_spectral needs a moment table")
    if not classify(d).cactus:
        raise DiagramError("diagram must be a cactus")
    out = 1.0
    for length in cycles_of_cactus(d):
        out *= moments[length]
    return out


# ---------------------------------------------------------------------------
# Weingarten oracle
# ---------------------------------------------------------------------------

class _Chains:
    """Chain bookkeeping for one perfect matching while a second one is built.

    Elements start pre-linked in pairs (the fixed matching); added pairs either
    close a cycle (cost 0) or merge two chains (cost 1).
    """

    def __init__(self, pairs, size):
        self.chain = list(range(size))
        self.ends = {}
        for a, b in pairs:
            cid = min(a, b)
            self.chain[a] = self.chain[b] = cid
            self.ends[cid] = (a, b)
        self.closed = []

    def cost(self, a, b):
        return 0 if self.chain[a] == self.chain[b] else 1

    def add(self, a, b):
        """Returns an undo token; cycle closure recorded when chains coincide."""
        ca, cb = self.chain[a], self.chain[b]
        if ca == cb:
            self.closed.append(ca)
            token = ("close", ca, self.ends[ca])
            del self.ends[ca]
            return token
        ea, eb = self.ends[ca], self.ends[cb]
        oa = ea[0] if ea[1] == a else ea[1]
        ob = eb[0] if eb[1] == b else eb[1]
        token = ("merge", ca, cb, ea, eb, self.chain[oa], self.chain[ob])
        del self.ends[cb]
        self.ends[ca] = (oa, ob)
        self.chain[oa] = ca
        self.chain[ob] = ca
        return token

    def undo(self, token):
        if token[0] == "close":
            _, cid, ends = token
            self.closed.pop()
            self.ends[cid] = ends
        else:
            _, ca, cb, ea, eb, coa, cob = token
            oa = self.ends[ca][0]
            ob = self.ends[ca][1]
            self.ends[ca] = ea
            self.ends[cb] = eb
            self.chain[oa] = coa
            self.chain[ob] = cob


def _matching_cycles(m1, m2, size):
    """Cycle lengths (in elements) of the union of two perfect matchings."""
    p1 = [0] * size
    p2 = [0] * size
    for a, b in m1:
        p1[a], p1[b] = b, a
    for a, b in m2:
        p2[a], p2[b] = b, a
    seen = [False] * size
    lengths = []
    for s in range(size):
        if seen[s]:
            continue
        length = 0
        x, use1 = s, True
        while not seen[x]:
            seen[x] = True
            length += 1
            x = p1[x] if use1 else p2[x]
            use1 = not use1
        lengths.append(length)
    return lengths


def _geodesic_matchings(fixed_a, fixed_b, size, budget, restrict=None):
    """All perfect matchings gamma with Delta(a,gamma)+Delta(gamma,b) <= budget.

    Enumerated by pairing the lowest unused element first, pruning on the
    combined chain-merge cost against both fixed matchings.  `restrict`
    optionally maps each element to a group id; pairs must stay in-group.
    """
    ca = _Chains(fixed_a, size)
    cb = _Chains(fixed_b, size)
    used = [False] * size
    out = []
    pairs = []

    def rec(cost):
        try:
            a = used.index(False)
        except ValueError:
            out.append(list(pairs))
            return
        used[a] = True
        for b in range(a + 1, size):
            if used[b]:
                continue
            if restrict is not None and restrict[a] != restrict[b]:
                continue
            step = ca.cost(a, b) + cb.cost(a, b)
            if cost + step > budget:
                continue
            used[b] = True
            ta = ca.add(a, b)
            tb = cb.add(a, b)
            pairs.append((a, b))
            rec(cost + step)
            pairs.pop()
            cb.undo(tb)
            ca.undo(ta)
            used[b] = False
        used[a] = False

    rec(0)
    return out


def weingarten_limit(d, moments):
    """Limiting (1/n) E z_d for an orthogonally invariant ensemble with the
    given spectral moments, computed through the Weingarten expansion.

    Enumerates local half-edge matchings at distance |V|-1 from the matching
    realizing the diagram, then geodesic matchings between the two, weighting
    by signed-Catalan Mobius factors and moment products.  Non-Eulerian
    diagrams give 0; so do 2-edge-connected non-cactuses (no local matching
    attains the distance bound).
    """
    if moments.tag != "moments":
        raise ValueError("weingarten_limit needs a moment table")
    if not classify(d).connected:
        raise DiagramError("diagram must be connected")
    size = 2 * d.edge_count
    if size > HALF_EDGE_CAP:
        raise DiagramError("diagram has %d half-edges > cap %d" % (size, HALF_EDGE_CAP))
    if any(x % 2 for x in d.degrees()):
        return 0.0
    if d.edge_count == 0:
        return 1.0

    atilde = [(2 * ei, 2 * ei + 1) for ei in range(d.edge_count)]
    vertex_of = [0] * size
    for ei, (u, v) in enumerate(d.edges):
        vertex_of[2 * ei] = u
        vertex_of[2 * ei + 1] = v
    target = d.vertex_count - 1

    total = 0.0
    for beta_pairs in _geodesic_matchings(atilde, atilde, size, 2 * target,
                                          restrict=vertex_of):
        # locality enforced via restrict; Delta(beta, atilde) == target exactly
        if size // 2 - len(_matching_cycles(beta_pairs, atilde, size)) != target:
            continue
        for gamma in _geodesic_matchings(beta_pairs, atilde, size, target):
            mu = 1.0
            for length in _matching_cycles(beta_pairs, gamma, size):
                half = length // 2
                mu *= (-1.0) ** (half - 1) * catalan(half - 1)
            mom = 1.0
            for length in _matching_cycles(atilde, gamma, size):
                mom *= moments[length // 2]
            total += mu * mom
    return total
