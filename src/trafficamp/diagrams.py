"""Multigraph diagrams: classification, quotients, change of basis, open cactuses.

Diagrams are finite multigraphs (loops and parallel edges allowed) carrying
0, 1, or 2 root vertices.  They index the graph polynomials evaluated in
:mod:`trafficamp.graphpoly`.  Self-loops count 2 toward vertex degree.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache


CANON_CAP = 12  # vertex cap for partition / isomorphism enumeration


class DiagramError(ValueError):
    pass


class DiagramSizeError(DiagramError):
    """Raised when an operation would exceed the enumeration vertex cap."""


@dataclass(frozen=True)
class Diagram:
    """A multigraph with 0, 1, or 2 ordered roots.

    vertex_count: number of vertices, labeled 0..vertex_count-1.
    edges: tuple of (u, v) pairs with u <= v; repeated pairs are parallel
        edges, (v, v) is a self-loop.
    roots: tuple of 0, 1, or 2 vertex ids (the two may coincide).
    """

    vertex_count: int
    edges: tuple = ()
    roots: tuple = ()

    def __post_init__(self):
        if self.vertex_count < 1:
            raise DiagramError("diagram needs at least one vertex")
        # normalize each pair but keep edge order: contraction plans, and so
        # the bytes of every value, follow edge order
        norm = tuple((min(u, v), max(u, v)) for u, v in self.edges)
        object.__setattr__(self, "edges", norm)
        object.__setattr__(self, "roots", tuple(self.roots))
        if len(self.roots) > 2:
            raise DiagramError("at most 2 roots")
        for r in self.roots:
            if not 0 <= r < self.vertex_count:
                raise DiagramError("root %r out of range" % (r,))
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise DiagramError("edge (%r, %r) out of range" % (u, v))

    @property
    def edge_count(self):
        return len(self.edges)

    def degrees(self):
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # loop contributes 2 via u == v
        return deg

    def loops_at(self, v):
        return sum(1 for a, b in self.edges if a == b == v)

    def multiplicity(self, u, v):
        a, b = min(u, v), max(u, v)
        return sum(1 for e in self.edges if e == (a, b))

    def adjacency(self):
        """Neighbor lists as {v: [(neighbor, edge_index), ...]}, loops excluded."""
        adj = {v: [] for v in range(self.vertex_count)}
        for i, (u, v) in enumerate(self.edges):
            if u != v:
                adj[u].append((v, i))
                adj[v].append((u, i))
        return adj

    def with_roots(self, roots):
        return Diagram(self.vertex_count, self.edges, tuple(roots))

    def __str__(self):
        return format_diagram(self)


@dataclass(frozen=True)
class DiagramClass:
    connected: bool
    two_edge_connected: bool
    cactus: bool


# ---------------------------------------------------------------------------
# basic structure: connectivity, bridges, blocks
# ---------------------------------------------------------------------------

def connected_components(d):
    seen = [False] * d.vertex_count
    adj = d.adjacency()
    comps = []
    for s in range(d.vertex_count):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w, _ in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(d):
    return len(connected_components(d)) == 1


def biconnected_blocks(d):
    """2-vertex-connected blocks as lists of non-loop edge indices (Hopcroft-Tarjan)."""
    adj = d.adjacency()
    disc = [0] * d.vertex_count
    low = [0] * d.vertex_count
    timer = [1]
    blocks = []
    estack = []
    visited_edge = [False] * len(d.edges)

    def dfs(root):
        stack = [(root, iter(adj[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        tree_edge = {root: None}
        parents = {root: None}
        while stack:
            v, it = stack[-1]
            advanced = False
            for w, ei in it:
                if visited_edge[ei]:
                    continue
                visited_edge[ei] = True
                estack.append(ei)
                if disc[w] == 0:
                    parents[w] = v
                    tree_edge[w] = ei
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                else:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                p = parents[v]
                if p is not None:
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        block = []
                        while True:
                            ei = estack.pop()
                            block.append(ei)
                            if ei == tree_edge[v]:
                                break
                        blocks.append(block)

    for s in range(d.vertex_count):
        if disc[s] == 0:
            dfs(s)
    return blocks


def _block_is_cycle(d, block):
    deg = {}
    for ei in block:
        u, v = d.edges[ei]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(c == 2 for c in deg.values())


def classify(d):
    """Structural flags of a diagram, from one block decomposition: connected,
    2-edge-connected (connected with no bridge), and cactus (2-edge-connected
    with every block a cycle)."""
    conn = is_connected(d)
    blocks = biconnected_blocks(d)
    two_ec = conn and all(len(b) > 1 for b in blocks)
    cactus = two_ec and all(_block_is_cycle(d, b) for b in blocks)
    return DiagramClass(conn, two_ec, cactus)


# ---------------------------------------------------------------------------
# quotients and partitions
# ---------------------------------------------------------------------------

def quotient(d, partition):
    """Contract each block of a vertex partition to a single vertex.

    All edges are retained (possibly as loops or parallel edges), preserving
    edge order.  Root status is inherited by the containing block.
    """
    blocks = [sorted(set(b)) for b in partition]
    covered = sorted(v for b in blocks for v in b)
    if covered != list(range(d.vertex_count)):
        raise DiagramError("partition does not partition the vertex set")
    blocks.sort(key=lambda b: b[0])
    vmap = {}
    for i, b in enumerate(blocks):
        for v in b:
            vmap[v] = i
    edges = tuple((vmap[u], vmap[v]) for u, v in d.edges)
    roots = tuple(vmap[r] for r in d.roots)
    return Diagram(len(blocks), edges, roots)


def set_partitions(items):
    """All partitions of a sequence, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _wl_colors(d):
    """1-WL vertex colors, stable under isomorphism (ids assigned by signature order)."""
    sig = [(d.roots.index(v) if v in d.roots else -1, d.degrees()[v], d.loops_at(v))
           for v in range(d.vertex_count)]
    colors = _compress(sig)
    for _ in range(d.vertex_count):
        sig = []
        for v in range(d.vertex_count):
            nb = sorted((colors[w], d.multiplicity(v, w))
                        for w in range(d.vertex_count) if w != v and d.multiplicity(v, w))
            sig.append((colors[v], tuple(nb)))
        new = _compress(sig)
        if new == colors:
            break
        colors = new
    return colors


def _compress(signatures):
    order = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return [order[s] for s in signatures]


def _check_size(d):
    if d.vertex_count > CANON_CAP:
        raise DiagramSizeError("vertex count %d exceeds cap %d" % (d.vertex_count, CANON_CAP))


def canonicalize(d):
    """Relabel vertices into canonical order; equal outputs iff rooted-isomorphic."""
    _check_size(d)
    return _canonicalize_cached(d)


@lru_cache(maxsize=100000)
def _canonicalize_cached(d):
    n = d.vertex_count
    colors = _wl_colors(d)
    mult = [[0] * n for _ in range(n)]
    loops = [0] * n
    for u, v in d.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] += 1
            mult[v][u] += 1

    forced = list(d.roots)
    if len(forced) == 2 and forced[0] == forced[1]:
        forced = forced[:1]

    best = {"enc": None, "perm": None}

    def row_of(v, placed):
        return (-colors[v], loops[v]) + tuple(mult[v][u] for u in reversed(placed))

    def search(placed, enc):
        pos = len(placed)
        if pos < len(forced):
            cands = [forced[pos]]
        else:
            cands = [v for v in range(n) if v not in placed]
        if not cands:
            enc_t = tuple(enc)
            if best["enc"] is None or enc_t > best["enc"]:
                best["enc"], best["perm"] = enc_t, list(placed)
            return
        rows = [(row_of(v, placed), v) for v in cands]
        rows.sort(reverse=True)
        top = rows[0][0]
        for row, v in rows:
            if row != top:
                break
            nxt = enc + [row]
            # prune against current best prefix
            if best["enc"] is not None:
                pref = tuple(nxt)
                if pref < best["enc"][:len(pref)]:
                    continue
            search(placed + [v], nxt)

    search([], [])
    perm = best["perm"]
    inv = {v: i for i, v in enumerate(perm)}
    edges = tuple(sorted((min(inv[u], inv[v]), max(inv[u], inv[v]))
                         for u, v in d.edges))
    roots = tuple(inv[r] for r in d.roots)
    return Diagram(n, edges, roots)


def canonical_form(d):
    """Opaque comparable/hashable key; equal keys iff rooted-isomorphic multigraphs."""
    c = canonicalize(d)
    return (c.vertex_count, c.roots, c.edges)


# ---------------------------------------------------------------------------
# w <-> z change of basis
# ---------------------------------------------------------------------------

def w_to_z_coefficients(d):
    """Coefficients of w_d = sum_a c_{a,d} z_a over canonical quotient diagrams.

    c_{a,d} counts vertex partitions P with d_P isomorphic to a; the
    coefficient sum is Bell(|V(d)|).
    """
    _check_size(d)
    out = {}
    for part in set_partitions(range(d.vertex_count)):
        q = canonicalize(quotient(d, part))
        out[q] = out.get(q, 0) + 1
    return out


def z_to_w_coefficients(d):
    """Integer coefficients c' with z_d = sum_a c'_{a,d} w_a (Mobius inversion).

    Computed by recursively eliminating strictly coarser quotients.
    """
    return dict(_z_to_w_cached(canonicalize(d)))


@lru_cache(maxsize=None)
def _z_to_w_cached(dc):
    out = {dc: 1}
    for a, c in w_to_z_coefficients(dc).items():
        if a == dc:
            continue
        for b, c2 in _z_to_w_cached(a):
            out[b] = out.get(b, 0) - c * c2
            if out[b] == 0:
                del out[b]
    return tuple(out.items())


# ---------------------------------------------------------------------------
# cactus structure
# ---------------------------------------------------------------------------

def cycles_of_cactus(d):
    """Cycle lengths of a cactus; loops count as length-1 cycles."""
    if not classify(d).cactus:
        raise DiagramError("cycles_of_cactus requires a cactus diagram")
    out = [1] * sum(1 for u, v in d.edges if u == v)
    for block in biconnected_blocks(d):
        out.append(len(block))
    return sorted(out)


def check_open_cactus(d):
    """Raise DiagramError unless d is an open cactus: two distinct roots joined
    by a base path of bridges, with a cactus hanging at each path vertex; that
    is, one more edge between the roots closes d into a cactus."""
    if len(d.roots) != 2 or d.roots[0] == d.roots[1]:
        raise DiagramError("open cactus needs two distinct roots")
    if not classify(Diagram(d.vertex_count, d.edges + (d.roots,), d.roots)).cactus:
        raise DiagramError("%s is not an open cactus: an edge joining its roots "
                           "does not close it into a cactus" % d)


# ---------------------------------------------------------------------------
# enumeration of small diagrams
# ---------------------------------------------------------------------------

def cycle_diagram(length, rooted=False):
    if length == 1:
        return Diagram(1, ((0, 0),), (0,) if rooted else ())
    edges = tuple((i, (i + 1) % length) for i in range(length))
    return Diagram(length, edges, (0,) if rooted else ())


@lru_cache(maxsize=None)
def enumerate_two_edge_connected(max_edges):
    """All 2-edge-connected multigraphs with at most max_edges edges, up to iso.

    Generated by ear decomposition: start from cycles (loops included) and
    repeatedly attach open or closed ears.
    """
    seen = {}
    frontier = []
    for length in range(1, max_edges + 1):
        c = canonicalize(cycle_diagram(length))
        seen[c] = True
        frontier.append(c)
    while frontier:
        nxt = []
        for g in frontier:
            budget = max_edges - g.edge_count
            for ell in range(1, budget + 1):
                for u in range(g.vertex_count):
                    for v in range(u, g.vertex_count):
                        nv = g.vertex_count + ell - 1
                        edges = list(g.edges)
                        chain = [u] + list(range(g.vertex_count, nv)) + [v]
                        edges.extend(zip(chain, chain[1:]))
                        cand = canonicalize(Diagram(nv, tuple(edges), ()))
                        if cand not in seen:
                            seen[cand] = True
                            nxt.append(cand)
        frontier = nxt
    return tuple(sorted(seen, key=lambda g: (g.edge_count, g.vertex_count,
                                             canonical_form(g))))


@lru_cache(maxsize=None)
def enumerate_connected_multigraphs(max_vertices, max_edges):
    """All connected multigraphs within the given size bounds, up to iso."""
    start = canonicalize(Diagram(1))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            if g.edge_count >= max_edges:
                continue
            cands = []
            for u in range(g.vertex_count):
                for v in range(u, g.vertex_count):
                    cands.append(Diagram(g.vertex_count, g.edges + ((u, v),), ()))
                if g.vertex_count < max_vertices:
                    cands.append(Diagram(g.vertex_count + 1,
                                         g.edges + ((u, g.vertex_count),), ()))
            for cand in cands:
                c = canonicalize(cand)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen, key=lambda g: (g.edge_count, g.vertex_count,
                                             canonical_form(g))))


# ---------------------------------------------------------------------------
# text format and named catalog
# ---------------------------------------------------------------------------

_FMT = re.compile(
    r"diagram\{\s*v=(\d+)\s*;\s*roots=\[([0-9,\s]*)\]\s*;\s*edges=\[([0-9,()\s]*)\]\s*\}")


def parse_diagram(text):
    """Parse `diagram{v=<n>; roots=[...]; edges=[(a,b),...]}` (0-based vertices)."""
    m = _FMT.fullmatch(text.strip())
    if not m:
        raise DiagramError("malformed diagram literal: %r" % text)
    n = int(m.group(1))
    roots = tuple(int(x) for x in m.group(2).replace(" ", "").split(",") if x)
    pairs = re.findall(r"\((\d+)\s*,\s*(\d+)\)", m.group(3))
    edges = tuple((int(a), int(b)) for a, b in pairs)
    return Diagram(n, edges, roots)


def format_diagram(d):
    roots = ",".join(str(r) for r in d.roots)
    edges = ",".join("(%d,%d)" % e for e in d.edges)
    return "diagram{v=%d; roots=[%s]; edges=[%s]}" % (d.vertex_count, roots, edges)


def _bowtie():
    return Diagram(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)), ())


def _dumbbell():
    # two triangles joined by a bridge: the smallest bridged diagram whose
    # w-value is not annihilated outright by puncturing
    return Diagram(6, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)), ())


CATALOG = {
    "vertex": Diagram(1),
    "loop": Diagram(1, ((0, 0),)),
    "edge": Diagram(2, ((0, 1),)),
    "path2": Diagram(3, ((0, 1), (1, 2))),
    "path3": Diagram(4, ((0, 1), (1, 2), (2, 3))),
    "cycle2": cycle_diagram(2),
    "cycle3": cycle_diagram(3),
    "cycle4": cycle_diagram(4),
    "cycle5": cycle_diagram(5),
    "cycle6": cycle_diagram(6),
    "cycle7": cycle_diagram(7),
    "cycle8": cycle_diagram(8),
    "theta": Diagram(2, ((0, 1), (0, 1), (0, 1))),
    "bowtie": _bowtie(),
    "dumbbell": _dumbbell(),
    "star3": Diagram(4, ((0, 1), (0, 2), (0, 3))),
    "k4": Diagram(4, tuple(itertools.combinations(range(4), 2))),
}


def named_diagram(name):
    """Look up a catalog diagram or parse an inline `diagram{...}` literal."""
    if name in CATALOG:
        return CATALOG[name]
    if name.startswith("diagram{"):
        return parse_diagram(name)
    raise DiagramError("unknown diagram %r" % name)
