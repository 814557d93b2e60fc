import gc
import weakref

import numpy as np
import pytest

from trafficamp import graphpoly as gp
from trafficamp import matrixio
from trafficamp.amp import AMPConfig, run
from trafficamp.diagrams import (CATALOG, Diagram, DiagramError, biconnected_blocks,
                                 check_open_cactus, classify, connected_components,
                                 enumerate_connected_multigraphs, is_connected)
from trafficamp.ensembles import EnsembleSpec, generate


def _rand_sym(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def _rand_orth_sym(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(np.sign(rng.standard_normal(n))) @ q.T


def test_eval_w_trivial():
    assert gp.eval_w(CATALOG["cycle2"], np.eye(3)) == 3.0
    assert gp.eval_w(CATALOG["cycle3"], np.ones((2, 2))) == 8.0
    assert gp.eval_w(Diagram(1), np.zeros((7, 7))) == 7.0
    assert np.allclose(gp.eval_w(Diagram(1, (), (0,)), np.zeros((7, 7))), np.ones(7))


def test_cycle_equals_trace():
    rng = np.random.default_rng(0)
    a = _rand_sym(rng, 6)
    for q in range(2, 7):
        w = gp.eval_w(CATALOG["cycle%d" % q], a)
        tr = np.trace(np.linalg.matrix_power(a, q))
        assert abs(w - tr) < 1e-10 * max(1.0, abs(tr))


def test_engine_matches_brute():
    rng = np.random.default_rng(1)
    cases = 0
    for d in enumerate_connected_multigraphs(4, 4):
        n = int(rng.integers(2, 7))
        a = _rand_sym(rng, n)
        root_opts = [(), (0,)]
        if d.vertex_count >= 2:
            root_opts += [(0, 1), (0, 0)]
        for roots in root_opts:
            dr = d.with_roots(roots)
            w1 = gp.eval_w(dr, a, budget=float("inf"))
            w2 = gp.eval_w_brute(dr, a)
            assert np.allclose(w1, w2, atol=1e-10), dr
            cases += 1
    assert cases >= 150


def test_edge_vector_is_row_sums():
    rng = np.random.default_rng(2)
    a = _rand_sym(rng, 5)
    v = gp.eval_w(CATALOG["edge"].with_roots((0,)), a)
    assert np.allclose(v, a.sum(axis=1))


def test_eval_z():
    rng = np.random.default_rng(3)
    assert gp.eval_z(CATALOG["cycle3"], np.ones((2, 2))) == 0.0
    a = _rand_sym(rng, 5)
    np.fill_diagonal(a, 0.0)
    z = gp.eval_z(CATALOG["cycle2"], a)
    assert abs(z - (a ** 2).sum()) < 1e-10
    for name in ("path2", "cycle3", "theta", "star3", "bowtie"):
        d = CATALOG[name]
        b = _rand_sym(rng, 5)
        assert np.allclose(gp.eval_z(d, b, budget=float("inf")),
                           gp.eval_z_brute(d, b), atol=1e-10)
        dr = d.with_roots((0,))
        assert np.allclose(gp.eval_z(dr, b, budget=float("inf")),
                           gp.eval_z_brute(dr, b), atol=1e-10)


def test_w_reconstructs_from_z_quotients():
    from trafficamp.diagrams import w_to_z_coefficients
    rng = np.random.default_rng(5)
    a = _rand_sym(rng, 5)
    for name in ("path2", "cycle4", "theta"):
        d = CATALOG[name]
        w = gp.eval_w(d, a, budget=float("inf"))
        s = sum(c * gp.eval_z(q, a, budget=float("inf"))
                for q, c in w_to_z_coefficients(d).items())
        assert abs(w - s) < 1e-9


def test_grafting_hadamard_identity():
    rng = np.random.default_rng(7)
    a = _rand_sym(rng, 6)
    a1 = CATALOG["cycle3"].with_roots((0,))
    a2 = CATALOG["path2"].with_roots((1,))
    g = Diagram(5, ((0, 1), (1, 2), (2, 0), (3, 0), (0, 4)), (0,))  # a1 and a2 grafted
    lhs = gp.eval_w(g, a, budget=float("inf"))
    rhs = gp.eval_w(a1, a) * gp.eval_w(a2, a, budget=float("inf"))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_open_cactus_matrix():
    rng = np.random.default_rng(8)
    h = _rand_orth_sym(rng, 8)
    oc = Diagram(3, ((0, 1), (1, 2)), (0, 2))
    assert np.allclose(gp.eval_w(oc, h), h @ h, atol=1e-10)
    oc1 = Diagram(2, ((0, 1),), (0, 1))
    assert np.allclose(gp.eval_w(oc1, h), h)
    a = _rand_sym(rng, 8)
    cases = [
        Diagram(5, ((0, 1), (1, 2), (1, 3), (3, 4), (4, 1)), (0, 2)),
        Diagram(4, ((0, 1), (1, 2), (2, 3), (3, 1)), (0, 1)),
        Diagram(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (0, 5), (5, 0)), (0, 2)),
    ]
    for oc in cases:
        check_open_cactus(oc)
        w1 = gp.eval_w(oc, a, budget=float("inf"))
        w2 = gp.eval_w_brute(oc, a)
        assert np.allclose(w1, w2, atol=1e-9), oc
    with pytest.raises(DiagramError):
        check_open_cactus(CATALOG["theta"].with_roots((0, 1)))


def test_budget_errors():
    a = np.zeros((64, 64))
    with pytest.raises(gp.BudgetError):
        gp.eval_w(CATALOG["k4"], a, budget=1000.0)
    with pytest.raises(gp.BudgetError):
        gp.eval_w_brute(CATALOG["k4"], a, budget=1000.0)


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    m = rng.standard_normal((5, 7))
    p = tmp_path / "m.tamp"
    matrixio.write_matrix(p, m)
    raw = p.read_bytes()
    assert raw[:8] == b"TAMP0001"
    assert int.from_bytes(raw[8:16], "little") == 5
    assert int.from_bytes(raw[16:24], "little") == 7
    assert np.array_equal(matrixio.read_matrix(p), m)


# ---------------------------------------------------------------------------
# byte oracle: the engine as it was before plans were cached and labels were
# checked once per call, copied literally (names prefixed with _legacy)
# ---------------------------------------------------------------------------

def _legacy_as_labels(d, labels):
    """Normalize labels to one symmetric n x n array per edge, in edge order."""
    if isinstance(labels, np.ndarray):
        labels = [labels] * d.edge_count
    labels = [np.asarray(a, dtype=np.float64) for a in labels]
    if len(labels) != d.edge_count:
        raise ValueError("need one label per edge (%d edges, %d labels)"
                         % (d.edge_count, len(labels)))
    if d.edge_count == 0:
        raise ValueError("cannot infer dimension from an edgeless diagram; "
                         "pass n explicitly where supported")
    n = labels[0].shape[0]
    for a in labels:
        if a.shape != (n, n):
            raise ValueError("all edge labels must be n x n with equal n")
        if not np.array_equal(a, a.T):
            raise ValueError("edge labels must be symmetric")
    return labels, n


def _legacy_eval_w(d, labels, n=None, vertex_weights=None, budget=None):
    if d.edge_count:
        labels, n = _legacy_as_labels(d, labels)
    elif n is None:
        if isinstance(labels, np.ndarray):
            n = labels.shape[0]
        else:
            raise ValueError("edgeless diagram needs explicit n")
    if budget is None:
        budget = 8.0 * n ** 3

    factors = []
    for ei, (u, v) in enumerate(d.edges):
        if u == v:
            factors.append(((u,), np.diag(labels[ei]).copy()))
        else:
            factors.append(((u, v), labels[ei]))
    if vertex_weights:
        for v, w in vertex_weights.items():
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError("vertex weight must be a length-n vector")
            factors.append(((v,), w))

    root_set = set(d.roots)
    remaining = [v for v in range(d.vertex_count) if v not in root_set]
    scale = 1.0
    cost = 0.0

    def width(v):
        idx = set()
        for t, _ in factors:
            if v in t:
                idx.update(t)
        return len(idx)

    while remaining:
        v = min(remaining, key=lambda u: (width(u), u))
        remaining.remove(v)
        group = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        if not group:
            scale *= n  # isolated vertex: free labeling
            continue
        idx_all = sorted({i for t, _ in group for i in t})
        cost += float(n) ** len(idx_all)
        if cost > budget:
            raise gp.BudgetError("contraction cost %.3g exceeds budget %.3g"
                                 % (cost, budget))
        out_idx = tuple(i for i in idx_all if i != v)
        letters = {i: chr(97 + k) for k, i in enumerate(idx_all)}
        spec = (",".join("".join(letters[i] for i in t) for t, _ in group)
                + "->" + "".join(letters[i] for i in out_idx))
        arr = np.einsum(spec, *[a for _, a in group], optimize=True)
        if out_idx:
            factors.append((out_idx, arr))
        else:
            scale *= float(arr)

    return _legacy_combine_roots(d, factors, scale, n)


def _legacy_combine_roots(d, factors, scale, n):
    roots = d.roots
    if not roots:
        assert not factors
        return scale
    if len(roots) == 1 or roots[0] == roots[1]:
        r = roots[0]
        vec = np.full(n, scale)
        for t, a in factors:
            assert t == (r,)
            vec = vec * a
        if len(roots) == 2:
            return np.diag(vec)
        return vec
    r1, r2 = roots
    mat = np.full((n, n), scale)
    for t, a in factors:
        if t == (r1,):
            mat = mat * a[:, None]
        elif t == (r2,):
            mat = mat * a[None, :]
        elif t == (r1, r2):
            mat = mat * a
        elif t == (r2, r1):
            mat = mat * a.T
        else:
            raise AssertionError("unexpected leftover factor %r" % (t,))
    return mat


def _legacy_eval_z(d, labels, n=None, budget=None, cap=12):
    from trafficamp import diagrams
    from trafficamp.diagrams import quotient, set_partitions
    if d.vertex_count > cap:
        raise diagrams.DiagramSizeError("vertex count exceeds cap")
    if isinstance(labels, np.ndarray) and d.edge_count:
        coeffs = diagrams.z_to_w_coefficients(d)
        total = None
        for a, c in coeffs.items():
            val = _legacy_eval_w(a, labels, n=n, budget=budget)
            total = c * val if total is None else total + c * val
        return total
    total = None
    for part in set_partitions(range(d.vertex_count)):
        q = quotient(d, part)
        lab = labels if d.edge_count else None
        val = _legacy_eval_w(q, lab, n=n, budget=budget)
        mu = diagrams.partition_mobius(part)
        total = mu * val if total is None else total + mu * val
    return total


def _outcome(fn, *args, **kwargs):
    """Value bytes, or the BudgetError message, of one evaluation."""
    try:
        return np.asarray(fn(*args, **kwargs)).tobytes()
    except gp.BudgetError as exc:
        return "BudgetError: %s" % exc


def _root_options(d):
    opts = [(), (0,)]
    if d.vertex_count >= 2:
        opts += [(0, 1), (1, 1)]
    return opts


def test_eval_w_bytes_match_legacy_engine():
    rng = np.random.default_rng(11)
    raised = 0
    for n in (7, 64, 7):  # back to n = 7: a plan built at 64 must not serve it
        a = _rand_sym(rng, n)
        for name, d0 in sorted(CATALOG.items()):
            for roots in _root_options(d0):
                d = d0.with_roots(roots)
                for budget in (None, float("inf"), 2.0 * n ** 2, 1.5 * n ** 3):
                    lab = a if d.edge_count else None
                    old = _outcome(_legacy_eval_w, d, lab, n=n, budget=budget)
                    for _ in range(2):  # the second call runs a cached plan
                        new = _outcome(gp.eval_w, d, a, budget=budget)
                        assert new == old, (name, roots, n, budget)
                    raised += isinstance(old, str)
    assert raised > 50  # the budget cases are exercised, not skipped


def test_eval_z_bytes_match_legacy_engine():
    rng = np.random.default_rng(12)
    for n in (7, 64):
        a = _rand_sym(rng, n)
        for name in ("edge", "loop", "path2", "cycle3", "cycle4", "theta",
                     "bowtie", "star3", "k4"):
            d = CATALOG[name]
            for budget in (None, float("inf")):
                assert (_outcome(gp.eval_z, d, a, budget=budget)
                        == _outcome(_legacy_eval_z, d, a, budget=budget)), name
    assert (_outcome(gp.eval_z, Diagram(2), np.zeros((5, 5)))
            == _outcome(_legacy_eval_z, Diagram(2), None, n=5))


def test_labels_checked_once_per_distinct_array(monkeypatch):
    a = _rand_sym(np.random.default_rng(13), 6)
    seen = []
    real = np.array_equal

    def counting(x, y, *args, **kwargs):
        seen.append(x.shape)
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    gp.eval_z(CATALOG["bowtie"], a)
    assert len(seen) == 1
    with pytest.raises(ValueError, match="symmetric"):
        gp.eval_w(CATALOG["path2"], np.triu(a))


# ---------------------------------------------------------------------------
# open cactuses: eval_w against the base-path product evaluator it replaces
# ---------------------------------------------------------------------------

def _legacy_eval_open_cactus_matrix(d, a, budget=None):
    """Matrix value of an open cactus: alternating diag(hanging) and A product.

    The base path contributes one factor of A per edge; each base vertex
    contributes the diagonal matrix of its hanging-cactus vector.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    path, cactuses = _legacy_open_cactus_parts(d)
    hang = []
    for c in cactuses:
        if c.edge_count == 0:
            hang.append(np.ones(n))
        else:
            hang.append(gp.eval_w(c, a, budget=budget))
    out = None
    for i in range(len(path)):
        if out is None:
            out = hang[i][:, None] * a
        elif i < len(path) - 1:
            out = (out * hang[i][None, :]) @ a
        else:
            out = out * hang[i][None, :]
    return out


def _legacy_bridges(d):
    """Edge indices of bridges: single-edge biconnected blocks (loops never bridge)."""
    out = []
    for block in biconnected_blocks(d):
        if len(block) == 1:
            ei = block[0]
            u, v = d.edges[ei]
            if u != v:
                out.append(ei)
    return sorted(out)


def _legacy_open_cactus_parts(d):
    """Decompose a 2-rooted open cactus into (base path vertices, hanging cactuses).

    Returns (path, cactuses) where path = [u1..uk] runs from roots[0] to
    roots[1] along the bridge edges, and cactuses[i] is the hanging cactus at
    path[i] as a rooted Diagram (vertices relabeled, root first).
    """
    if len(d.roots) != 2 or d.roots[0] == d.roots[1]:
        raise DiagramError("open cactus needs two distinct roots")
    if not is_connected(d):
        raise DiagramError("open cactus must be connected")
    brs = _legacy_bridges(d)
    if not brs:
        raise DiagramError("open cactus needs at least one base-path (bridge) edge")
    badj = {}
    for ei in brs:
        u, v = d.edges[ei]
        badj.setdefault(u, []).append(v)
        badj.setdefault(v, []).append(u)
    r1, r2 = d.roots
    if r1 not in badj or r2 not in badj:
        raise DiagramError("roots must be endpoints of the base path")
    if len(badj[r1]) != 1 or len(badj[r2]) != 1:
        raise DiagramError("roots must be base-path endpoints")
    if any(len(nb) > 2 for nb in badj.values()):
        raise DiagramError("bridges do not form a simple path")
    path = [r1]
    prev = None
    while path[-1] != r2:
        nxt = [w for w in badj[path[-1]] if w != prev]
        if len(nxt) != 1:
            raise DiagramError("bridges do not form a simple path")
        prev = path[-1]
        path.append(nxt[0])
    if len(path) - 1 != len(brs):
        raise DiagramError("bridges do not form a single path")

    strip = Diagram(d.vertex_count,
                    tuple(e for i, e in enumerate(d.edges) if i not in brs), ())
    comps = connected_components(strip)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    if len({comp_of[u] for u in path}) != len(path) or len(comps) != len(path):
        raise DiagramError("hanging cactuses must be vertex-disjoint, one per path vertex")
    cactuses = []
    for u in path:
        comp = comps[comp_of[u]]
        sub = _legacy_induced(strip, comp, root=u)
        if not classify(sub).cactus:
            raise DiagramError("hanging component at %d is not a cactus" % u)
        cactuses.append(sub)
    return path, cactuses


def _legacy_induced(d, verts, root=None):
    verts = sorted(verts)
    idx = {v: i for i, v in enumerate(verts)}
    vset = set(verts)
    edges = tuple((idx[u], idx[v]) for u, v in d.edges if u in vset and v in vset)
    roots = (idx[root],) if root is not None else ()
    return Diagram(len(verts), edges, roots)


_OPEN_CACTUSES = [
    Diagram(3, ((0, 1), (1, 2)), (0, 2)),  # the three that cactus-audit runs by default
    Diagram(2, ((0, 1),), (0, 1)),
    Diagram(4, ((0, 1), (1, 2), (2, 3), (3, 1)), (0, 1)),
    Diagram(4, ((0, 1), (1, 2), (2, 3)), (0, 3)),  # a 3-edge path
    Diagram(3, ((0, 1), (1, 2), (1, 1)), (0, 2)),  # a loop on the middle vertex
    Diagram(6, ((0, 1), (0, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 1)), (0, 1)),
    Diagram(3, ((0, 1), (1, 2)), (2, 0)),  # reversed roots
]


@pytest.mark.parametrize("spec", [EnsembleSpec("goe", 1, seed=3), EnsembleSpec("goe", 128, seed=3),
                                  EnsembleSpec("goe", 512, seed=3),
                                  EnsembleSpec("punctured", 256, inner="hadamard")])
def test_open_cactus_bytes_match_legacy_evaluator(spec):
    a = generate(spec).values
    for d in _OPEN_CACTUSES:
        assert (gp.eval_w(d, a).tobytes()
                == _legacy_eval_open_cactus_matrix(d, a).tobytes()), d


def _rejects(check, d):
    try:
        check(d)
    except DiagramError:
        return True
    return False


def test_check_open_cactus_accepts_what_the_legacy_decomposition_accepts():
    graphs = list(enumerate_connected_multigraphs(5, 6)) + [
        Diagram(2), Diagram(3, ((0, 1),)), Diagram(4, ((0, 1), (2, 3))),
        Diagram(4, ((0, 1), (1, 2), (2, 0)))]
    accepted = 0
    for g in graphs:
        v = range(g.vertex_count)
        for roots in [()] + [(r,) for r in v] + [(r, s) for r in v for s in v]:
            d = g.with_roots(roots)
            rejected = _rejects(check_open_cactus, d)
            assert rejected == _rejects(_legacy_open_cactus_parts, d), d
            accepted += not rejected
    assert accepted > 300


# ---------------------------------------------------------------------------
# eval_catalog: one check and one program for many diagrams on one matrix
# ---------------------------------------------------------------------------

def _catalog_requests():
    """Every catalog diagram in both bases with each root option, in catalog
    order (edgeless first, so budget errors come mid-list)."""
    return [(d0.with_roots(roots), basis) for d0 in CATALOG.values()
            for roots in _root_options(d0) for basis in ("w", "z")]


def _legacy_value(d, basis, a, budget):
    lab = a if d.edge_count else None
    fn = _legacy_eval_w if basis == "w" else _legacy_eval_z
    return fn(d, lab, n=a.shape[0], budget=budget)


def test_eval_catalog_bytes_match_legacy_engine():
    rng = np.random.default_rng(14)
    requests = _catalog_requests()
    for n in (7, 64):
        a = _rand_sym(rng, n)
        values = gp.eval_catalog(requests, a, budget=float("inf"))
        assert len(values) == len(requests)
        for (d, basis), val in zip(requests, values):
            old = _outcome(_legacy_value, d, basis, a, float("inf"))
            assert np.asarray(val).tobytes() == old, (d, basis, n)


def test_eval_catalog_budget_error_at_same_request():
    rng = np.random.default_rng(15)
    requests = _catalog_requests()
    mid_list = 0
    for n in (7, 64):
        a = _rand_sym(rng, n)
        for budget in (None, 2.0 * n ** 2, 1.5 * n ** 3):
            old = [_outcome(_legacy_value, d, basis, a, budget) for d, basis in requests]
            first = next(i for i, o in enumerate(old) if isinstance(o, str))
            with pytest.raises(gp.BudgetError) as exc:
                gp.eval_catalog(requests, a, budget=budget)
            assert "BudgetError: %s" % exc.value == old[first]
            # the requests before the failing one evaluate as before
            head = gp.eval_catalog(requests[:first], a, budget=budget)
            assert [np.asarray(v).tobytes() for v in head] == old[:first]
            mid_list += first > 0
    assert mid_list >= 4


def test_eval_catalog_usage():
    a = _rand_sym(np.random.default_rng(16), 5)
    assert gp.eval_catalog([], a) == []
    with pytest.raises(ValueError, match="basis"):
        gp.eval_catalog([(CATALOG["edge"], "x")], a)
    with pytest.raises(ValueError, match="symmetric"):
        gp.eval_catalog([(CATALOG["edge"], "w")], np.triu(a))
    from trafficamp.diagrams import CANON_CAP, DiagramSizeError, cycle_diagram
    with pytest.raises(DiagramSizeError):
        gp.eval_catalog([(cycle_diagram(CANON_CAP + 1), "z")], a)


# ---------------------------------------------------------------------------
# the engine runs numpy's kernels from its plans, and holds no matrix in a cycle
# ---------------------------------------------------------------------------

def _count_engine_work(monkeypatch):
    """Record label checks, kernel runs, the peak number of kernel results
    alive at once (by weak reference), and each program output run as
    (program, output, slots)."""
    seen = {"checks": 0, "kernels": 0, "alive": 0, "peak": 0, "runs": []}
    check, execute = gp._as_matrix, gp._execute

    def counting_check(*args):
        seen["checks"] += 1
        return check(*args)

    def dropped(ref):
        seen["alive"] -= 1
        refs.pop(id(ref))

    refs = {}

    def counting(kernel):
        def run(*args, **kwargs):
            out = kernel(*args, **kwargs)
            seen["kernels"] += 1
            if isinstance(out, np.ndarray):
                ref = weakref.ref(out, dropped)
                refs[id(ref)] = ref
                seen["alive"] += 1
                seen["peak"] = max(seen["peak"], seen["alive"])
            return out
        return run

    def recording(prog, k, slots, *args, **kwargs):
        seen["runs"].append((prog, k, slots))
        return execute(prog, k, slots, *args, **kwargs)

    monkeypatch.setattr(gp, "_as_matrix", counting_check)
    for name in ("bmm_einsum", "c_einsum"):
        monkeypatch.setattr(gp, name, counting(getattr(gp, name)))
    monkeypatch.setattr(gp, "_execute", recording)
    return seen


def _program_runs(seen):
    """Per slots list (one run of a program): the program and the outputs run."""
    runs = {}
    for prog, k, slots in seen["runs"]:
        assert runs.setdefault(id(slots), (prog, slots, []))[0] is prog
        runs[id(slots)][2].append(k)
    return list(runs.values())


def _steps(prog):
    """The number of kernel calls one run of every output of prog makes."""
    return sum(ins[0] == gp._KERNEL for code in prog.code for ins in code)


def _assert_frees_at_last_use(prog, slots):
    """Each slot the program writes is read, freed by the instruction that
    reads it last, and written only once; after the run no slot holds a value."""
    code = [ins for c in prog.code for ins in c]
    written = [ins[1] for ins in code if ins[0] != gp._EVAL]
    assert len(written) == len(set(written)) == prog.size
    last = {}
    for i, ins in enumerate(code):
        for f in gp._reads(ins[0], ins[2], ins[3]):
            last[f] = i
    assert set(last) == set(written)
    for i, ins in enumerate(code):
        assert sorted(ins[4]) == sorted(f for f, j in last.items() if j == i)
    assert slots == [None] * prog.size


def _assert_each_step_runs_once(seen, checks, steps):
    """`checks` symmetry checks and as many program runs, each running every
    output once, in order, and each step of its program once."""
    runs = _program_runs(seen)
    assert seen["checks"] == len(runs) == checks
    for prog, slots, outputs in runs:
        assert outputs == list(range(len(prog.code)))
        _assert_frees_at_last_use(prog, slots)
    assert [_steps(prog) for prog, _, _ in runs] == steps
    assert seen["kernels"] == sum(steps)


_GOE_IDENTITY = [(CATALOG[nm], basis) for nm in
                 ("cycle2", "cycle4", "bowtie", "cycle3", "path3", "star3") for basis in "wz"]


def test_program_runs_each_step_once_and_frees_it(monkeypatch):
    a = _rand_sym(np.random.default_rng(17), 32)
    seen = _count_engine_work(monkeypatch)
    gp.eval_catalog(_GOE_IDENTITY, a)
    # one step per distinct kernel call; A*A is one step however it is spelled
    _assert_each_step_runs_once(seen, 1, [78])
    # a memo engine held at most 11 kernel results at once on this catalog
    assert seen["peak"] <= 11
    seen.update(checks=0, kernels=0, peak=0, runs=[])
    _exact_trial(a, ("identity", "cube_hermite", "square_centered", "identity", "cube_hermite"))
    _assert_each_step_runs_once(seen, 1, [107])
    assert seen["peak"] <= 30  # 30 for a memo engine on this trial
    seen.update(checks=0, kernels=0, peak=0, runs=[])
    _exact_trial(a)  # the identity steps share one weight
    _assert_each_step_runs_once(seen, 1, [68])
    assert seen["peak"] <= 24


def test_pure_products_respelled_keep_their_bytes():
    # a pure product is keyed by its renamed kernel, so of two spellings of one
    # product only the first runs: each must give the bytes and strides of the
    # renamed one, on C- and Fortran-ordered operands
    from trafficamp.amp import _window_terms
    from trafficamp.diagrams import z_to_w_coefficients
    rng = np.random.default_rng(20)
    plans = [gp._plan(q, verts, 9) for w in range(2, 6)
             for _, q, verts, _ in _window_terms(w)]
    plans += [gp._plan(q, (), 9) for d, _ in _GOE_IDENTITY for q in z_to_w_coefficients(d)]
    kernels = {step[1] for steps, _, _ in plans for step in steps if step}
    renamed = 0
    for kernel in sorted(kernels):
        canon = gp._step_key(kernel, ())[0]
        if canon == kernel:
            continue
        renamed += 1
        for order in "CF":
            ops = [np.asarray(rng.standard_normal((9,) * len(t)), order=order)
                   for t in kernel.split("->")[0].split(",")]
            new, old = gp.bmm_einsum(canon, *ops), gp.bmm_einsum(kernel, *ops)
            assert (new.tobytes(), new.strides) == (old.tobytes(), old.strides), kernel
    assert renamed >= 3


_ENGINE_REQUESTS = [(CATALOG[nm], basis) for nm in
                    ("cycle2", "cycle4", "bowtie", "cycle3", "path3", "star3", "theta")
                    for basis in "wz"]


def _exact_trial(a, fs=("identity",) * 5):
    run(a, AMPConfig(nonlinearities=fs, T=5, mode="exact_treelike"))


def test_built_plans_are_not_planned_again(monkeypatch):
    rng = np.random.default_rng(18)
    a = _rand_sym(rng, 24)
    gp.eval_catalog(_ENGINE_REQUESTS, a)
    _exact_trial(a)
    calls = []
    for name in ("einsum", "einsum_path"):
        def record(*args, _name=name, _fn=getattr(np, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, record)
    b = _rand_sym(rng, 24)
    gp.eval_catalog(_ENGINE_REQUESTS, b)
    _exact_trial(b)
    assert calls == []


def test_no_reference_cycle_keeps_the_matrix_alive():
    a = _rand_sym(np.random.default_rng(19), 24)
    alive = weakref.ref(a)
    gc.disable()
    try:
        gp.eval_catalog(_ENGINE_REQUESTS, a)
        _exact_trial(a)
        del a
        assert alive() is None
    finally:
        gc.enable()
