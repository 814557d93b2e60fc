"""Graph-polynomial evaluation in the w- and z-bases.

A diagram with 0/1/2 roots evaluates to a scalar/vector/matrix: the sum over
all vertex labelings (w-basis) or injective labelings (z-basis) of the product
of matrix entries along edges.  The main evaluator contracts vertices in a
greedy min-width order; a literal nested-loop oracle is kept alongside.

The public functions check their matrix labels once per call and hand them
to a private core.  The core's plan (elimination order, cost estimates, and
each elimination's einsum path expanded into numpy's pairwise kernel calls)
is built once per (diagram, weighted vertices, n) and reused; evaluation
runs those kernels directly, each only when its result is requested.
Evaluations that share one matrix can share a memo that runs each repeated
kernel call once and frees its result after its last request:
`eval_catalog` evaluates a whole list of diagrams (and, in the z-basis,
their quotient families) on one matrix with one label check and one memo,
and the Onsager partition sums of a treelike AMP trial share one memo
across the trial.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy._core.einsumfunc import bmm_einsum, c_einsum

from . import diagrams
from .diagrams import Diagram, DiagramError, quotient, set_partitions


class BudgetError(RuntimeError):
    """Estimated evaluation cost exceeds the configured budget."""


def _as_labels(d, labels):
    """Normalize labels to one symmetric n x n array per edge, in edge order.

    Each distinct array is checked once, however many edges it labels.
    """
    if isinstance(labels, np.ndarray):
        labels = [labels] * d.edge_count
    labels = list(labels)
    if len(labels) != d.edge_count:
        raise ValueError("need one label per edge (%d edges, %d labels)"
                         % (d.edge_count, len(labels)))
    if d.edge_count == 0:
        raise ValueError("cannot infer dimension from an edgeless diagram; "
                         "pass n explicitly where supported")
    n = np.asarray(labels[0]).shape[0]
    checked = {}
    for a in labels:
        if id(a) not in checked:
            checked[id(a)] = _as_matrix(a, n)
    return [checked[id(a)] for a in labels], n


def _as_matrix(a, n=None):
    """One edge label as a float64 array, checked to be symmetric n x n."""
    a = np.asarray(a, dtype=np.float64)
    if n is None:
        n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("all edge labels must be n x n with equal n")
    if not np.array_equal(a, a.T):
        raise ValueError("edge labels must be symmetric")
    return a


def _labels_and_n(d, labels, n):
    """Checked labels (None for an edgeless diagram) and the dimension."""
    if d.edge_count:
        return _as_labels(d, labels)
    if n is None:
        if isinstance(labels, np.ndarray):
            n = labels.shape[0]
        else:
            raise ValueError("edgeless diagram needs explicit n")
    return None, n


def _default_budget(n):
    return 8.0 * n ** 3


def eval_w(d, labels, n=None, vertex_weights=None, budget=None):
    """w-basis value of a diagram on per-edge (or one shared) matrix labels.

    Sums over all vertex labelings with roots pinned, by eliminating one
    non-root vertex at a time (greedy minimum contraction width).  Optional
    vertex_weights maps vertex -> length-n vector multiplied at that vertex.
    Raises BudgetError when the estimated flop count exceeds `budget`
    (default 8 n^3); pass budget=float("inf") to force through.
    """
    labels, n = _labels_and_n(d, labels, n)
    return _eval_w(d, labels, n, vertex_weights, budget)


@functools.lru_cache(maxsize=None)
def _plan(d, weighted, n):
    """The contraction plan of d with vertex weights at `weighted`, at size n.

    A plan is (steps, costs, leftover) and is never changed once built.
    Each vertex elimination takes numpy's greedy einsum path, expanded into
    numpy's contraction list; each entry becomes one step, the call to a
    numpy kernel that np.einsum would make for it.  Factors are numbered:
    the edges in edge order, then the weights in `weighted` order, then one
    per step, so step k leaves factor k + (edges + weights).  A step is None
    for an isolated vertex (a factor n), else (input factor ids, kernel
    einsum string, whether it leaves a factor rather than a scalar); costs
    holds the running flop estimate after each elimination; leftover lists
    the (indices, factor id) pairs left for the roots.
    """
    factors = [((u,) if u == v else (u, v), ei) for ei, (u, v) in enumerate(d.edges)]
    factors += [((v,), d.edge_count + k) for k, v in enumerate(weighted)]
    n_leaves = len(factors)
    root_set = set(d.roots)
    remaining = [v for v in range(d.vertex_count) if v not in root_set]
    steps, costs = [], []
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
            steps.append(None)  # isolated vertex: free labeling
            continue
        idx_all = sorted({i for t, _ in group for i in t})
        cost += float(n) ** len(idx_all)
        costs.append(cost)
        out_idx = tuple(i for i in idx_all if i != v)
        letters = {i: chr(97 + k) for k, i in enumerate(idx_all)}
        spec = (",".join("".join(letters[i] for i in t) for t, _ in group)
                + "->" + "".join(letters[i] for i in out_idx))
        # the kernel calls of numpy's optimize=True path; they depend on
        # shapes only.  np.einsum pops its operands at each call's (reverse-
        # sorted) indices and appends the result; so do the factor ids here
        shapes = [np.broadcast_to(0.0, (n,) * len(t)) for t, _ in group]
        ids = [i for _, i in group]
        for inds, kernel, _ in np.einsum_path(spec, *shapes, optimize="greedy",
                                              einsum_call=True)[1]:
            steps.append((tuple(ids.pop(x) for x in inds), kernel,
                          not kernel.endswith("->")))
            ids.append(n_leaves + len(steps) - 1)
        if out_idx:
            factors.append((out_idx, ids[0]))
    return tuple(steps), tuple(costs), tuple(factors)


def _step_keys(steps, leaf_keys):
    """Memo key of each factor id: the leaf keys (one per edge and weight
    factor), then per step its kernel string and the keys of its inputs
    (None for isolated vertices)."""
    keys = list(leaf_keys)
    for step in steps:
        keys.append(None if step is None else (step[1], tuple(keys[i] for i in step[0])))
    return keys


def _edge_keys(d):
    """Leaf key of each edge of d labelled by one shared matrix."""
    return tuple("diag A" if u == v else "A" for u, v in d.edges)


def _count(f, steps, keys, n_leaves, uses):
    """Count a request of factor f, and the requests its step makes the
    first time its key is requested (later requests are memo hits)."""
    if f >= n_leaves:
        key = keys[f]
        uses[key] = uses.get(key, 0) + 1
        if uses[key] == 1:
            for i in steps[f - n_leaves][0]:
                _count(i, steps, keys, n_leaves, uses)


def _step_uses(evaluations, n):
    """How often each step key is requested when the (diagram, weighted
    vertices, leaf keys) evaluations at size n share one memo, as a dict
    for _Memo."""
    uses = {}
    for d, weighted, leaf_keys in evaluations:
        steps, _, leftover = _plan(d, weighted, n)
        keys, n_leaves = _step_keys(steps, leaf_keys), len(leaf_keys)
        # _eval_w's requests: the scalar steps, then the factors of the roots
        for f in ([n_leaves + k for k, step in enumerate(steps) if step and not step[2]]
                  + [i for _, i in leftover]):
            _count(f, steps, keys, n_leaves, uses)
    return uses


class _Memo:
    """Kernel results shared by evaluations on the same leaf factors.

    `uses` gives, as a dict or its (step key, count) items, how many times
    the evaluations will request each step (as _step_uses counts them); a
    result is kept while requests remain and dropped after the last.
    """

    def __init__(self, uses):
        self._left = dict(uses)
        self._values = {}

    def get(self, key):
        """Count one request of key: its kept result, or None if it must run."""
        left = self._left.get(key, 1) - 1
        self._left[key] = left
        return self._values.get(key) if left > 0 else self._values.pop(key, None)

    def put(self, key, arr):
        if self._left[key] > 0:
            self._values[key] = arr


def _value(f, steps, vals, keys, memo):
    """Factor f of an evaluation with leaf values `vals`: a leaf, or its
    step's result, found in the memo or run on its inputs' values."""
    if f < len(vals):
        return vals[f]
    arr = None if memo is None else memo.get(keys[f])
    if arr is None:
        inputs, kernel, _ = steps[f - len(vals)]
        ops = [_value(i, steps, vals, keys, memo) for i in inputs]
        # the kernels np.einsum's own contraction loop calls
        arr = bmm_einsum(kernel, *ops) if len(ops) == 2 else c_einsum(kernel, *ops)
        if memo is not None:
            memo.put(keys[f], arr)
    return arr


def _eval_w(d, labels, n, vertex_weights=None, budget=None, memo=None,
            leaf_keys=None):
    """eval_w on labels already checked by _as_labels (None when edgeless).

    Steps run on demand: for each scalar step in plan order, then for each
    factor left for the roots.  With a memo, each step is looked up by its
    key, derived from `leaf_keys` (one per edge, then one per weighted
    vertex), and runs only on a miss.
    """
    if budget is None:
        budget = _default_budget(n)
    weighted = tuple(vertex_weights) if vertex_weights else ()
    steps, costs, leftover = _plan(d, weighted, n)
    vals = [np.diag(labels[ei]).copy() if u == v else labels[ei]
            for ei, (u, v) in enumerate(d.edges)]
    for v in weighted:
        w = np.asarray(vertex_weights[v], dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("vertex weight must be a length-n vector")
        vals.append(w)
    if costs and costs[-1] > budget:
        cost = next(c for c in costs if c > budget)
        raise BudgetError("contraction cost %.3g exceeds budget %.3g"
                          % (cost, budget))

    keys = _step_keys(steps, leaf_keys) if memo is not None else None
    scale = 1.0
    for k, step in enumerate(steps):
        if step is None:
            scale *= n  # isolated vertex: free labeling
        elif not step[2]:
            scale *= float(_value(len(vals) + k, steps, vals, keys, memo))
    roots = [(t, _value(f, steps, vals, keys, memo)) for t, f in leftover]
    return _combine_roots(d, roots, scale, n)


def _combine_roots(d, factors, scale, n):
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


def eval_w_brute(d, labels, n=None, vertex_weights=None, budget=1e8):
    """Literal nested-loop w-basis sum with compensated accumulation."""
    labels, n = _labels_and_n(d, labels, n)
    if float(n) ** d.vertex_count > budget:
        raise BudgetError("brute force needs %g terms > budget %g"
                          % (float(n) ** d.vertex_count, budget))
    roots = d.roots
    free = [v for v in range(d.vertex_count) if v not in set(roots)]

    if not roots:
        acc = [0.0, 0.0]
        targets = [()]
    elif len(roots) == 1 or roots[0] == roots[1]:
        acc = [[0.0, 0.0] for _ in range(n)]
    else:
        acc = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]

    def kahan(cell, x):
        y = x - cell[1]
        t = cell[0] + y
        cell[1] = (t - cell[0]) - y
        cell[0] = t

    weights = vertex_weights or {}
    for assign in itertools.product(range(n), repeat=len(free)):
        label = {}
        for v, i in zip(free, assign):
            label[v] = i
        if not roots:
            term = 1.0
            for ei, (u, v) in enumerate(d.edges):
                term *= labels[ei][label[u], label[v]]
            for v, w in weights.items():
                term *= w[label[v]]
            kahan(acc, term)
        elif len(roots) == 1 or roots[0] == roots[1]:
            for i in range(n):
                label[roots[0]] = i
                term = 1.0
                for ei, (u, v) in enumerate(d.edges):
                    term *= labels[ei][label[u], label[v]]
                for v, w in weights.items():
                    term *= w[label[v]]
                kahan(acc[i], term)
        else:
            for i in range(n):
                label[roots[0]] = i
                for j in range(n):
                    label[roots[1]] = j
                    term = 1.0
                    for ei, (u, v) in enumerate(d.edges):
                        term *= labels[ei][label[u], label[v]]
                    for v, w in weights.items():
                        term *= w[label[v]]
                    kahan(acc[i][j], term)

    if not roots:
        return acc[0]
    if len(roots) == 1:
        return np.array([c[0] for c in acc])
    if roots[0] == roots[1]:
        return np.diag([c[0] for c in acc])
    return np.array([[c[0] for c in row] for row in acc])


def partition_mobius(blocks):
    """Mobius function of the partition lattice at (discrete, P)."""
    out = 1
    for b in blocks:
        k = len(b)
        out *= (-1) ** (k - 1) * math.factorial(k - 1)
    return out


def eval_z(d, labels, n=None, budget=None, cap=diagrams.CANON_CAP):
    """z-basis value: the w-sum restricted to injective vertex labelings.

    Computed exactly by Mobius inversion over the vertex-partition lattice,
    z_d = sum_P mu(P) w_{d_P}; per-edge labels survive contraction since
    quotients preserve edge order.  One shared matrix goes through
    eval_catalog, which groups isomorphic quotients.
    """
    if d.vertex_count > cap:
        raise diagrams.DiagramSizeError("vertex count exceeds cap")
    if isinstance(labels, np.ndarray) and d.edge_count:
        return eval_catalog([(d, "z")], labels, budget=budget, cap=cap)[0]
    # quotients keep the edges and their order, so one checked list serves all
    lab, n = _labels_and_n(d, labels, n)
    total = None
    for part in set_partitions(range(d.vertex_count)):
        q = quotient(d, part)
        val = _eval_w(q, lab, n, budget=budget)
        mu = partition_mobius(part)
        total = mu * val if total is None else total + mu * val
    return total


def eval_catalog(requests, a, budget=None, cap=diagrams.CANON_CAP):
    """Values of (diagram, basis) requests on one shared matrix, in order.

    basis is "w" or "z"; a z-value sums its quotients' w-values with the
    integer coefficients of z_to_w_coefficients.  The matrix is checked
    once, and every kernel call that recurs across the requests and their
    quotients runs once and is freed after its last use.  The values
    equal those of eval_w and eval_z bit for bit.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    tables = []  # per request: w-diagram -> coefficient
    for d, basis in requests:
        if basis == "w":
            tables.append({d: 1})
        elif basis == "z":
            tables.append(diagrams.z_to_w_coefficients(d, cap=cap))
        else:
            raise ValueError("basis must be 'w' or 'z', not %r" % (basis,))
    memo = _Memo(_step_uses(((q, (), _edge_keys(q)) for t in tables for q in t), n))
    out = []
    for table in tables:
        total = None
        for q, c in table.items():
            val = _eval_w(q, [a] * q.edge_count, n, budget=budget, memo=memo,
                          leaf_keys=_edge_keys(q))
            total = c * val if total is None else total + c * val
        out.append(total)
    return out


def eval_z_brute(d, labels, n=None, budget=1e8):
    """Injective-labeling oracle for eval_z (test device)."""
    labels, n = _labels_and_n(d, labels, n)
    k = d.vertex_count
    if math.perm(n, k) * max(1, d.edge_count) > budget:
        raise BudgetError("injective brute force over budget")
    roots = d.roots
    if not roots:
        out = 0.0
    elif len(roots) == 1:
        out = np.zeros(n)
    else:  # two roots, coinciding ones fill the diagonal as eval_w does
        out = np.zeros((n, n))
    for assign in itertools.permutations(range(n), k):
        term = 1.0
        for ei, (u, v) in enumerate(d.edges):
            term *= labels[ei][assign[u], assign[v]]
        if not roots:
            out += term
        elif len(roots) == 1:
            out[assign[roots[0]]] += term
        elif roots[0] == roots[1]:
            out[assign[roots[0]], assign[roots[0]]] += term
        else:
            out[assign[roots[0]], assign[roots[1]]] += term
    return out


def eval_w_neq(d, labels, s, t, n=None, budget=None):
    """w-sum restricted to labelings with distinct labels at vertices s and t.

    Inclusion-exclusion: w^{s!=t} = w - w(with s,t merged).
    """
    if s == t:
        raise DiagramError("s and t must be distinct vertices")
    lab, n = _labels_and_n(d, labels, n)
    full = _eval_w(d, lab, n, budget=budget)
    blocks = [[s, t]] + [[v] for v in range(d.vertex_count) if v not in (s, t)]
    merged = quotient(d, blocks)
    return full - _eval_w(merged, lab, n, budget=budget)


def eval_open_cactus_matrix(d, a, budget=None):
    """Matrix value of an open cactus: alternating diag(hanging) and A product.

    The base path contributes one factor of A per edge; each base vertex
    contributes the diagonal matrix of its hanging-cactus vector.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    path, cactuses = diagrams.open_cactus_parts(d)
    hang = []
    for c in cactuses:
        if c.edge_count == 0:
            hang.append(np.ones(n))
        else:
            hang.append(eval_w(c, a, budget=budget))
    out = None
    for i in range(len(path)):
        if out is None:
            out = hang[i][:, None] * a
        elif i < len(path) - 1:
            out = (out * hang[i][None, :]) @ a
        else:
            out = out * hang[i][None, :]
    return out


def fundamental_bound_audit(d, labels, n=None, budget=None):
    """Check |value| <= product of spectral norms for 2-edge-connected diagrams.

    Scalar diagrams are normalized by 1/n; vector norms are sup norms; matrix
    norms are spectral.  Returns dict with value, bound, and pass flag.
    """
    if not diagrams.classify(d).two_edge_connected:
        raise DiagramError("fundamental bound applies to 2-edge-connected diagrams")
    lab, n = _labels_and_n(d, labels, n)
    val = _eval_w(d, lab, n, budget=budget)
    bound = 1.0
    for a in (lab or []):
        bound *= np.linalg.norm(a, 2)
    if not d.roots:
        size = abs(val) / n
    elif len(d.roots) == 1:
        size = float(np.max(np.abs(val)))
    else:
        size = np.linalg.norm(val, 2)
    ok = size <= bound * (1 + 1e-9) + 1e-12
    return {"value": size, "bound": bound, "ok": bool(ok)}
