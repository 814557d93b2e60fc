"""Graph-polynomial evaluation in the w- and z-bases, on one symmetric matrix.

A diagram with 0/1/2 roots evaluates to a scalar/vector/matrix: the sum over
all vertex labelings (w-basis) or injective labelings (z-basis) of the product
of the matrix's entries along the diagram's edges.  eval_catalog is the one
entry to the contraction engine; eval_w and eval_z are one request to it each.
The engine contracts vertices in a greedy min-width order; literal
nested-loop oracles are kept alongside.

eval_catalog checks its matrix once.  The plan of one diagram (elimination
order, cost estimates, and each elimination's einsum path expanded into
numpy's pairwise kernel calls) is built once per (diagram, weighted
vertices, n) and reused; plans, and so the bytes of every value, follow the
diagram's edge order.

A family of evaluations that share their leaves (the requests of one
eval_catalog and their z-basis quotients; the Onsager windows of one exact
AMP trial) is compiled once per size n into a straight-line program
(_compile).  The program numbers every distinct value it needs -- the
matrix, its diagonal, a product of vertex weights, a kernel step -- with an
integer slot, in the order an on-demand evaluation first asks for it, and
lists for each instruction the slots whose last use it is.  Running it on a
matrix (_execute) is one loop over the instructions: each kernel step runs
once and is freed after its last use, and each evaluation scales and
combines its root factors and adds into its output in term order, so the
values equal those of evaluating each diagram on its own, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy._core.einsumfunc import bmm_einsum, c_einsum

from . import diagrams
from .diagrams import quotient  # noqa: F401 (benchmark/selftest.py checks this binding)


class BudgetError(RuntimeError):
    """Estimated evaluation cost exceeds the configured budget."""


def _as_matrix(a):
    """The matrix as a float64 array, checked to be symmetric n x n."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("the matrix must be n x n")
    if not np.array_equal(a, a.T):
        raise ValueError("the matrix must be symmetric")
    return a


def _default_budget(n):
    return 8.0 * n ** 3


def eval_w(d, a, budget=None):
    """w-basis value of a diagram on the symmetric matrix a.

    Sums over all vertex labelings with roots pinned, by eliminating one
    non-root vertex at a time (greedy minimum contraction width).  Raises
    BudgetError when the estimated flop count exceeds `budget` (default
    8 n^3); pass budget=float("inf") to force through.
    """
    return eval_catalog([(d, "w")], a, budget)[0]


def eval_z(d, a, budget=None):
    """z-basis value: the w-sum restricted to injective vertex labelings,
    as the quotients' w-values times the coefficients of
    diagrams.z_to_w_coefficients."""
    return eval_catalog([(d, "z")], a, budget)[0]


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


def _edge_keys(d):
    """Leaf key of each edge of d: the matrix, or its diagonal for a loop."""
    return tuple("diag" if u == v else "label" for u, v in d.edges)


def _step_key(kernel, inputs):
    """Value key of a kernel step.  A pure product (no index summed) is keyed by
    its kernel with letters renamed in order of first appearance, so A*A is one
    step however it is spelled; a contraction keeps its own spelling."""
    lhs, out = kernel.split("->")
    if "," in lhs and set(out) == set(lhs) - {","}:
        names = {}
        kernel = "".join(names.setdefault(c, chr(97 + len(names))) if c.isalpha()
                         else c for c in kernel)
    return kernel, inputs


_LABEL, _DIAG, _WEIGHT, _MUL, _KERNEL, _EVAL = range(6)


class _Program(NamedTuple):
    """A compiled evaluation family at size n, never changed once built.

    code holds per output its instructions; an instruction is (op, out, x, y,
    drop): it writes slot `out` (an evaluation adds coefficient `out` times
    its value to the output instead) and then frees the slots in `drop`, whose
    last use it was.  zero_start says per output whether its sum starts from
    zeros(n); costs holds per output each evaluation's running cost estimates.
    peak is the most bytes its slots hold at once, the matrix aside: a kernel
    step counts n^(its output indices) float64s, a diagonal or weight product n.
    """

    n: int
    code: tuple
    zero_start: tuple
    costs: tuple
    size: int  # the number of slots
    peak: int


def _reads(op, x, y):
    """The slots an instruction reads."""
    if op == _KERNEL:
        return y
    if op == _EVAL:
        return tuple(f for f in x if f is not None) + tuple(f for _, f in y[1])
    return (x, y) if op == _MUL else (x,) if op == _DIAG else ()


@functools.lru_cache(maxsize=None)
def _compile(outputs, n):
    """The straight-line program of an evaluation family at size n.

    outputs: per output, (zero_start, terms); a term is (coef, diagram,
    weighted vertices, leaf keys), its value coef times the w-value of the
    diagram, summed in term order.  Leaf keys, one per edge then one per
    weighted vertex, name the values the program reads: "label" is the
    matrix, "diag" its diagonal, ("weight", r1, .., rk) the product
    weights[r1] * .. * weights[rk] left to right.  Each distinct value (leaf,
    partial weight product or kernel step, keyed by _step_key over its inputs'
    keys) is computed once, in the order an on-demand evaluation of the terms
    first asks for it, into a slot that is freed after its last use.
    """
    slot, code = {}, []

    def emit(key, op, x, y=None):
        code[-1].append([op, len(slot), x, y])
        slot[key] = len(slot)
        return slot[key]

    def leaf(key):
        if key in slot:
            return slot[key]
        if key == "label":
            return emit(key, _LABEL, None)
        if key == "diag":
            return emit(key, _DIAG, leaf("label"))
        if len(key) == 2:
            return emit(key, _WEIGHT, key[1])
        return emit(key, _MUL, leaf(key[:-1]), leaf(("weight", key[-1])))

    def factor(f, steps, keys):
        if keys[f] not in slot:  # factor f is left by step f - (number of leaves)
            inputs, kernel, _ = steps[f - (len(keys) - len(steps))]
            emit(keys[f], _KERNEL, kernel, tuple(factor(i, steps, keys) for i in inputs))
        return slot[keys[f]]

    costs = []
    for zero_start, terms in outputs:
        code.append([])
        costs.append(())
        for coef, d, weighted, leaf_keys in terms:
            steps, cost, leftover = _plan(d, weighted, n)
            costs[-1] += (cost,) if cost else ()
            keys = list(leaf_keys)
            for step in steps:
                keys.append(None if step is None
                            else _step_key(step[1], tuple(keys[i] for i in step[0])))
            for key in leaf_keys:
                leaf(key)
            # the scalar steps in plan order (None: an isolated vertex, a factor
            # n), then the factors left for the roots
            scalars = tuple(None if step is None else factor(len(leaf_keys) + k, steps, keys)
                            for k, step in enumerate(steps) if step is None or not step[2])
            roots = tuple((t, factor(f, steps, keys)) for t, f in leftover)
            code[-1].append([_EVAL, coef, scalars, (d.roots, roots)])

    last = {}
    for ins in itertools.chain.from_iterable(code):
        op, _, x, y = ins
        for f in _reads(op, x, y):
            last[f] = ins
        ins.append(())
    for f, ins in last.items():
        ins[4] += (f,)
    size, live, peak = {}, 0, 0  # a slot is written while its inputs are still held
    for op, out, x, _, drop in itertools.chain.from_iterable(code):
        if op != _EVAL:
            size[out] = 0 if op == _LABEL else n ** len(x.split("->")[1]) if op == _KERNEL else n
            live += size[out]
        peak = max(peak, live)
        live -= sum(size[f] for f in drop)
    return _Program(n, tuple(tuple(tuple(ins) for ins in c) for c in code),
                    tuple(z for z, _ in outputs), tuple(costs), len(slot), 8 * peak)


def _execute(prog, k, slots, a, weights=(), budget=None):
    """The value of output k of prog: its instructions run on `slots`, which
    holds the still-live values of the outputs run before it on the same
    leaves.  `a` is the checked matrix; `weights` is indexed as the leaf keys
    say.  Raises BudgetError, before running anything, if an evaluation's
    estimated cost exceeds `budget` (default 8 n^3)."""
    n = prog.n
    if budget is None:
        budget = _default_budget(n)
    for costs in prog.costs[k]:
        if costs[-1] > budget:
            cost = next(c for c in costs if c > budget)
            raise BudgetError("contraction cost %.3g exceeds budget %.3g" % (cost, budget))
    total = np.zeros(n) if prog.zero_start[k] else None
    for op, out, x, y, drop in prog.code[k]:
        if op == _KERNEL:
            # the kernels np.einsum's own contraction loop calls
            slots[out] = (bmm_einsum(x, slots[y[0]], slots[y[1]]) if len(y) == 2
                          else c_einsum(x, *[slots[i] for i in y]))
        elif op == _EVAL:
            scale = 1.0
            for f in x:
                scale *= n if f is None else float(slots[f])
            val = _combine_roots(y[0], [(t, slots[f]) for t, f in y[1]], scale, n)
            if out != 1:
                val = out * val
            total = val if total is None else total + val
        elif op == _MUL:
            slots[out] = slots[x] * slots[y]
        elif op == _LABEL:
            slots[out] = a
        elif op == _DIAG:
            slots[out] = np.diag(slots[x]).copy()
        else:
            slots[out] = weights[x]
        for f in drop:
            slots[f] = None
    return total


def _combine_roots(roots, factors, scale, n):
    """The value of an evaluation from its scalar `scale` and the factors left
    for its roots, each multiplied in in order as np.full(.., scale) * ..."""
    if not roots:
        assert not factors
        return scale
    if len(roots) == 1 or roots[0] == roots[1]:
        r = roots[0]
        vec = None
        for t, a in factors:
            assert t == (r,)
            # x * scale has the bytes of np.full(n, scale) * x
            vec = a * scale if vec is None else vec * a
        if vec is None:
            vec = np.full(n, scale)
        return np.diag(vec) if len(roots) == 2 else vec
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


def eval_w_brute(d, a, budget=1e8):
    """Literal nested-loop w-basis sum with compensated accumulation."""
    a = _as_matrix(a)
    n = a.shape[0]
    if float(n) ** d.vertex_count > budget:
        raise BudgetError("brute force needs %g terms > budget %g"
                          % (float(n) ** d.vertex_count, budget))
    acc = {}  # root labels -> [sum, compensation]
    for label in itertools.product(range(n), repeat=d.vertex_count):
        term = 1.0
        for u, v in d.edges:
            term *= a[label[u], label[v]]
        cell = acc.setdefault(tuple(label[r] for r in d.roots), [0.0, 0.0])
        y = term - cell[1]
        t = cell[0] + y
        cell[1] = (t - cell[0]) - y
        cell[0] = t
    if not d.roots:
        return acc[()][0]
    out = np.zeros((n,) * len(d.roots))  # coinciding roots fill the diagonal
    for key, (total, _) in acc.items():
        out[key] = total
    return out


def partition_mobius(blocks):
    """Mobius function of the partition lattice at (discrete, P)."""
    out = 1
    for b in blocks:
        k = len(b)
        out *= (-1) ** (k - 1) * math.factorial(k - 1)
    return out


def eval_catalog(requests, a, budget=None):
    """Values of (diagram, basis) requests on one symmetric matrix, in order.

    basis is "w" or "z"; a z-value sums its quotients' w-values with the
    integer coefficients of z_to_w_coefficients (a diagram over
    diagrams.CANON_CAP vertices raises DiagramSizeError).  The matrix is
    checked once, and every kernel call that recurs across the requests and
    their quotients runs once and is freed after its last use.  Raises
    BudgetError at the first request whose estimated cost exceeds `budget`
    (default 8 n^3).
    """
    a = _as_matrix(a)
    prog = _catalog(tuple(requests), a.shape[0])
    slots = [None] * prog.size
    return [_execute(prog, k, slots, a, budget=budget) for k in range(len(prog.code))]


@functools.lru_cache(maxsize=None)
def _catalog(requests, n):
    """The program of eval_catalog's requests at size n: one output per
    request, the sum of its w-diagrams times their coefficients."""
    tables = []  # per request: w-diagram -> coefficient
    for d, basis in requests:
        if basis == "w":
            tables.append({d: 1})
        elif basis == "z":
            tables.append(diagrams.z_to_w_coefficients(d))
        else:
            raise ValueError("basis must be 'w' or 'z', not %r" % (basis,))
    return _compile(tuple((False, tuple((c, q, (), _edge_keys(q)) for q, c in table.items()))
                          for table in tables), n)


def eval_z_brute(d, a, budget=1e8):
    """Injective-labeling oracle for eval_z (test device)."""
    a = _as_matrix(a)
    n = a.shape[0]
    if math.perm(n, d.vertex_count) * max(1, d.edge_count) > budget:
        raise BudgetError("injective brute force over budget")
    out = np.zeros((n,) * len(d.roots))  # coinciding roots fill the diagonal
    for assign in itertools.permutations(range(n), d.vertex_count):
        term = 1.0
        for u, v in d.edges:
            term *= a[assign[u], assign[v]]
        out[tuple(assign[r] for r in d.roots)] += term
    return out if d.roots else float(out)

