"""AMP iterations with exact or scalar Onsager corrections.

run_treelike implements the iteration whose memory terms are distinct-index
closed-walk sums, computed exactly by Mobius inversion over vertex partitions
of the walk cycle.  The scalar variants replace those vectors by their
asymptotic values: free-cumulant coefficients (orthogonally invariant /
punctured models) or an entrywise-squared matrix product (block GOE).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import graphpoly
from .diagrams import cycle_diagram, quotient, set_partitions
from .ensembles import stream_rng
from .freeprob import CumulantTable
from .gaussian import Polynomial, named_polynomial

EXACT_N_CAP = 256
EXACT_T_CAP = 5
EXACT_WINDOW_CAP = 5

MODES = ("exact_treelike", "scalar_kappa", "punctured_kappa", "block_goe")


class DivergenceError(RuntimeError):
    def __init__(self, t, i):
        super().__init__("non-finite iterate at t=%d, coordinate %d" % (t, i))
        self.t = t
        self.i = i


@dataclass
class AMPConfig:
    nonlinearities: tuple      # Polynomials f_0..f_{T-1}
    T: int
    mode: str = "scalar_kappa"
    kappa: CumulantTable = None
    init: str = "ones"         # ones | gaussian
    seed: int = 0

    def __post_init__(self):
        self.nonlinearities = tuple(named_polynomial(p) for p in self.nonlinearities)
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if len(self.nonlinearities) < self.T:
            raise ValueError("need f_0..f_{T-1}")
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % self.mode)
        if self.mode in ("scalar_kappa", "punctured_kappa"):
            if self.kappa is None or self.kappa.tag != "cumulants":
                raise ValueError("scalar modes need a cumulant table")
            if len(self.kappa) < self.T:
                raise ValueError("kappa table shorter than T")
        if self.mode == "punctured_kappa":
            if self.nonlinearities[0].coeffs != (0.0, 1.0):
                raise ValueError("punctured mode requires f_0(x) = x")
            if self.init != "gaussian":
                raise ValueError("punctured mode requires gaussian init")
        if self.mode == "exact_treelike" and self.init != "ones":
            raise ValueError("exact_treelike mode starts from x_0 = 1; "
                             "init must be \"ones\", not %r" % self.init)

    def to_json(self):
        out = {"nonlinearities": [list(p.coeffs) for p in self.nonlinearities],
               "T": self.T, "mode": self.mode, "init": self.init, "seed": self.seed}
        if self.kappa is not None:
            out["kappa"] = self.kappa.to_json()
        return out

    @classmethod
    def from_json(cls, obj):
        kappa = CumulantTable.from_json(obj["kappa"]) if "kappa" in obj else None
        return cls(nonlinearities=tuple(obj["nonlinearities"]), T=int(obj["T"]),
                   mode=obj.get("mode", "scalar_kappa"), kappa=kappa,
                   init=obj.get("init", "ones"), seed=int(obj.get("seed", 0)))


@dataclass
class AMPTrace:
    x0: np.ndarray
    iterates: np.ndarray       # rows x_1..x_T
    onsager: dict              # (s, t) -> vector (exact) or scalar coefficient
    mode: str

    @property
    def T(self):
        return self.iterates.shape[0]

    @property
    def n(self):
        return self.iterates.shape[1]

    def x(self, t):
        return self.x0 if t == 0 else self.iterates[t - 1]


def _check_finite(x, t):
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DivergenceError(t, int(bad[0]))


def _init_vector(cfg, n, stream):
    if cfg.init == "ones":
        return np.ones(n)
    if cfg.init == "gaussian":
        return stream_rng(cfg.seed, stream).standard_normal(n)
    raise ValueError("unknown init %r" % cfg.init)


# ---------------------------------------------------------------------------
# exact Onsager vectors
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _window_terms(w):
    """One (quotient, weighted vertices, walk positions weighted at each,
    edge leaf keys, Mobius coefficient) per partition of the w walk positions."""
    cyc = cycle_diagram(w, rooted=True)
    terms = []
    for part in set_partitions(range(w)):
        q = quotient(cyc, part)
        blocks = sorted([sorted(b) for b in part], key=lambda b: b[0])
        # position 0 is the root; every later position carries a weight
        verts = tuple(bi for bi, block in enumerate(blocks) if block != [0])
        positions = tuple(tuple(p for p in blocks[bi] if p) for bi in verts)
        terms.append((q, verts, positions, graphpoly._edge_keys(q),
                      graphpoly.partition_mobius(part)))
    return tuple(terms)


def _window_leaf_keys(s, positions, edge_keys):
    # a weight is keyed by the absolute steps whose f' it multiplies, in order
    return edge_keys + tuple(tuple(s + p for p in ps) for ps in positions)


@functools.lru_cache(maxsize=None)
def _step_uses(calls, n):
    """How often each contraction step is requested by onsager_b over the
    (s, t) windows in `calls` on one n x n matrix."""
    return tuple(graphpoly._step_uses(
        ((q, verts, _window_leaf_keys(s, positions, edge_keys))
         for s, t in calls if t - s >= 2
         for q, verts, positions, edge_keys, _ in _window_terms(t - s)), n).items())


def onsager_b(a, fprime_vectors, s, t, budget=None, _memo=None):
    """Distinct-index closed-walk sum b_{s,t}, exactly.

    fprime_vectors[r] supplies the weight vector at interior step r, needed
    for s < r < t.  Computed by Mobius inversion over set partitions of the
    t-s walk positions, evaluating each contracted weighted cycle with the
    graph-polynomial engine.  The quotients and their contraction plans are
    built once per window and size.  Contraction steps that recur across
    partitions are computed once: within this call, or, when run_treelike
    passes its per-trial `_memo` (and has checked `a`), across the trial.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    w = t - s
    if not 1 <= w <= EXACT_WINDOW_CAP:
        raise ValueError("window %d outside 1..%d" % (w, EXACT_WINDOW_CAP))
    if w == 1:
        return np.diag(a).copy()
    if _memo is None:
        a = graphpoly._as_matrix(a)
        _memo = graphpoly._Memo(_step_uses(((s, t),), n))
    labels = [a] * w
    weights = {p: np.asarray(fprime_vectors[s + p], dtype=np.float64)
               for p in range(1, w)}
    total = np.zeros(n)
    for q, verts, positions, edge_keys, mu in _window_terms(w):
        vw = {}
        for v, ps in zip(verts, positions):
            acc = weights[ps[0]]
            for p in ps[1:]:
                acc = acc * weights[p]
            vw[v] = acc
        val = graphpoly._eval_w(q, labels, n, vertex_weights=vw, budget=budget,
                                memo=_memo,
                                leaf_keys=_window_leaf_keys(s, positions, edge_keys))
        total += mu * val
    return total


def onsager_b_brute(a, fprime_vectors, s, t):
    """Direct enumeration over distinct index tuples (test oracle)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    w = t - s
    out = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for tup in itertools.permutations(others, w - 1):
            walk = (i,) + tup
            term = a[walk[-1], i]
            for p in range(1, w):
                term *= a[walk[p - 1], walk[p]] * fprime_vectors[s + p][walk[p]]
            out[i] += term
    return out


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------

def run_treelike(a, cfg, stream=0, n_cap=EXACT_N_CAP, budget=None):
    """Treelike AMP with exact distinct-index Onsager vectors.

    x_0 = 1 and f_0 is the constant-one function; each matrix step subtracts
    b_{s,t} * f_s over all earlier times s.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if cfg.mode != "exact_treelike":
        raise ValueError("config mode must be exact_treelike")
    if n > n_cap or cfg.T > EXACT_T_CAP:
        raise ValueError("exact mode budget: n <= %d, T <= %d" % (n_cap, EXACT_T_CAP))
    a = graphpoly._as_matrix(a)
    calls = tuple((s, t) for t in range(1, cfg.T + 1) for s in range(t))
    memo = graphpoly._Memo(_step_uses(calls, n))  # shared steps of this trial
    fs = list(cfg.nonlinearities)
    fs[0] = Polynomial((1.0,))  # f_0 = all-ones by convention
    fvec = [np.ones(n)]
    fprime = [np.zeros(n)]
    iters = np.empty((cfg.T, n))
    onsager = {}
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        for s in range(t):
            b = onsager_b(a, fprime, s, t, budget=budget, _memo=memo)
            onsager[(s, t)] = b
            xt = xt - b * fvec[s]
        _check_finite(xt, t)
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fprime.append(fs[t].derivative()(xt))
    return AMPTrace(np.ones(n), iters, onsager, cfg.mode)


class TrialBlock(tuple):
    """AMPConfigs, differing only in seed, of trials run in lockstep on one
    matrix; like a config it has a T and mode (read by benchmark/tracer.py)."""

    def __new__(cls, cfgs):
        block = super().__new__(cls, cfgs)
        shared = [{k: v for k, v in c.to_json().items() if k != "seed"} for c in block]
        if not block or any(s != shared[0] for s in shared):
            raise ValueError("a trial block needs configs differing only in seed")
        return block

    T = property(lambda self: self[0].T)
    mode = property(lambda self: self[0].mode)


def _matvec(a, f, out):
    """out[j] = a @ f[j] per row of f, each row tile of a (about 1 MiB) applied to
    every row of f while in cache.  Tiles start on multiples of 16 rows and a one-row
    tail (numpy's dot kernel) joins the tile before, so each row has the bytes of an
    untiled a @ f[j] on one BLAS thread."""
    m, n = a.shape
    rows = max(16, 2 ** 20 // (8 * n) // 16 * 16)
    ends = list(range(rows, m - 1, rows)) + [m]
    for r0, r1 in zip([0] + ends, ends):
        for v, y in zip(f, out):
            np.matmul(a[r0:r1], v, out=y[r0:r1])
    return out


def _row_means(m):
    # np.mean row by row: each the pairwise sum of one trial's vector
    return np.array([np.mean(row) for row in m])


def _memory_term(a, cfg):
    """cfg's memory term: a generator of (t, fvec, fprime, fpmean) yielding per
    Onsager key each row's coefficient and the term to subtract from A f_{t-1},
    from rows f_s(x_s), f'_{t-1}(x_{t-1}) and the row means of f'_s(x_s)."""
    if cfg.mode == "block_goe":
        a2 = a * a

        def memory(t, fvec, fprime, fpmean):
            if t >= 2:
                b = _matvec(a2, fprime, np.empty_like(fprime))
                yield (t - 2, t), b, b * fvec[t - 2]
        return memory

    kap, centred = cfg.kappa, cfg.mode == "punctured_kappa"

    def memory(t, fvec, fprime, fpmean):
        for s in range(t):
            coef = np.full(len(fvec[s]), kap[t - s])
            for r in range(s + 1, t):
                coef *= fpmean[r]
            f = fvec[s] - _row_means(fvec[s])[:, None] if centred else fvec[s]
            yield (s, t), coef.tolist(), coef[:, None] * f
    return memory


def _lockstep(a, block, streams):
    """Scalar-Onsager or block-GOE AMP for the trials of `block` (one stream
    each) in lockstep on `a`: one AMPTrace or DivergenceError per trial.  Row j
    of each array, the j-th live trial, gets the operations of that trial run
    alone; a trial leaves at its first non-finite iterate."""
    cfg, k, n = block[0], len(block), a.shape[0]
    fs, memory = cfg.nonlinearities, _memory_term(a, cfg)
    x0 = np.stack([_init_vector(c, n, s) for c, s in zip(block, streams)])
    iters = np.empty((k, cfg.T, n))
    onsager, out, live = [{} for _ in range(k)], [None] * k, np.arange(k)
    fvec, fprime = [fs[0](x0)], fs[0].derivative()(x0)
    fpmean = [_row_means(fprime)]
    for t in range(1, cfg.T + 1):
        xt = _matvec(a, fvec[t - 1], np.empty((len(live), n)))
        for key, coef, term in memory(t, fvec, fprime, fpmean):
            for trial, c in zip(live, coef):
                onsager[trial][key] = c
            xt = xt - term
        finite = np.isfinite(xt)
        ok = finite.all(axis=1)
        if not ok.all():
            for j in np.flatnonzero(~ok):
                out[live[j]] = DivergenceError(t, int(np.flatnonzero(~finite[j])[0]))
            live, xt, fprime = live[ok], xt[ok], fprime[ok]
            fvec, fpmean = [f[ok] for f in fvec], [m[ok] for m in fpmean]
        iters[live, t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fprime = fs[t].derivative()(xt)
            fpmean.append(_row_means(fprime))
    for j in live:
        out[j] = AMPTrace(x0[j], iters[j], onsager[j], cfg.mode)
    return out


def _one_trial(a, cfg, stream, mode):
    if cfg.mode != mode:
        raise ValueError("config mode must be %s" % mode)
    (res,) = _lockstep(np.asarray(a, dtype=np.float64), TrialBlock([cfg]), [stream])
    if isinstance(res, DivergenceError):
        raise res
    return res


def run_oamp(a, cfg, stream=0):
    """Scalar-Onsager AMP for matrices with factorizing cactus limits:
    the memory coefficient for lag t-s is kappa_{t-s} times the product of
    empirical mean derivatives along the interior steps."""
    return _one_trial(a, cfg, stream, "scalar_kappa")


def run_punctured(a, cfg, stream=0):
    """Scalar-Onsager AMP for punctured matrices: gaussian start, f_0 = id,
    and centered memory terms f_s(x_s) - <f_s(x_s)> 1."""
    return _one_trial(a, cfg, stream, "punctured_kappa")


def run_block_goe(a, cfg, stream=0):
    """Block-GOE AMP: the lag-2 memory coefficient is the entrywise-squared
    matrix applied to the derivative vector."""
    return _one_trial(a, cfg, stream, "block_goe")


def run(a, cfg, stream=0):
    """AMP in cfg's mode.  One AMPConfig: its AMPTrace, or DivergenceError
    raised.  A sequence of configs that differ only in their seed, with one
    stream each: one AMPTrace or DivergenceError per trial, the trials run in
    lockstep on `a` outside exact_treelike mode."""
    if isinstance(cfg, AMPConfig):
        if cfg.mode == "exact_treelike":
            return run_treelike(a, cfg, stream=stream)
        return _one_trial(a, cfg, stream, cfg.mode)
    block = TrialBlock(cfg)
    if len(stream) != len(block):
        raise ValueError("%d streams for %d trials" % (len(stream), len(block)))
    if block.mode != "exact_treelike":
        return _lockstep(np.asarray(a, dtype=np.float64), block, stream)
    out = []
    for c in block:
        try:
            out.append(run_treelike(a, c))
        except DivergenceError as exc:
            out.append(exc)
    return out


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------

def empirical_state(trace, block_labels=None, max_power=6):
    """Empirical moments of the iterates: pair moments <x_s x_t> and powers
    <x_t^k>, optionally conditioned on block labels."""
    def moments(xs):
        T = len(xs)
        return {"second": {(s, t): float(np.mean(xs[s - 1] * xs[t - 1]))
                           for s in range(1, T + 1) for t in range(s, T + 1)},
                "power": {(t, k): float(np.mean(xs[t - 1] ** k))
                          for t in range(1, T + 1) for k in range(1, max_power + 1)}}

    xs = [trace.x(t) for t in range(1, trace.T + 1)]
    out = moments(xs)
    if block_labels is not None:
        labels = np.asarray(block_labels)
        out["blocks"] = {int(r): moments([x[labels == r] for x in xs])
                         for r in sorted(set(labels.tolist()))}
    return out
