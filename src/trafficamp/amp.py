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


def run_oamp(a, cfg, stream=0):
    """Scalar-Onsager AMP for matrices with factorizing cactus limits:
    the memory coefficient for lag t-s is kappa_{t-s} times the product of
    empirical mean derivatives along the interior steps."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if cfg.mode != "scalar_kappa":
        raise ValueError("config mode must be scalar_kappa")
    fs = cfg.nonlinearities
    kap = cfg.kappa
    x = _init_vector(cfg, n, stream)
    fvec = [fs[0](x)]
    fpmean = [float(np.mean(fs[0].derivative()(x)))]
    iters = np.empty((cfg.T, n))
    onsager = {}
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        for s in range(t):
            coef = kap[t - s]
            for r in range(s + 1, t):
                coef *= fpmean[r]
            onsager[(s, t)] = coef
            xt = xt - coef * fvec[s]
        _check_finite(xt, t)
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fpmean.append(float(np.mean(fs[t].derivative()(xt))))
    return AMPTrace(x.copy(), iters, onsager, cfg.mode)


def run_punctured(a, cfg, stream=0):
    """Scalar-Onsager AMP for punctured matrices: gaussian start, f_0 = id,
    and centered memory terms f_s(x_s) - <f_s(x_s)> 1."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if cfg.mode != "punctured_kappa":
        raise ValueError("config mode must be punctured_kappa")
    fs = cfg.nonlinearities
    kap = cfg.kappa
    x = _init_vector(cfg, n, stream)
    fvec = [fs[0](x)]
    fpmean = [float(np.mean(fs[0].derivative()(x)))]
    iters = np.empty((cfg.T, n))
    onsager = {}
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        for s in range(t):
            coef = kap[t - s]
            for r in range(s + 1, t):
                coef *= fpmean[r]
            onsager[(s, t)] = coef
            centered = fvec[s] - np.mean(fvec[s])
            xt = xt - coef * centered
        _check_finite(xt, t)
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fpmean.append(float(np.mean(fs[t].derivative()(xt))))
    return AMPTrace(x.copy(), iters, onsager, cfg.mode)


def run_block_goe(a, cfg, stream=0):
    """Block-GOE AMP: the lag-2 memory coefficient is the entrywise-squared
    matrix applied to the derivative vector."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if cfg.mode != "block_goe":
        raise ValueError("config mode must be block_goe")
    fs = cfg.nonlinearities
    a2 = a * a
    x = _init_vector(cfg, n, stream)
    fvec = [fs[0](x)]
    fprime = [fs[0].derivative()(x)]
    iters = np.empty((cfg.T, n))
    onsager = {}
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        if t >= 2:
            b = a2 @ fprime[t - 1]
            onsager[(t - 2, t)] = b
            xt = xt - b * fvec[t - 2]
        _check_finite(xt, t)
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fprime.append(fs[t].derivative()(xt))
    return AMPTrace(x.copy(), iters, onsager, cfg.mode)


RUNNERS = {
    "exact_treelike": run_treelike,
    "scalar_kappa": run_oamp,
    "punctured_kappa": run_punctured,
    "block_goe": run_block_goe,
}


def run(a, cfg, stream=0):
    return RUNNERS[cfg.mode](a, cfg, stream=stream)


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------

def empirical_state(trace, block_labels=None, max_power=6):
    """Empirical moments of the iterates: pair moments <x_s x_t> and powers
    <x_t^k>, optionally conditioned on block labels."""
    T = trace.T
    out = {"second": {}, "power": {}}
    for s in range(1, T + 1):
        for t in range(s, T + 1):
            out["second"][(s, t)] = float(np.mean(trace.x(s) * trace.x(t)))
    for t in range(1, T + 1):
        for k in range(1, max_power + 1):
            out["power"][(t, k)] = float(np.mean(trace.x(t) ** k))
    if block_labels is not None:
        labels = np.asarray(block_labels)
        blocks = {}
        for r in sorted(set(labels.tolist())):
            mask = labels == r
            sec = {}
            pow_ = {}
            for s in range(1, T + 1):
                for t in range(s, T + 1):
                    sec[(s, t)] = float(np.mean(trace.x(s)[mask] * trace.x(t)[mask]))
                for k in range(1, max_power + 1):
                    pow_[(s, k)] = float(np.mean(trace.x(s)[mask] ** k))
            blocks[int(r)] = {"second": sec, "power": pow_}
        out["blocks"] = blocks
    return out
