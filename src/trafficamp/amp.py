"""AMP iterations with exact or scalar Onsager corrections.

One iteration loop serves every mode; the modes differ only in the memory
(Onsager) term.  Exact treelike mode subtracts distinct-index closed-walk
sums, computed exactly by Mobius inversion over vertex partitions of the walk
cycle.  The scalar variants replace those vectors by their asymptotic values:
free-cumulant coefficients (orthogonally invariant / punctured models) or an
entrywise-squared matrix product (block GOE).
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import graphpoly
from .diagrams import cycle_diagram, partition_mobius, quotient, set_partitions
from .ensembles import stream_rng
from .freeprob import CumulantTable
from .gaussian import named_polynomial

EXACT_WINDOW_CAP = 7  # the longest window onsager_b_brute is tested at
_MEMORY_BOUND = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2  # half the RAM

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
        if self.init not in ("ones", "gaussian"):
            raise ValueError("unknown init %r" % self.init)
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
        if self.mode == "exact_treelike" and self.T > EXACT_WINDOW_CAP:
            raise ValueError("exact mode: T <= %d, the longest window" % EXACT_WINDOW_CAP)
        if self.kappa is not None and self.mode in ("exact_treelike", "block_goe"):
            raise ValueError("%s mode does not read kappa" % self.mode)


def _init_vector(cfg, n, key):
    if cfg.init == "gaussian":
        return stream_rng(*key).standard_normal(n)
    return np.ones(n)


# ---------------------------------------------------------------------------
# exact Onsager vectors
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _window_terms(w):
    """One (Mobius coefficient, quotient, weighted vertices, walk positions
    weighted at each) per partition of the w walk positions."""
    cyc = cycle_diagram(w, rooted=True)
    terms = []
    for part in set_partitions(range(w)):
        q = quotient(cyc, part)
        blocks = sorted([sorted(b) for b in part], key=lambda b: b[0])
        # position 0 is the root; every later position carries a weight
        verts = tuple(bi for bi, block in enumerate(blocks) if block != [0])
        positions = tuple(tuple(p for p in blocks[bi] if p) for bi in verts)
        terms.append((partition_mobius(part), q, verts, positions))
    return tuple(terms)


@functools.lru_cache(maxsize=None)
def _windows_program(windows, n, same):
    """The compiled program of onsager_b over the (s, t) windows, in order, on
    one n x n matrix, and the output index of each window.  A weight is the
    product of f'_r over the absolute steps r its vertex covers, in order, with
    step r read as step same[r]: steps of equal weights share every value built
    from them."""
    outputs = tuple((True, tuple(
        (mu, q, verts, graphpoly._edge_keys(q)
         + tuple(("weight",) + tuple(same[s + p] for p in ps) for ps in positions))
        for mu, q, verts, positions in _window_terms(t - s))) for s, t in windows)
    return graphpoly._compile(outputs, n), {win: k for k, win in enumerate(windows)}


def _same_weights(cfg):
    """same[r]: the first step whose f' is the same constant as f'_r, or r when
    f_r is nonlinear.  A constant f' evaluates to exactly its coefficient at
    every finite x (0 * x + c), so those steps' weight vectors are bitwise equal."""
    first, same = {}, []
    for r, f in enumerate(cfg.nonlinearities[:cfg.T]):
        fp = f.derivative().coeffs
        same.append(first.setdefault(fp, r) if len(fp) == 1 else r)
    return tuple(same)


def _exact_program(n, cfg, threads=1):
    """The windows program of cfg's exact trial at size n, and its window index.
    Raises BudgetError when `threads` trials at once, each the program's peak
    bytes plus its 8 n^2-byte matrix, would exceed _MEMORY_BOUND."""
    T = cfg.T
    prog, index = _windows_program(tuple((s, t) for t in range(1, T + 1)
                                         for s in range(t - 1)), n, _same_weights(cfg))
    need = threads * (prog.peak + 8 * n * n)
    if need > _MEMORY_BOUND:
        raise graphpoly.BudgetError("exact mode at n=%d, T=%d on %d thread(s) needs %.3g bytes, "
                                    "over the bound of %.3g (half of physical memory)"
                                    % (n, T, threads, need, _MEMORY_BOUND))
    return prog, index


def onsager_b(a, fprime_vectors, s, t, _trial=None):
    """Distinct-index closed-walk sum b_{s,t}, exactly.

    fprime_vectors[r] supplies the weight vector at interior step r, needed
    for s < r < t; the window t-s is 1..EXACT_WINDOW_CAP.  Computed by Mobius
    inversion over set partitions of the t-s walk positions, evaluating each
    contracted weighted cycle as one output of a compiled program, under the
    engine's default budget of 8 n^3 per quotient (each such window needs at
    most 0.75 of it).  The exact memory term passes its per-trial `_trial`
    (program, window index, slots; it has checked `a`), so a kernel result
    shared by the windows of a trial runs once per trial.
    """
    a = np.asarray(a, dtype=np.float64)
    w = t - s
    if not 1 <= w <= EXACT_WINDOW_CAP:
        raise ValueError("window %d outside 1..%d" % (w, EXACT_WINDOW_CAP))
    if w == 1:
        return np.diag(a).copy()
    if _trial is None:
        a = graphpoly._as_matrix(a)
        fprime_vectors = {r: np.asarray(fprime_vectors[r], dtype=np.float64)
                          for r in range(s + 1, t)}
        prog, index = _windows_program(((s, t),), len(a), tuple(range(t)))
        _trial = prog, index, [None] * prog.size
    prog, index, slots = _trial
    return graphpoly._execute(prog, index[(s, t)], slots, a, fprime_vectors)


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
    """cfg's memory term: a generator of (t, fvec, fprime, fpmean) yielding the
    terms to subtract from A f_{t-1}, given rows f_s(x_s), f'_{t-1}(x_{t-1}) and
    the row means of f'_s(x_s)."""
    if cfg.mode == "exact_treelike":
        a = graphpoly._as_matrix(a)
        prog, index = _exact_program(len(a), cfg)
        # x_0 = 1 on one matrix makes every row the same trial: one run of the
        # program and one f'_0, f'_1, ... history, from row 0
        trial, hist = (prog, index, [None] * prog.size), []

        def memory(t, fvec, fprime, fpmean):
            hist.append(fprime[0])
            for s in range(t):
                yield onsager_b(a, hist, s, t, _trial=trial) * fvec[s]
        return memory

    if cfg.mode == "block_goe":
        a2 = a * a

        def memory(t, fvec, fprime, fpmean):
            if t >= 2:
                yield _matvec(a2, fprime, np.empty_like(fprime)) * fvec[t - 2]
        return memory

    kap, centred = cfg.kappa, cfg.mode == "punctured_kappa"

    def memory(t, fvec, fprime, fpmean):
        for s in range(t):
            coef = np.full(len(fvec[s]), kap[t - s])
            for r in range(s + 1, t):
                coef *= fpmean[r]
            f = fvec[s] - _row_means(fvec[s])[:, None] if centred else fvec[s]
            yield coef[:, None] * f
    return memory


def _lockstep(a, cfg, keys):
    """AMP for cfg's trials (one Philox key each) in lockstep on `a`: one (T, n)
    iterates array or DivergenceError per trial.  Row j of each array, the j-th
    live trial, gets the operations of that trial run alone; a trial leaves at its
    first non-finite iterate."""
    fs, k, n = cfg.nonlinearities, len(keys), a.shape[0]
    memory = _memory_term(a, cfg)
    x0 = np.stack([_init_vector(cfg, n, key) for key in keys])
    iters = np.empty((k, cfg.T, n))
    out, live = [None] * k, np.arange(k)
    fvec, fprime = [fs[0](x0)], fs[0].derivative()(x0)
    fpmean = [_row_means(fprime)]
    for t in range(1, cfg.T + 1):
        xt = _matvec(a, fvec[t - 1], np.empty((len(live), n)))
        for term in memory(t, fvec, fprime, fpmean):
            xt = xt - term
        finite = np.isfinite(xt)
        ok = finite.all(axis=1)
        if not ok.all():
            for j in np.flatnonzero(~ok):
                out[live[j]] = DivergenceError(t, int(np.flatnonzero(~finite[j])[0]))
            live, xt, fprime = live[ok], xt[ok], fprime[ok]
            fvec, fpmean = [f[ok] for f in fvec], [m[ok] for m in fpmean]
            if not live.size:
                break
        iters[live, t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fprime = fs[t].derivative()(xt)
            fpmean.append(_row_means(fprime))
    for j in live:
        out[j] = iters[j]
    return out


def run(a, cfg, keys=None):
    """AMP in cfg's mode.  Without keys, one trial keyed (cfg.seed, 0): its (T, n)
    iterates x_1..x_T, or DivergenceError raised.  With keys, a non-empty list of
    Philox keys (seed, stream), one trial each, run in lockstep on `a`: one
    iterates array or DivergenceError per trial."""
    if keys is not None and not len(keys):
        raise ValueError("run needs at least one key")
    out = _lockstep(np.asarray(a, dtype=np.float64), cfg,
                    [(cfg.seed, 0)] if keys is None else keys)
    if keys is not None:
        return out
    if isinstance(out[0], DivergenceError):
        raise out[0]
    return out[0]


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------

def empirical_state(iterates, block_labels=None, max_power=6):
    """Empirical moments of the (T, n) iterates under the row keys of moments.csv,
    in its order: (group, "second", s, t) -> <x_s x_t> for s <= t, then (group,
    "power", t, k) -> <x_t^k>, for the group "all", then per block label r
    "block<r>"."""
    xs = np.ascontiguousarray(iterates)
    T = len(xs)
    keys = ([("second", s, t) for s in range(1, T + 1) for t in range(s, T + 1)]
            + [("power", t, k) for t in range(1, T + 1) for k in range(1, max_power + 1)])
    groups = [("all", xs)]
    if block_labels is not None:
        labels = np.asarray(block_labels)
        groups += [("block%d" % r, np.ascontiguousarray(xs[:, labels == r]))
                   for r in sorted(set(labels.tolist()))]
    out = {}
    for group, x in groups:
        # the (T, m) rows of the products with x_s, and of the k-th powers, each
        # row's mean reduced along its contiguous axis: the bytes of np.mean over
        # that row alone
        second = np.concatenate([np.mean(x[s] * x[s:], axis=1) for s in range(T)])
        power = np.column_stack([np.mean(x ** k, axis=1) for k in range(1, max_power + 1)])
        out.update(zip([(group,) + key for key in keys],
                       second.tolist() + power.ravel().tolist()))
    return out
