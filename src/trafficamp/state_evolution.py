"""Closed-form covariance recursions predicting AMP asymptotic states.

One recursion, `_se_blocks`, builds a symmetric T x T kernel per latent block
whose (s, t) entry is the limit of <x_s x_t> in that block: a weighted sum of
the blocks' pair moments, plus a free-cumulant double sum for a block with a
cumulant table, all Gaussian expectations exact through :mod:`trafficamp.gaussian`.
Its one law, `_law`, takes the AMP start X_0: 1, or N(0, 1) independent of the
iterates.  se_orthogonal, se_punctured (centered), se_block_goe and
se_community are presets of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianLaw, Polynomial, named_polynomial, poly_expectation

PSD_TOL = -1e-9
SE_FLOOR = 1e-9  # the least SE a compare z-score divides by


class SEDivergenceError(RuntimeError):
    """A kernel entry of the recursion overflowed to a non-finite value."""

    def __init__(self, t):
        super().__init__("state evolution diverged: kernel not finite at t=%d" % t)
        self.t = t


def _finite(x, t):
    """x, a kernel entry computed at step t, if it is finite."""
    if not np.isfinite(x):
        raise SEDivergenceError(t)
    return x


@dataclass
class SEKernel:
    """State-evolution prediction: one covariance kernel, or a block family
    of kernels with mixture weights."""

    gammas: tuple              # one or more T x T arrays
    weights: tuple             # mixture weights, summing to 1
    variant: str
    T: int

    def __post_init__(self):
        self.gammas = tuple(np.asarray(g, dtype=np.float64) for g in self.gammas)
        self.weights = tuple(float(w) for w in self.weights)
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        for g in self.gammas:
            if g.shape != (self.T, self.T):
                raise ValueError("kernel shape mismatch")
            if not np.array_equal(g, g.T):
                raise ValueError("kernel must be exactly symmetric")
            evs = np.linalg.eigvalsh(g)
            if evs.min() < PSD_TOL * max(1.0, abs(evs).max()):
                raise ValueError("kernel not PSD: min eigenvalue %g" % evs.min())

    def to_json(self):
        # sub-1e-14 entries are snapped to 0 in the serialized report only
        def snap(g):
            out = g.copy()
            out[np.abs(out) < 1e-14] = 0.0
            return out.reshape(-1).tolist()

        return {"variant": self.variant, "T": self.T,
                "weights": list(self.weights),
                "gammas": [snap(g) for g in self.gammas]}

    @classmethod
    def from_json(cls, obj):
        T = int(obj["T"])
        gammas = tuple(np.array(g, dtype=np.float64).reshape(T, T)
                       for g in obj["gammas"])
        return cls(gammas, tuple(obj["weights"]), obj["variant"], T)


def _law(gamma, T, init="ones"):
    """Gaussian law on coordinates 0..T: the start X_0, which is 1 for init
    "ones" and N(0, 1) independent of the rest for init "gaussian", and X_1..X_T
    centered with the given covariance (entries beyond the filled block 0)."""
    ones = {"ones": True, "gaussian": False}[init]
    cov = np.zeros((T + 1, T + 1))
    cov[0, 0], cov[1:, 1:] = float(not ones), gamma
    return GaussianLaw(cov, mean=[float(ones)] + [0.0] * T, deterministic=[ones] + [False] * T)


def _pair_expectation(law, fa, a, fb, b):
    """E[fa(X_a) fb(X_b)] under the law; coordinates may coincide."""
    if a != b:
        return poly_expectation({a: fa, b: fb}, law)
    prod = [0.0] * (fa.degree + fb.degree + 1)
    for i, c in enumerate(fa.coeffs):
        for j, d in enumerate(fb.coeffs):
            prod[i + j] += c * d
    return poly_expectation({a: Polynomial(tuple(prod))}, law)


def _kappa_sum(kappa, fprime_mean, s, t, pair, skip=None):
    """Sum over s' < s, t' < t, other than skip, of kappa_{s-s'+t-t'} times
    the mean derivatives at the interior steps of both lags times
    pair(s', t'); terms with a zero coefficient are not evaluated."""
    total = 0.0
    for sp in range(s):
        for tp in range(t):
            if (sp, tp) == skip:
                continue
            coef = kappa[s - sp + t - tp]
            if coef == 0.0:
                continue
            for r in range(sp + 1, s):
                coef *= fprime_mean[r]
            for r in range(tp + 1, t):
                coef *= fprime_mean[r]
            if coef == 0.0:
                continue
            total += coef * pair(sp, tp)
    return total


def _se_blocks(fs, T, weights, coef, tables, variant, init, centered=False):
    """The SEKernel of one T x T kernel per latent block r, with mixture weight
    weights[r], filled column by column: Gamma_r[s,t] sums coef[r][c] times
    E_c[F_{s-1} F_{t-1}] over blocks c, plus, when tables[r] is not None, its
    _kappa_sum under law r without the (s-1, t-1) term.  E_c is under kernel c
    with columns 1..t-1 filled, all that column t reads, and the start `init`;
    F_t = f_t(X_t), or when centered f_t(X_t) - E f_t(X_t).  Zero coefficients
    are not evaluated."""
    blocks = range(len(weights))
    used = [any(row[c] != 0.0 for row in coef) for c in blocks]
    gammas = [np.zeros((T, T)) for _ in blocks]
    fprime_mean, fmean = [{} for _ in blocks], [{} for _ in blocks]

    def pair(c, sp, tp):  # E_c[F_sp F_tp] under the laws of the current column
        raw = _pair_expectation(laws[c], fs[sp], sp, fs[tp], tp)
        return raw - fmean[c][sp] * fmean[c][tp] if centered else raw

    for t in range(1, T + 1):
        laws = [_law(g, T, init) for g in gammas]
        for c in blocks:
            if tables[c] is not None and t >= 2:
                fprime_mean[c][t - 1] = poly_expectation({t - 1: fs[t - 1].derivative()},
                                                         laws[c])
            if centered:
                fmean[c][t - 1] = poly_expectation({t - 1: fs[t - 1]}, laws[c])
        for s in range(1, t + 1):
            e = [pair(c, s - 1, t - 1) if used[c] else None for c in blocks]
            for r in blocks:
                x = sum(coef[r][c] * e[c] for c in blocks if coef[r][c] != 0.0)
                if tables[r] is not None:
                    x += _kappa_sum(tables[r], fprime_mean[r], s, t,
                                    functools.partial(pair, r), skip=(s - 1, t - 1))
                gammas[r][s - 1, t - 1] = gammas[r][t - 1, s - 1] = _finite(x, t)
    return SEKernel(tuple(gammas), weights, variant, T)


def _check(fs, T, kappa=None):
    if len(fs) < T:
        raise ValueError("need f_0..f_{T-1}")
    if kappa is not None and len(kappa) < 2 * T:
        raise ValueError("kappa table must cover order 2T")


def se_orthogonal(fs, kappa, T, init="ones"):
    """Kernel for the scalar-kappa iteration on factorizing-cactus matrices: the
    kappa double sum over (s', t') under the partially built kernel with the
    start X_0 of `init`, as one block whose coefficient kappa_2 carries its
    (s-1, t-1) term."""
    fs = [named_polynomial(f) for f in fs]
    _check(fs, T, kappa)
    return _se_blocks(fs, T, (1.0,), [[kappa[2]]], (kappa,), "orthogonal", init)


def se_punctured(fs, kappa, T):
    """Punctured variant: se_orthogonal from the Gaussian start with centered
    factors Fbar_t = f_t(X_t) - E f_t(X_t); f_0(x) = x makes Fbar_0 = X_0."""
    fs = [named_polynomial(f) for f in fs]
    if fs[0].coeffs != (0.0, 1.0):
        raise ValueError("punctured state evolution requires f_0(x) = x")
    _check(fs, T, kappa)
    return _se_blocks(fs, T, (1.0,), [[kappa[2]]], (kappa,), "punctured", "gaussian", True)


def se_block_goe(fs, sigma, q, T, init="ones"):
    """Kernel family for the block GOE model, one kernel per block row, with
    uniform mixture weights.

    Gamma_r[s,t] = (1/q) sum_c sigma[r,c] E_{mu_c}[f_{s-1} f_{t-1}]; the 1/q
    matches the entrywise variance sigma[r,c]/n of the n x n model, under
    which the per-block second-moment cumulant at matrix scale is
    sigma[r,c]/q (pinned by Monte Carlo in the acceptance suite).
    """
    fs = [named_polynomial(f) for f in fs]
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (q, q) or not np.allclose(sigma, sigma.T):
        raise ValueError("sigma must be symmetric q x q")
    if np.any(sigma < 0):
        raise ValueError("sigma entries must be nonnegative")
    _check(fs, T)
    return _se_blocks(fs, T, (1.0 / q,) * q, sigma / q, (None,) * q, "block_goe", init)


def se_community(fs, kappa_inner, q, T):
    """Kernels for the community model: Gamma_0 (outside) and Gamma_1 (inside)
    both take the mixture pair moments, and Gamma_1 adds the inner-cumulant
    double sum."""
    fs = [named_polynomial(f) for f in fs]
    _check(fs, T)
    if len(kappa_inner) > 1 and abs(kappa_inner[2] - 1.0 / q) > 1e-12:
        raise ValueError("community model requires inner kappa_2 = 1/q")
    _check(fs, T, kappa_inner)
    w = (1.0 - 1.0 / q, 1.0 / q)
    return _se_blocks(fs, T, w, (w, w), (None, kappa_inner), "community", "ones")


# ---------------------------------------------------------------------------
# empirical comparison
# ---------------------------------------------------------------------------

def gaussian_power_moment(variance, k):
    """E X^k for X ~ N(0, variance)."""
    if k % 2 == 1:
        return 0.0
    double_fact = 1.0
    for j in range(k - 1, 0, -2):
        double_fact *= j
    return double_fact * variance ** (k // 2)


def compare_empirical(kernel, report, threshold=4.0):
    """z-scores of across-seed empirical moments against kernel predictions.

    `report` maps the row keys of moments.csv, (group, kind, a, b), to (mean,
    se), as aggregate_reports gives: group "all" or "block<r>", kind "second"
    (a, b = s, t) or "power" (a, b = t, k).  Each compared group is a mixture of
    kernels: "all" is the whole kernel, block r its kernel r alone, and a
    statistic's prediction is the weighted sum over the mixture.  The block rows
    are compared when the kernel is a mixture and the report has them, else the
    "all" rows.  Returns a verdict table (list of row dicts) and an overall pass
    flag.  A report with no statistic, with all SEs 0 (one trial), or with a
    statistic or block the kernel does not have raises ValueError.
    """
    if report and not any(se for _, se in report.values()):
        raise ValueError("every across-trial SE in the report is 0, as from a "
                         "1-trial run; compare needs at least 2 trials")
    blocks = len(kernel.gammas) > 1 and any(key[0] != "all" for key in report)
    chosen = {}  # (block r, or -1 for "all"; kind is "power"; a; b) -> (group, kind, stat)
    for (group, kind, a, b), stat in report.items():
        if (group != "all") == blocks:
            r = int(group[5:]) if blocks else -1
            if blocks and not 0 <= r < len(kernel.gammas):
                raise ValueError("the moments have block %d; the kernel has %d blocks"
                                 % (r, len(kernel.gammas)))
            chosen[r, kind == "power", a, b] = group, kind, stat
    stats = {"second": ("x%d*x%d", lambda g, s, t: g[s - 1, t - 1]),
             "power": ("x%d^%d", lambda g, t, k: gaussian_power_moment(g[t - 1, t - 1], k))}
    # checked group by group, each kind's statistics in the report's order
    for (_, _, a, b), (group, kind, _) in sorted(chosen.items(), key=lambda item: item[0][:2]):
        if not 1 <= a <= kernel.T or kind == "second" and not 1 <= b <= kernel.T:
            raise ValueError("statistic %s of group %s is outside the kernel's "
                             "T = %d" % (stats[kind][0] % (a, b), group, kernel.T))
    rows = []
    for (r, _, a, b), (group, kind, (mean, se)) in sorted(chosen.items()):
        fmt, target = stats[kind]
        gammas, weights = ((kernel.gammas[r],), (1.0,)) if blocks else (kernel.gammas,
                                                                         kernel.weights)
        pred = sum(w * target(g, a, b) for g, w in zip(gammas, weights))
        rows.append({"group": group, "stat": fmt % (a, b), "s": a, "t": b,
                     "empirical": mean, "predicted": pred,
                     "z": abs(mean - pred) / max(se, SE_FLOOR)})
    if not rows:
        raise ValueError("no statistics found in the report; nothing to compare")
    passed = all(row["z"] <= threshold for row in rows)
    return rows, passed


def aggregate_reports(states):
    """Combine per-seed empirical_state maps into one map from each of their
    keys to (mean, across-seed SE)."""
    m = len(states)
    out = {}
    for key in states[0]:
        vals = np.array([st[key] for st in states], dtype=np.float64)
        se = vals.std(ddof=1) / np.sqrt(m) if m > 1 else 0.0
        out[key] = (float(vals.mean()), float(se))
    return out
