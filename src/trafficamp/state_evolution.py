"""Closed-form covariance recursions predicting AMP asymptotic states.

Each variant builds a symmetric T x T kernel whose (s, t) entry is the
limiting value of <x_s x_t>, with all Gaussian expectations evaluated exactly
through the matching calculus in :mod:`trafficamp.gaussian`.  The variants run
one column-by-column recursion and differ only in the entries of a column.
"""

from __future__ import annotations

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

    @property
    def gamma(self):
        if len(self.gammas) != 1:
            raise ValueError("kernel is a mixture; use .gammas")
        return self.gammas[0]

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


def _law(gamma, T):
    """Gaussian law on coordinates 0..T: X_0 = 1 deterministic, X_1..X_T
    centered with the given covariance (entries beyond the filled block 0)."""
    cov = np.zeros((T + 1, T + 1))
    cov[1:, 1:] = gamma
    mean = np.zeros(T + 1)
    mean[0] = 1.0
    return GaussianLaw(cov, mean=mean, deterministic=[True] + [False] * T)


def _pair_expectation(law, fa, a, fb, b):
    """E[fa(X_a) fb(X_b)] under the law; coordinates may coincide."""
    if a == b:
        prod = _poly_mul(fa, fb)
        return poly_expectation({a: prod}, law)
    return poly_expectation({a: fa, b: fb}, law)


def _poly_mul(p, q):
    out = [0.0] * (p.degree + q.degree + 1)
    for i, c in enumerate(p.coeffs):
        for j, d in enumerate(q.coeffs):
            out[i + j] += c * d
    return Polynomial(tuple(out))


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


def _kernels(T, weights, variant, column):
    """The SEKernel of one T x T kernel per mixture weight, filled column by
    column.  column(t, laws) yields, for s = 1..t, the (s, t) entries of all
    kernels; laws[i] is the law of kernel i with columns 1..t-1 filled, the
    only entries that column t reads."""
    gammas = [np.zeros((T, T)) for _ in weights]
    for t in range(1, T + 1):
        laws = [_law(g, T) for g in gammas]
        for s, entries in enumerate(column(t, laws), 1):
            for g, x in zip(gammas, entries):
                g[s - 1, t - 1] = g[t - 1, s - 1] = _finite(x, t)
    return SEKernel(tuple(gammas), weights, variant, T)


def se_orthogonal(fs, kappa, T):
    """Kernel for the scalar-kappa iteration on factorizing-cactus matrices.

    Gamma[s,t] sums kappa_{s-s'+t-t'} times interior mean-derivative products
    times E[f_{s'}(X_{s'}) f_{t'}(X_{t'})], all under the partially built
    kernel with X_0 = 1.
    """
    return _se_scalar([named_polynomial(f) for f in fs], kappa, T, "orthogonal")


def se_punctured(fs, kappa, T):
    """Punctured variant: same recursion with centered factors
    Fbar_t = f_t(X_t) - E f_t(X_t) and Fbar_0 = 1."""
    fs = [named_polynomial(f) for f in fs]
    if fs[0].coeffs != (0.0, 1.0):
        raise ValueError("punctured state evolution requires f_0(x) = x")
    return _se_scalar(fs, kappa, T, "punctured")


def _se_scalar(fs, kappa, T, variant):
    if len(fs) < T:
        raise ValueError("need f_0..f_{T-1}")
    if len(kappa) < 2 * T:
        raise ValueError("kappa table must cover order 2T")
    centered = variant == "punctured"
    fprime_mean, fmean = {}, {}

    def column(t, laws):
        lw = laws[0]
        if t - 1 >= 1:
            fprime_mean[t - 1] = poly_expectation({t - 1: fs[t - 1].derivative()}, lw)
            if centered:
                fmean[t - 1] = poly_expectation({t - 1: fs[t - 1]}, lw)

        def pair(sp, tp):  # E[Fbar_sp Fbar_tp] when centered, with Fbar_0 = 1
            if centered and 0 in (sp, tp):
                return float(sp == tp)  # E[Fbar_t] = 0 by centering
            raw = _pair_expectation(lw, fs[sp], sp, fs[tp], tp)
            return raw - fmean[sp] * fmean[tp] if centered else raw
        return ((_kappa_sum(kappa, fprime_mean, s, t, pair),) for s in range(1, t + 1))

    return _kernels(T, (1.0,), variant, column)


def se_block_goe(fs, sigma, q, T):
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
    if len(fs) < T:
        raise ValueError("need f_0..f_{T-1}")

    def column(t, laws):
        for s in range(1, t + 1):
            e = [_pair_expectation(lw, fs[s - 1], s - 1, fs[t - 1], t - 1) for lw in laws]
            yield [sum(sigma[r, c] / q * e[c] for c in range(q) if sigma[r, c] != 0.0)
                   for r in range(q)]

    return _kernels(T, (1.0 / q,) * q, "block_goe", column)


def se_community(fs, kappa_inner, q, T):
    """Kernels for the community model: Gamma_0 (outside) takes mixture pair
    moments; Gamma_1 (inside) adds the inner-cumulant double sum excluding
    the (s-1, t-1) term."""
    fs = [named_polynomial(f) for f in fs]
    if len(fs) < T:
        raise ValueError("need f_0..f_{T-1}")
    if abs(kappa_inner[2] - 1.0 / q) > 1e-12:
        raise ValueError("community model requires inner kappa_2 = 1/q")
    if len(kappa_inner) < 2 * T:
        raise ValueError("kappa table must cover order 2T")
    w0, w1 = 1.0 - 1.0 / q, 1.0 / q
    fprime_mean1 = {}

    def column(t, laws):
        lw0, lw1 = laws
        if t - 1 >= 1:
            fprime_mean1[t - 1] = poly_expectation({t - 1: fs[t - 1].derivative()}, lw1)

        def pair1(sp, tp):
            return _pair_expectation(lw1, fs[sp], sp, fs[tp], tp)
        for s in range(1, t + 1):
            mix = (w0 * _pair_expectation(lw0, fs[s - 1], s - 1, fs[t - 1], t - 1)
                   + w1 * pair1(s - 1, t - 1))
            yield mix, mix + _kappa_sum(kappa_inner, fprime_mean1, s, t, pair1,
                                        skip=(s - 1, t - 1))

    return _kernels(T, (w0, w1), "community", column)


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

    `report` aggregates per-seed empirical_state outputs: it must carry
    {"second": {(s,t): (mean, se)}, "power": {(t,k): (mean, se)}} and, for
    mixture kernels, "blocks": {r: {...same...}}.  Each compared group is a
    mixture of kernels: "all" is the whole kernel, block r its kernel r alone,
    and a statistic's prediction is the weighted sum over the mixture.  Blocks
    are compared when the kernel is a mixture and the report has blocks, else
    "all".  Returns a verdict table (list of row dicts) and an overall pass
    flag.  A report whose SEs are all 0 (one trial), or with a statistic or
    block the kernel does not have, gives no z-scores and raises ValueError.
    """
    subs = [report] + list(report.get("blocks", {}).values())
    ses = [se for g in subs for part in ("second", "power")
           for _, se in g.get(part, {}).values()]
    if ses and not any(ses):
        raise ValueError("every across-trial SE in the report is 0, as from a "
                         "1-trial run; compare needs at least 2 trials")
    if len(kernel.gammas) == 1 or "blocks" not in report:
        groups = [("all", report, kernel.gammas, kernel.weights)]
    else:
        for r in report["blocks"]:
            if not 0 <= r < len(kernel.gammas):
                raise ValueError("the moments have block %d; the kernel has %d blocks"
                                 % (r, len(kernel.gammas)))
        groups = [("block%d" % r, sub, (kernel.gammas[r],), (1.0,))
                  for r, sub in sorted(report["blocks"].items())]
    stats = (("second", "x%d*x%d", lambda g, s, t: g[s - 1, t - 1]),
             ("power", "x%d^%d",
              lambda g, t, k: gaussian_power_moment(g[t - 1, t - 1], k)))
    for name, sub, _, _ in groups:
        for part, fmt, _ in stats:
            for a, b in sub.get(part, {}):
                if not 1 <= a <= kernel.T or part == "second" and not 1 <= b <= kernel.T:
                    raise ValueError("statistic %s of group %s is outside the kernel's "
                                     "T = %d" % (fmt % (a, b), name, kernel.T))
    rows = []
    for name, sub, gammas, weights in groups:
        for part, fmt, target in stats:
            for (a, b), (mean, se) in sorted(sub.get(part, {}).items()):
                pred = sum(w * target(g, a, b) for g, w in zip(gammas, weights))
                rows.append({"group": name, "stat": fmt % (a, b), "s": a, "t": b,
                             "empirical": mean, "predicted": pred,
                             "z": abs(mean - pred) / max(se, SE_FLOOR)})
    passed = all(row["z"] <= threshold for row in rows)
    return rows, passed


def aggregate_reports(states):
    """Combine per-seed empirical_state dicts into (mean, across-seed SE) maps,
    for the whole report and for each block alike."""
    m = len(states)

    def agg(groups):  # one group (the whole report, or a block) per seed
        out = {}
        for part in ("second", "power"):
            out[part] = {}
            for key in groups[0][part]:
                vals = np.array([g[part][key] for g in groups], dtype=np.float64)
                se = vals.std(ddof=1) / np.sqrt(m) if m > 1 else 0.0
                out[part][key] = (float(vals.mean()), float(se))
        return out

    out = agg(states)
    if "blocks" in states[0]:
        out["blocks"] = {r: agg([st["blocks"][r] for st in states])
                         for r in states[0]["blocks"]}
    return out
