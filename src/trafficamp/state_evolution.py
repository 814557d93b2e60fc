"""Closed-form covariance recursions predicting AMP asymptotic states.

Each variant builds a symmetric T x T kernel whose (s, t) entry is the
limiting value of <x_s x_t>, with all Gaussian expectations evaluated exactly
through the matching calculus in :mod:`trafficamp.gaussian`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianLaw, Polynomial, named_polynomial, poly_expectation

PSD_TOL = -1e-9


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


def se_orthogonal(fs, kappa, T):
    """Kernel for the scalar-kappa iteration on factorizing-cactus matrices.

    Gamma[s,t] sums kappa_{s-s'+t-t'} times interior mean-derivative products
    times E[f_{s'}(X_{s'}) f_{t'}(X_{t'})], all under the partially built
    kernel with X_0 = 1.
    """
    fs = [named_polynomial(f) for f in fs]
    if len(fs) < T:
        raise ValueError("need f_0..f_{T-1}")
    if len(kappa) < 2 * T:
        raise ValueError("kappa table must cover order 2T")
    gamma = np.zeros((T, T))

    def law():
        return _law(gamma, T)

    fprime_mean = {}
    for t in range(1, T + 1):
        lw = law()
        if t - 1 >= 1:
            fprime_mean[t - 1] = poly_expectation(
                {t - 1: fs[t - 1].derivative()}, lw)
        for s in range(1, t + 1):
            lw = law()
            total = 0.0
            for sp in range(s):
                for tp in range(t):
                    coef = kappa[s - sp + t - tp]
                    if coef == 0.0:
                        continue
                    for r in range(sp + 1, s):
                        coef *= fprime_mean[r]
                    for r in range(tp + 1, t):
                        coef *= fprime_mean[r]
                    if coef == 0.0:
                        continue
                    total += coef * _pair_expectation(lw, fs[sp], sp, fs[tp], tp)
            gamma[s - 1, t - 1] = gamma[t - 1, s - 1] = _finite(total, t)
    return SEKernel((gamma,), (1.0,), "orthogonal", T)


def se_punctured(fs, kappa, T):
    """Punctured variant: same recursion with centered factors
    Fbar_t = f_t(X_t) - E f_t(X_t) and Fbar_0 = 1."""
    fs = [named_polynomial(f) for f in fs]
    if fs[0].coeffs != (0.0, 1.0):
        raise ValueError("punctured state evolution requires f_0(x) = x")
    if len(fs) < T:
        raise ValueError("need f_0..f_{T-1}")
    if len(kappa) < 2 * T:
        raise ValueError("kappa table must cover order 2T")
    gamma = np.zeros((T, T))

    fprime_mean = {}
    fmean = {}
    for t in range(1, T + 1):
        lw = _law(gamma, T)
        if t - 1 >= 1:
            fprime_mean[t - 1] = poly_expectation({t - 1: fs[t - 1].derivative()}, lw)
            fmean[t - 1] = poly_expectation({t - 1: fs[t - 1]}, lw)
        for s in range(1, t + 1):
            lw = _law(gamma, T)
            total = 0.0
            for sp in range(s):
                for tp in range(t):
                    coef = kappa[s - sp + t - tp]
                    if coef == 0.0:
                        continue
                    for r in range(sp + 1, s):
                        coef *= fprime_mean[r]
                    for r in range(tp + 1, t):
                        coef *= fprime_mean[r]
                    if coef == 0.0:
                        continue
                    total += coef * _centered_pair(lw, fs, fmean, sp, tp)
            gamma[s - 1, t - 1] = gamma[t - 1, s - 1] = _finite(total, t)
    return SEKernel((gamma,), (1.0,), "punctured", T)


def _centered_pair(lw, fs, fmean, sp, tp):
    """E[Fbar_{sp} Fbar_{tp}] with Fbar_0 = 1."""
    if sp == 0 and tp == 0:
        return 1.0
    if sp == 0 or tp == 0:
        return 0.0  # E[Fbar_t] = 0 by centering
    raw = _pair_expectation(lw, fs[sp], sp, fs[tp], tp)
    return raw - fmean[sp] * fmean[tp]


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
    gammas = [np.zeros((T, T)) for _ in range(q)]
    for t in range(1, T + 1):
        laws = [_law(g, T) for g in gammas]
        for s in range(1, t + 1):
            vals = []
            for r in range(q):
                total = 0.0
                for c in range(q):
                    if sigma[r, c] == 0.0:
                        continue
                    e = _pair_expectation(laws[c], fs[s - 1], s - 1, fs[t - 1], t - 1)
                    total += sigma[r, c] / q * e
                vals.append(_finite(total, t))
            for r in range(q):
                gammas[r][s - 1, t - 1] = vals[r]
                gammas[r][t - 1, s - 1] = vals[r]
    return SEKernel(tuple(gammas), (1.0 / q,) * q, "block_goe", T)


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
    g0 = np.zeros((T, T))
    g1 = np.zeros((T, T))
    w0, w1 = 1.0 - 1.0 / q, 1.0 / q

    fprime_mean1 = {}
    for t in range(1, T + 1):
        lw0, lw1 = _law(g0, T), _law(g1, T)
        if t - 1 >= 1:
            fprime_mean1[t - 1] = poly_expectation({t - 1: fs[t - 1].derivative()}, lw1)
        for s in range(1, t + 1):
            lw0, lw1 = _law(g0, T), _law(g1, T)
            mix = (w0 * _pair_expectation(lw0, fs[s - 1], s - 1, fs[t - 1], t - 1)
                   + w1 * _pair_expectation(lw1, fs[s - 1], s - 1, fs[t - 1], t - 1))
            extra = 0.0
            for sp in range(s):
                for tp in range(t):
                    if (sp, tp) == (s - 1, t - 1):
                        continue
                    coef = kappa_inner[s - sp + t - tp]
                    if coef == 0.0:
                        continue
                    for r in range(sp + 1, s):
                        coef *= fprime_mean1[r]
                    for r in range(tp + 1, t):
                        coef *= fprime_mean1[r]
                    if coef == 0.0:
                        continue
                    extra += coef * _pair_expectation(lw1, fs[sp], sp, fs[tp], tp)
            g0[s - 1, t - 1] = g0[t - 1, s - 1] = _finite(mix, t)
            g1[s - 1, t - 1] = g1[t - 1, s - 1] = _finite(mix + extra, t)
    return SEKernel((g0, g1), (w0, w1), "community", T)


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


def compare_empirical(kernel, report, threshold=4.0, se_floor=1e-9):
    """z-scores of across-seed empirical moments against kernel predictions.

    `report` aggregates per-seed empirical_state outputs: it must carry
    {"second": {(s,t): (mean, se)}, "power": {(t,k): (mean, se)}} and, for
    mixture kernels, "blocks": {r: {...same...}}.  Returns a verdict table
    (list of row dicts) and an overall pass flag.  A report whose SEs are all
    0 (one trial) gives no z-scores and raises ValueError.
    """
    groups = [report] + list(report.get("blocks", {}).values())
    ses = [se for g in groups for part in ("second", "power")
           for _, se in g.get(part, {}).values()]
    if ses and not any(ses):
        raise ValueError("every across-trial SE in the report is 0, as from a "
                         "1-trial run; compare needs at least 2 trials")
    rows = []

    def z(mean, se, target):
        return abs(mean - target) / max(se, se_floor)

    if len(kernel.gammas) == 1 or "blocks" not in report:
        gamma = _mixture_second(kernel)
        for (s, t), (mean, se) in sorted(report.get("second", {}).items()):
            target = gamma[s - 1, t - 1]
            rows.append({"group": "all", "stat": "x%d*x%d" % (s, t),
                         "s": s, "t": t, "empirical": mean, "predicted": target,
                         "z": z(mean, se, target)})
        for (t, k), (mean, se) in sorted(report.get("power", {}).items()):
            target = _mixture_power(kernel, t, k)
            rows.append({"group": "all", "stat": "x%d^%d" % (t, k),
                         "s": t, "t": k, "empirical": mean, "predicted": target,
                         "z": z(mean, se, target)})
    else:
        for r, sub in sorted(report["blocks"].items()):
            gamma = kernel.gammas[r]
            for (s, t), (mean, se) in sorted(sub.get("second", {}).items()):
                target = gamma[s - 1, t - 1]
                rows.append({"group": "block%d" % r, "stat": "x%d*x%d" % (s, t),
                             "s": s, "t": t, "empirical": mean,
                             "predicted": target, "z": z(mean, se, target)})
            for (t, k), (mean, se) in sorted(sub.get("power", {}).items()):
                target = gaussian_power_moment(gamma[t - 1, t - 1], k)
                rows.append({"group": "block%d" % r, "stat": "x%d^%d" % (t, k),
                             "s": t, "t": k, "empirical": mean,
                             "predicted": target, "z": z(mean, se, target)})
    passed = all(row["z"] <= threshold for row in rows)
    return rows, passed


def _mixture_second(kernel):
    out = np.zeros_like(kernel.gammas[0])
    for g, w in zip(kernel.gammas, kernel.weights):
        out = out + w * g
    return out


def _mixture_power(kernel, t, k):
    return sum(w * gaussian_power_moment(g[t - 1, t - 1], k)
               for g, w in zip(kernel.gammas, kernel.weights))


def aggregate_reports(states):
    """Combine per-seed empirical_state dicts into (mean, across-seed SE) maps."""
    out = {}
    keys0 = states[0]
    m = len(states)

    def agg(getter, keys):
        res = {}
        for key in keys:
            vals = np.array([getter(st)[key] for st in states], dtype=np.float64)
            se = vals.std(ddof=1) / np.sqrt(m) if m > 1 else 0.0
            res[key] = (float(vals.mean()), float(se))
        return res

    out["second"] = agg(lambda st: st["second"], keys0["second"])
    out["power"] = agg(lambda st: st["power"], keys0["power"])
    if "blocks" in keys0:
        out["blocks"] = {}
        for r in keys0["blocks"]:
            out["blocks"][r] = {
                "second": agg(lambda st: st["blocks"][r]["second"],
                              keys0["blocks"][r]["second"]),
                "power": agg(lambda st: st["blocks"][r]["power"],
                             keys0["blocks"][r]["power"]),
            }
    return out
