import math

import numpy as np
import pytest

from trafficamp.amp import empirical_state
from trafficamp.cli import _cell
from trafficamp.ensembles import community_kappa_table
from trafficamp.freeprob import CumulantTable, named_table
from trafficamp.gaussian import named_polynomial, poly_expectation
from trafficamp.state_evolution import (SEDivergenceError, SEKernel, _finite,
                                        _kappa_sum, _law, _pair_expectation,
                                        aggregate_reports,
                                        compare_empirical,
                                        gaussian_power_moment, se_block_goe,
                                        se_community, se_orthogonal,
                                        se_punctured)


def test_goe_identity_kernel():
    k = se_orthogonal(["identity"] * 3, named_table("goe"), 3)
    assert len(k.gammas) == 1
    assert np.allclose(k.gammas[0], np.eye(3), atol=1e-12)


def test_single_step_kernel():
    kt = CumulantTable((0.0, 2.5), "cumulants")
    k = se_orthogonal(["identity"], kt, 1)
    assert abs(k.gammas[0][0, 0] - 2.5) < 1e-12


def test_rom_identity_degenerates():
    # on a symmetric orthogonal model with f = x the second iterate vanishes
    k = se_orthogonal(["identity"] * 2, named_table("rom"), 2)
    assert abs(k.gammas[0][1, 1]) < 1e-12
    k3 = se_orthogonal(["identity"] * 3, named_table("rom", 8), 3)
    assert abs(k3.gammas[0][2, 2] - 1.0) < 1e-12
    assert abs(k3.gammas[0][0, 2] + 1.0) < 1e-12  # x_3 = -x_1 in the limit


def test_punctured_kernel_values():
    k = se_punctured(["identity"] + ["cube_hermite"] * 3, named_table("rom"), 4)
    assert len(k.gammas) == 1
    diag = np.diag(k.gammas[0])
    assert abs(diag[0] - 1.0) < 1e-12
    assert abs(diag[1] - 6.0) < 1e-12
    assert abs(diag[2] - 1296.0) < 1e-9
    k1 = se_punctured(["identity"], named_table("rom"), 1)
    assert abs(k1.gammas[0][0, 0] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        se_punctured(["cube_hermite"], named_table("rom"), 1)


def test_punctured_equals_orthogonal_when_centered():
    # all f_t centered under the running kernel: identical recursions except
    # the deterministic first coordinate, which matches f_0(1) = 1 vs Fbar_0 = 1
    fs = ["identity", "cube_hermite", "cube_hermite"]
    kp = se_punctured(fs, named_table("rom"), 3)
    ko = se_orthogonal(fs, named_table("rom"), 3)
    assert np.allclose(kp.gammas[0], ko.gammas[0], atol=1e-9)


def test_block_q1_equals_orthogonal():
    for fs in (["identity"] * 4,
               ["identity", "square_centered", "cube_hermite", "identity"]):
        kb = se_block_goe(fs, [[1.0]], 1, 4)
        ko = se_orthogonal(fs, named_table("goe"), 4)
        assert np.allclose(kb.gammas[0], ko.gammas[0], atol=1e-12)


def test_block_decoupled():
    k = se_block_goe(["identity"] * 3, np.eye(2), 2, 3)
    assert len(k.gammas) == 2 and k.weights == (0.5, 0.5)
    # each block runs a GOE chain with matrix-scale kappa_2 = 1/q
    assert np.allclose(np.diag(k.gammas[0]), [0.5, 0.25, 0.125], atol=1e-12)
    assert np.allclose(k.gammas[0], k.gammas[1])


def test_block_offdiagonal_sigma():
    k = se_block_goe(["identity"] * 2, [[0.0, 1.0], [1.0, 0.0]], 2, 2)
    # variance of x_1 = sum_c sigma[r,c]/q = 1/2 under either block
    assert abs(k.gammas[0][0, 0] - 0.5) < 1e-12


def test_community_kernels():
    q = 4
    goe_inner = CumulantTable(tuple(1.0 / q if i == 1 else 0.0 for i in range(8)),
                              "cumulants")
    k = se_community(["identity"] * 3, goe_inner, q, 3)
    assert k.weights == (0.75, 0.25)
    assert np.allclose(k.gammas[0], k.gammas[1], atol=1e-12)
    kin = community_kappa_table(q, "rom")
    k2 = se_community(["identity"] * 3, kin, q, 3)
    assert abs(k2.gammas[1][1, 1] - (1.0 - 1.0 / q ** 2)) < 1e-12
    with pytest.raises(ValueError):
        se_community(["identity"], named_table("rom"), 4, 1)  # kappa_2 != 1/q
    with pytest.raises(ValueError, match="kappa table must cover order 2T"):
        se_community(["identity"], CumulantTable((0.25,)), 4, 1)


def test_kernel_properties():
    k = se_punctured(["identity"] + ["cube_hermite"] * 2, named_table("rom"), 3)
    g = k.gammas[0]
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g).min() > -1e-9 * abs(g).max()
    with pytest.raises(ValueError):
        SEKernel((np.array([[1.0, 2.0], [2.0, 1.0]]),), (1.0,), "orthogonal", 2)


def test_kernel_json_roundtrip():
    k = se_block_goe(["identity"] * 2, [[1.0, 0.5], [0.5, 1.0]], 2, 2)
    back = SEKernel.from_json(k.to_json())
    for a, b in zip(k.gammas, back.gammas):
        assert np.allclose(a, b)
    assert back.weights == k.weights


def test_gaussian_power_moment():
    assert gaussian_power_moment(2.0, 4) == 12.0
    assert gaussian_power_moment(3.0, 3) == 0.0
    assert gaussian_power_moment(1.0, 6) == 15.0


def test_compare_calibration():
    rng = np.random.default_rng(0)
    gam = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.5], [0.0, 0.5, 1.5]])
    chol = np.linalg.cholesky(gam)
    states = []
    for _ in range(20):
        x = chol @ rng.standard_normal((3, 50000))
        states.append(empirical_state(x, max_power=4))
    rep = aggregate_reports(states)
    kern = SEKernel((gam,), (1.0,), "orthogonal", 3)
    rows, ok = compare_empirical(kern, rep, threshold=4.0)
    assert ok
    # a shifted kernel must fail
    bad = SEKernel((gam + np.eye(3),), (1.0,), "orthogonal", 3)
    _, ok_bad = compare_empirical(bad, rep, threshold=4.0)
    assert not ok_bad


def test_recursion_well_founded():
    # entries depend only on strictly smaller indices: growing T never
    # changes already-computed entries
    fs = ["identity", "cube_hermite", "square_centered", "identity"]
    k4 = se_orthogonal(fs, named_table("rom"), 4)
    k2 = se_orthogonal(fs[:2], named_table("rom", 4), 2)
    assert np.allclose(k4.gammas[0][:2, :2], k2.gammas[0], atol=1e-12)
    p4 = se_punctured(fs, named_table("rom"), 4)
    p3 = se_punctured(fs[:3], named_table("rom", 6), 3)
    assert np.allclose(p4.gammas[0][:3, :3], p3.gammas[0], atol=1e-12)


def test_gaussian_start_closed_forms():
    # f_0 = x^2 - 1 from X_0 ~ N(0, 1): E f_0^2 = 2 and E f_0 = 0, so the second
    # column reads only f_1 = x; from X_0 = 1, f_0 = 0 and every entry is 0
    fs, sigma = ["square_centered", "identity"], [[1.0, 0.5], [0.5, 1.0]]
    goe = se_orthogonal(fs, named_table("goe"), 2, "gaussian")
    assert goe.gammas[0].tolist() == [[2.0, 0.0], [0.0, 2.0]]
    assert [g.tolist() for g in se_block_goe(fs, sigma, 2, 2, "gaussian").gammas] == (
        [[[1.5, 0.0], [0.0, 1.125]]] * 2)
    assert not se_orthogonal(fs, named_table("goe"), 2).gammas[0].any()
    assert not any(g.any() for g in se_block_goe(fs, sigma, 2, 2).gammas)


def test_aggregate_reports_block():
    rng = np.random.default_rng(1)
    states = []
    for _ in range(4):
        x = rng.standard_normal((2, 100))
        states.append(empirical_state(x, block_labels=[0] * 50 + [1] * 50,
                                      max_power=2))
    rep = aggregate_reports(states)
    assert {group for group, _, _, _ in rep} == {"all", "block0", "block1"}
    mean, se = rep["block0", "second", 1, 1]
    assert se > 0


def test_se_divergence_names_first_nonfinite_step():
    fs = ["identity"] + ["cube_hermite"] * 7
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SEDivergenceError, match="t=8") as exc:
            se_orthogonal(fs, named_table("rom", 16), 8)
        assert exc.value.t == 8
        # one step earlier the kernel is still finite
        assert np.isfinite(se_orthogonal(fs, named_table("rom", 14), 7).gammas[0]).all()


@pytest.mark.parametrize("variant, t", [("punctured", 8), ("community", 7)])
def test_se_divergence_in_other_variants(variant, t):
    fs = ["identity"] + ["cube_hermite"] * 7
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SEDivergenceError) as exc:
            if variant == "punctured":
                se_punctured(fs, named_table("rom", 16), 8)
            else:
                se_community(fs, community_kappa_table(4, "rom", length=16), 4, 8)
    assert exc.value.t == t


# ---------------------------------------------------------------------------
# byte oracles: the four recursions, the comparison and the aggregation as
# they were before every variant became a preset of the one latent-block
# recursion _se_blocks and every report group ran through one loop; the
# public presets are compared against them, failing inputs included (the same
# error type and message, from checks made in the same order)
# ---------------------------------------------------------------------------

def _legacy_se_orthogonal(fs, kappa, T):
    """Kernel for the scalar-kappa iteration on factorizing-cactus matrices.

    Gamma[s,t] sums kappa_{s-s'+t-t'} times interior mean-derivative products
    times E[f_{s'}(X_{s'}) f_{t'}(X_{t'})], all under the partially built
    kernel with X_0 = 1.
    """
    return _legacy_se_scalar([named_polynomial(f) for f in fs], kappa, T, "orthogonal")


def _legacy_se_punctured(fs, kappa, T):
    """Punctured variant: same recursion with centered factors
    Fbar_t = f_t(X_t) - E f_t(X_t) and Fbar_0 = 1."""
    fs = [named_polynomial(f) for f in fs]
    if fs[0].coeffs != (0.0, 1.0):
        raise ValueError("punctured state evolution requires f_0(x) = x")
    return _legacy_se_scalar(fs, kappa, T, "punctured")


def _legacy_se_scalar(fs, kappa, T, variant):
    if len(fs) < T:
        raise ValueError("need f_0..f_{T-1}")
    if len(kappa) < 2 * T:
        raise ValueError("kappa table must cover order 2T")
    gamma = np.zeros((T, T))
    fprime_mean, fmean = {}, {}

    def pair(sp, tp):  # under the law lw of the current step
        if variant == "punctured":
            return _legacy_centered_pair(lw, fs, fmean, sp, tp)
        return _pair_expectation(lw, fs[sp], sp, fs[tp], tp)

    for t in range(1, T + 1):
        lw = _law(gamma, T)
        if t - 1 >= 1:
            fprime_mean[t - 1] = poly_expectation({t - 1: fs[t - 1].derivative()}, lw)
            if variant == "punctured":
                fmean[t - 1] = poly_expectation({t - 1: fs[t - 1]}, lw)
        for s in range(1, t + 1):
            lw = _law(gamma, T)
            total = _kappa_sum(kappa, fprime_mean, s, t, pair)
            gamma[s - 1, t - 1] = gamma[t - 1, s - 1] = _finite(total, t)
    return SEKernel((gamma,), (1.0,), variant, T)


def _legacy_centered_pair(lw, fs, fmean, sp, tp):
    """E[Fbar_{sp} Fbar_{tp}] with Fbar_0 = 1."""
    if sp == 0 and tp == 0:
        return 1.0
    if sp == 0 or tp == 0:
        return 0.0  # E[Fbar_t] = 0 by centering
    raw = _pair_expectation(lw, fs[sp], sp, fs[tp], tp)
    return raw - fmean[sp] * fmean[tp]


def _legacy_se_block_goe(fs, sigma, q, T):
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


def _legacy_se_community(fs, kappa_inner, q, T):
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
            extra = _kappa_sum(kappa_inner, fprime_mean1, s, t, lambda sp, tp:
                               _pair_expectation(lw1, fs[sp], sp, fs[tp], tp),
                               skip=(s - 1, t - 1))
            g0[s - 1, t - 1] = g0[t - 1, s - 1] = _finite(mix, t)
            g1[s - 1, t - 1] = g1[t - 1, s - 1] = _finite(mix + extra, t)
    return SEKernel((g0, g1), (w0, w1), "community", T)


def _legacy_compare_empirical(kernel, report, threshold=4.0, se_floor=1e-9):
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
        gamma = _legacy_mixture_second(kernel)
        for (s, t), (mean, se) in sorted(report.get("second", {}).items()):
            target = gamma[s - 1, t - 1]
            rows.append({"group": "all", "stat": "x%d*x%d" % (s, t),
                         "s": s, "t": t, "empirical": mean, "predicted": target,
                         "z": z(mean, se, target)})
        for (t, k), (mean, se) in sorted(report.get("power", {}).items()):
            target = _legacy_mixture_power(kernel, t, k)
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


def _legacy_mixture_second(kernel):
    out = np.zeros_like(kernel.gammas[0])
    for g, w in zip(kernel.gammas, kernel.weights):
        out = out + w * g
    return out


def _legacy_mixture_power(kernel, t, k):
    return sum(w * gaussian_power_moment(g[t - 1, t - 1], k)
               for g, w in zip(kernel.gammas, kernel.weights))


def _legacy_aggregate_reports(states):
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


def _kernel_bytes(fn, *args):
    """A kernel's variant, T, weights and entry bytes, or the error it raised."""
    try:
        k = fn(*args)
    except (ValueError, SEDivergenceError) as exc:
        return type(exc), str(exc)
    return k.variant, k.T, k.weights, [g.tobytes() for g in k.gammas]


FS_GRID = [
    ["identity"] * 5,
    ["identity", "cube_hermite", "square_centered", "cube_hermite", "identity"],
    ["identity", [0.5, -1.0, 0.25], "relu_poly3", [0.0, 0.0, 0.0, 0.3], "square_centered"],
    ["square_centered", "identity", "relu_poly3", "identity", [1.0, 0.5]],
    [[0.0, 1.0], [0.2, 0.0, -0.5], [0.1, 0.9, 0.0, 0.05], "cube_hermite", "relu_poly3"],
]


def _random_table(seed, length=10):
    # kappa_2 in [0.5, 1.5], higher orders small, signs mixed
    rng = np.random.default_rng(seed)
    vals = [rng.uniform(-0.5, 0.5) / math.factorial(k) for k in range(1, length + 1)]
    vals[1] = rng.uniform(0.5, 1.5)
    return CumulantTable(tuple(vals), "cumulants")


TABLES = [named_table("goe", 10), named_table("rom", 10), _random_table(0),
          _random_table(1), _random_table(2)]


def _short_fs(fs, T):
    """fs, and from T = 2 on fs without f_{T-1}, too short for T steps."""
    return [fs] + ([fs[:T - 1]] if T > 1 else [])


@pytest.mark.parametrize("fs", FS_GRID)
def test_scalar_kernels_match_legacy_bytes(fs):
    for T in range(1, 6):
        # two tables too short for T steps: 2T - 1 orders, and one entry
        short = [named_table("rom", 2 * T - 1), CumulantTable((1.0,), "cumulants")]
        for kappa in TABLES + short:
            for fs_t in _short_fs(fs, T):
                for new, old in ((se_orthogonal, _legacy_se_orthogonal),
                                 (se_punctured, _legacy_se_punctured)):
                    want = _kernel_bytes(old, fs_t, kappa, T)
                    assert _kernel_bytes(new, fs_t, kappa, T) == want, (new.__name__, T)
    # f_0 = x against f_0 != x for the punctured check, before the length checks
    for f0 in ("identity", "cube_hermite", [0.0, 1.0, 0.0], [0.1, 1.0]):
        for kappa in (named_table("rom", 10), CumulantTable((1.0,), "cumulants")):
            args = ([f0] + fs[1:2], kappa, 3)
            assert (_kernel_bytes(se_punctured, *args)
                    == _kernel_bytes(_legacy_se_punctured, *args)), f0


def _block_sigmas():
    rng = np.random.default_rng(3)
    s3 = rng.uniform(0.0, 1.0, (3, 3))
    s3 = s3 + s3.T
    s3[0, 2] = s3[2, 0] = s3[1, 1] = 0.0
    return [(1, [[1.0]]), (1, [[0.7]]), (2, [[1.0, 0.5], [0.5, 1.0]]),
            (2, [[0.0, 1.0], [1.0, 0.0]]), (2, [[1.0, 0.0], [0.0, 0.0]]), (3, s3),
            (3, np.diag([0.5, 0.0, 2.0]))]


# sigmas each preset check rejects: not symmetric, a negative entry, the wrong shape
BAD_SIGMAS = [(2, [[1.0, 0.5], [0.4, 1.0]]), (2, [[1.0, -0.5], [-0.5, 1.0]]),
              (2, [[1.0]]), (3, np.eye(2)), (1, [[-1.0]]), (2, [1.0, 0.5, 0.5, 1.0])]


@pytest.mark.parametrize("fs", FS_GRID)
def test_block_goe_kernels_match_legacy_bytes(fs):
    for q, sigma in _block_sigmas() + BAD_SIGMAS:
        for T in range(1, 6):
            for fs_t in _short_fs(fs, T):
                assert (_kernel_bytes(se_block_goe, fs_t, sigma, q, T)
                        == _kernel_bytes(_legacy_se_block_goe, fs_t, sigma, q, T)), (q, T)


@pytest.mark.parametrize("fs", FS_GRID)
def test_community_kernels_match_legacy_bytes(fs):
    for q in (2, 4):
        for inner in ("rom", "goe"):
            for T in range(1, 6):
                # kappa_2 = 1/q, and 1/q' for another q'; from T = 2 on, each
                # also with 2T - 1 orders, too few
                lengths = [max(8, 2 * T)] + ([2 * T - 1] if T > 1 else [])
                tables = [community_kappa_table(p, inner, length=k)
                          for k in lengths for p in (q, 6 - q)]
                for kin in tables:
                    for fs_t in _short_fs(fs, T):
                        assert (_kernel_bytes(se_community, fs_t, kin, q, T)
                                == _kernel_bytes(_legacy_se_community, fs_t, kin, q, T)), (q, T)


def _flatten(nested):
    """A nested report of the legacy oracles, {"second": {(s, t): v}, "power":
    {(t, k): v}} with optional "blocks": {r: {...same...}}, keyed as the rows of
    moments.csv in its order: (group, kind, a, b) -> v."""
    groups = [("all", nested)] + [("block%d" % r, sub)
                                  for r, sub in nested.get("blocks", {}).items()]
    return {(group, kind, a, b): v for group, sub in groups
            for kind in ("second", "power") for (a, b), v in sub[kind].items()}


def _synthetic_states(T, labels, seed, trials=5, n=400, state=empirical_state):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(trials):
        x = np.cumsum(rng.standard_normal((T, n)), axis=0) * 0.7
        states.append(state(x, block_labels=labels, max_power=4))
    return states


def _row_bytes(rows):
    return [[(key, _cell(v)) for key, v in row.items()] for row in rows]


def test_aggregate_and_compare_match_legacy_bytes():
    from test_amp import _legacy_empirical_state
    T, n = 3, 400
    fs = ["identity", "cube_hermite", "square_centered"]
    kernels = [se_orthogonal(fs, named_table("rom"), T),
               se_block_goe(fs, [[1.0, 0.5], [0.5, 1.0]], 2, T),
               se_community(fs, community_kappa_table(4, "rom"), 4, T),
               SEKernel((np.eye(T),), (1.0,), "orthogonal", T)]
    label_sets = [None, [0] * (n // 2) + [1] * (n // 2),
                  [1] * (n // 4) + [0] * (3 * n // 4)]
    for seed, labels in enumerate(label_sets):
        rep = aggregate_reports(_synthetic_states(T, labels, seed))
        old_rep = _legacy_aggregate_reports(
            _synthetic_states(T, labels, seed, state=_legacy_empirical_state))
        assert repr(rep) == repr(_flatten(old_rep))
        # single kernels, mixtures with and without blocks, single kernels with blocks
        for kernel in kernels:
            for threshold in (4.0, 1e9):
                rows, ok = compare_empirical(kernel, rep, threshold=threshold)
                old_rows, old_ok = _legacy_compare_empirical(kernel, old_rep, threshold)
                assert _row_bytes(rows) == _row_bytes(old_rows) and ok == old_ok
                assert rows


def test_compare_rejects_a_kernel_that_does_not_fit():
    rep = aggregate_reports(_synthetic_states(4, [0, 1, 2, 3] * 100, 0))
    small = se_orthogonal(["identity"] * 3, named_table("goe"), 3)
    with pytest.raises(ValueError, match=r"x1\*x4 of group all .* T = 3"):
        compare_empirical(small, rep)
    mixture = se_block_goe(["identity"] * 4, np.eye(2), 2, 4)
    with pytest.raises(ValueError, match="block 2; the kernel has 2 blocks"):
        compare_empirical(mixture, rep)
