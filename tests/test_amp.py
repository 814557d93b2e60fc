import numpy as np
import pytest

from trafficamp.amp import (AMPConfig, AMPTrace, DivergenceError, TrialBlock,
                            _init_vector, empirical_state, onsager_b,
                            onsager_b_brute, run)
from trafficamp.ensembles import (EnsembleSpec, block_labels, generate,
                                  puncture)
from trafficamp.freeprob import CumulantTable, named_table
from trafficamp.gaussian import Polynomial
from trafficamp.graphpoly import BudgetError

from test_graphpoly import (_assert_each_step_runs_once, _count_engine_work,
                            _legacy_eval_w)


def _rand_sym(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_onsager_window1_is_diagonal():
    rng = np.random.default_rng(0)
    a = _rand_sym(rng, 8)
    assert np.allclose(onsager_b(a, [], 0, 1), np.diag(a))


def test_onsager_window2():
    rng = np.random.default_rng(1)
    n = 8
    a = _rand_sym(rng, n)
    fp = [None, rng.standard_normal(n)]
    b = onsager_b(a, fp, 0, 2)
    expect = np.array([sum(a[i, j] ** 2 * fp[1][j] for j in range(n) if j != i)
                       for i in range(n)])
    assert np.allclose(b, expect, atol=1e-12)


def test_onsager_matches_brute():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        a = _rand_sym(rng, n)
        fprime = [rng.standard_normal(n) for _ in range(5)]
        for w in range(1, 5):
            b1 = onsager_b(a, fprime, 0, w)
            b2 = onsager_b_brute(a, fprime, 0, w)
            assert np.allclose(b1, b2, atol=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        AMPConfig(nonlinearities=("identity",), T=1, mode="scalar_kappa")
    with pytest.raises(ValueError):
        AMPConfig(nonlinearities=("cube_hermite",), T=1, mode="punctured_kappa",
                  kappa=named_table("rom"), init="gaussian")
    with pytest.raises(ValueError):
        AMPConfig(nonlinearities=("identity",), T=1, mode="punctured_kappa",
                  kappa=named_table("rom"), init="ones")
    cfg = AMPConfig(nonlinearities=("identity",), T=1, mode="scalar_kappa",
                    kappa=named_table("goe"))
    assert AMPConfig.from_json(cfg.to_json()).kappa.values == cfg.kappa.values


def test_treelike_first_step():
    a = generate(EnsembleSpec("goe", 64, seed=1)).values
    cfg = AMPConfig(nonlinearities=("identity",), T=1, mode="exact_treelike")
    tr = run(a, cfg)
    # the lag-1 memory term is the diagonal walk
    assert np.allclose(tr.iterates[0], a @ np.ones(64) - np.diag(a))
    assert np.allclose(tr.onsager[(0, 1)], np.diag(a))


def test_oamp_first_step_and_classical_form():
    a = generate(EnsembleSpec("goe", 128, seed=2)).values
    cfg = AMPConfig(nonlinearities=("identity",) * 3, T=3, mode="scalar_kappa",
                    kappa=named_table("goe"))
    tr = run(a, cfg)
    assert np.allclose(tr.iterates[0], a @ np.ones(128))  # kappa_1 = 0
    # GOE kappa: only the lag-2 coefficient survives, equal to <f'_{t-1}>
    assert tr.onsager[(0, 1)] == 0.0
    assert abs(tr.onsager[(1, 3)] - 1.0) < 1e-12
    x2_manual = a @ tr.iterates[0] - np.ones(128)
    assert np.allclose(tr.iterates[1], x2_manual, atol=1e-12)


def test_punctured_centering():
    h = generate(EnsembleSpec("hadamard", 256)).values
    a = puncture(h)
    cfg = AMPConfig(nonlinearities=("identity", "cube_hermite"), T=2,
                    mode="punctured_kappa", kappa=named_table("rom"),
                    init="gaussian", seed=5)
    tr = run(a, cfg)
    assert abs(np.mean(tr.x0)) < 4 / np.sqrt(256)
    assert np.isfinite(tr.iterates).all()


def test_block_goe_runner():
    n = 256
    b = generate(EnsembleSpec("block_goe", n, seed=3, q=2,
                              sigma=(1, 0.5, 0.5, 1))).values
    cfg = AMPConfig(nonlinearities=("identity",) * 3, T=3, mode="block_goe")
    tr = run(b, cfg)
    assert np.allclose(tr.iterates[0], b @ np.ones(n))
    manual = b @ tr.iterates[0] - ((b * b) @ np.ones(n)) * np.ones(n)
    assert np.allclose(tr.iterates[1], manual, atol=1e-12)
    st = empirical_state(tr, block_labels=block_labels(n, 2))
    assert set(st["blocks"]) == {0, 1}


def test_empirical_state():
    tr_iter = np.vstack([np.ones(10), 2 * np.ones(10)])
    from trafficamp.amp import AMPTrace
    tr = AMPTrace(np.ones(10), tr_iter, {}, "synthetic")
    st = empirical_state(tr)
    assert st["second"][(1, 2)] == 2.0
    assert st["power"][(2, 3)] == 8.0
    rng = np.random.default_rng(4)
    x = rng.standard_normal(100000)
    tr = AMPTrace(np.ones(100000), x[None, :], {}, "synthetic")
    st = empirical_state(tr)
    se = np.sqrt(96.0 / 100000)  # Var X^4 = 96 at unit variance
    assert abs(st["power"][(1, 4)] - 3.0) < 4 * se


def test_divergence_reported():
    a = np.full((4, 4), 1e200)
    cfg = AMPConfig(nonlinearities=("cube_hermite", "cube_hermite"), T=2,
                    mode="scalar_kappa", kappa=named_table("goe"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            run(a, cfg)
    assert err.value.t >= 1


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    n = 64
    a = generate(EnsembleSpec("goe", n, seed=6)).values
    cfg = AMPConfig(nonlinearities=("identity", "square_centered", "identity"),
                    T=3, mode="scalar_kappa", kappa=named_table("goe"))
    tr = run(a, cfg)
    perm = rng.permutation(n)
    ap = a[np.ix_(perm, perm)]
    trp = run(ap, cfg)
    for t in range(3):
        assert np.allclose(trp.iterates[t], tr.iterates[t][perm], atol=1e-9)


def test_mode_dispatch():
    a = generate(EnsembleSpec("goe", 32, seed=7)).values
    cfg = AMPConfig(nonlinearities=("identity",), T=1, mode="scalar_kappa",
                    kappa=named_table("goe"))
    tr = run(a, cfg)
    assert tr.mode == "scalar_kappa"


def test_gaussianity_kurtosis_on_goe():
    # odd nonlinearity keeps iterates asymptotically Gaussian: excess kurtosis
    # of each iterate stays within 4 across-seed SE of 0
    n, seeds = 4096, 6
    cfg = AMPConfig(nonlinearities=("identity", "cube_hermite", "cube_hermite"),
                    T=3, mode="scalar_kappa", kappa=named_table("goe"))
    kurt = []
    for s in range(seeds):
        a = generate(EnsembleSpec("goe", n, seed=40 + s)).values
        tr = run(a, cfg)
        row = []
        for t in range(1, 4):
            x = tr.x(t)
            row.append(float(np.mean(x ** 4) / np.mean(x ** 2) ** 2 - 3.0))
        kurt.append(row)
    kurt = np.asarray(kurt)
    z = np.abs(kurt.mean(axis=0)) / (kurt.std(axis=0, ddof=1) / np.sqrt(seeds))
    assert z.max() <= 4.0, kurt.mean(axis=0)


def test_exact_mode_budget_guard():
    a = generate(EnsembleSpec("goe", 32, seed=8)).values
    with pytest.raises(ValueError):
        run(a, AMPConfig(nonlinearities=("identity",) * 6, T=6, mode="exact_treelike"))
    with pytest.raises(ValueError):
        onsager_b(a, [None] * 8, 0, 7)


# ---------------------------------------------------------------------------
# byte oracle: onsager_b and run_treelike as they were before quotient plans
# and contraction steps were shared, copied literally on the legacy engine
# ---------------------------------------------------------------------------

def _legacy_onsager_b(a, fprime_vectors, s, t, budget=None):
    from trafficamp.amp import EXACT_WINDOW_CAP
    from trafficamp.diagrams import cycle_diagram, quotient, set_partitions
    from trafficamp.graphpoly import partition_mobius
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    w = t - s
    if not 1 <= w <= EXACT_WINDOW_CAP:
        raise ValueError("window %d outside 1..%d" % (w, EXACT_WINDOW_CAP))
    if w == 1:
        return np.diag(a).copy()
    cyc = cycle_diagram(w, rooted=True)
    weights = {p: np.asarray(fprime_vectors[s + p], dtype=np.float64)
               for p in range(1, w)}
    total = np.zeros(n)
    for part in set_partitions(range(w)):
        q = quotient(cyc, part)
        blocks = sorted([sorted(b) for b in part], key=lambda b: b[0])
        vw = {}
        for bi, block in enumerate(blocks):
            acc = None
            for p in block:
                if p in weights:
                    acc = weights[p] if acc is None else acc * weights[p]
            if acc is not None:
                vw[bi] = acc
        val = _legacy_eval_w(q, a, vertex_weights=vw, budget=budget)
        total += partition_mobius(part) * val
    return total


def _legacy_run_treelike(a, cfg, budget=None):
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    fs = list(cfg.nonlinearities)
    fs[0] = Polynomial((1.0,))  # f_0 = all-ones by convention
    fvec = [np.ones(n)]
    fprime = [np.zeros(n)]
    iters = np.empty((cfg.T, n))
    onsager = {}
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        for s in range(t):
            b = _legacy_onsager_b(a, fprime, s, t, budget=budget)
            onsager[(s, t)] = b
            xt = xt - b * fvec[s]
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fprime.append(fs[t].derivative()(xt))
    return iters, onsager


def test_onsager_bytes_match_legacy():
    rng = np.random.default_rng(20)
    for n in (9, 40, 9):  # back to n = 9: plans are keyed by size
        a = _rand_sym(rng, n)
        fprime = [rng.standard_normal(n) for _ in range(7)]
        for s in (0, 2):
            for w in range(1, 6):
                old = _legacy_onsager_b(a, fprime, s, s + w)
                new = onsager_b(a, fprime, s, s + w)
                assert new.tobytes() == old.tobytes(), (n, s, w)


def test_onsager_budget_error_unchanged(monkeypatch):
    # onsager_b runs under the engine's default budget; lowered, it must fail
    # where the legacy engine fails, with its message
    from trafficamp import graphpoly
    rng = np.random.default_rng(21)
    a = _rand_sym(rng, 16)
    fprime = [rng.standard_normal(16) for _ in range(6)]
    for budget in (10.0, 16.0 ** 2, 16.0 ** 3, 3 * 16.0 ** 3):
        monkeypatch.setattr(graphpoly, "_default_budget", lambda n, _b=budget: _b)
        for w in range(2, 6):
            try:
                old = _legacy_onsager_b(a, fprime, 0, w, budget=budget).tobytes()
            except BudgetError as exc:
                old = str(exc)
            try:
                new = onsager_b(a, fprime, 0, w).tobytes()
            except BudgetError as exc:
                new = str(exc)
            assert new == old, (budget, w)


def test_treelike_bytes_match_legacy():
    n = 64
    a = generate(EnsembleSpec("community", n, seed=3, q=4, inner="rom")).values
    cfg = AMPConfig(nonlinearities=("identity", "cube_hermite", "square_centered",
                                    "identity", "cube_hermite"),
                    T=5, mode="exact_treelike")
    iters, onsager = _legacy_run_treelike(a, cfg)
    for _ in range(2):  # a second trial reuses the step counts and plans
        tr = run(a, cfg)
        assert tr.iterates.tobytes() == iters.tobytes()
        assert sorted(tr.onsager) == sorted(onsager)
        for key, b in onsager.items():
            assert tr.onsager[key].tobytes() == b.tobytes(), key


def test_treelike_rejects_ignored_init():
    with pytest.raises(ValueError, match="init"):
        AMPConfig(nonlinearities=("identity",), T=1, mode="exact_treelike",
                  init="gaussian")
    cfg = AMPConfig(nonlinearities=("identity",), T=1, mode="exact_treelike")
    assert AMPConfig.from_json(cfg.to_json()).init == "ones"


@pytest.mark.parametrize("mode, kappa", [("scalar_kappa", "goe"),
                                         ("punctured_kappa", "rom"),
                                         ("block_goe", None), ("exact_treelike", None)])
def test_config_rejects_unknown_init(mode, kappa):
    with pytest.raises(ValueError, match="unknown init 'zeros'"):
        AMPConfig(nonlinearities=("identity",), T=1, mode=mode,
                  kappa=named_table(kappa) if kappa else None, init="zeros")


def test_exact_mode_caps():
    AMPConfig(nonlinearities=("identity",) * 5, T=5, mode="exact_treelike")
    with pytest.raises(ValueError, match="T <= 5"):
        AMPConfig(nonlinearities=("identity",) * 6, T=6, mode="exact_treelike")
    cfg = AMPConfig(nonlinearities=("identity",), T=1, mode="exact_treelike")
    assert run(np.eye(256), cfg).iterates.shape == (1, 256)
    with pytest.raises(ValueError, match="n <= 256"):
        run(np.eye(257), cfg)


def _exact_configs(k, T=5):
    fs = ("identity", "cube_hermite", "square_centered", "identity", "cube_hermite")
    return [AMPConfig(nonlinearities=fs[:T], T=T, mode="exact_treelike", seed=j)
            for j in range(k)]


def test_exact_lockstep_block_matches_legacy():
    a = generate(EnsembleSpec("punctured", 64, inner="hadamard")).values
    iters, onsager = _legacy_run_treelike(a, _exact_configs(1)[0])
    for k in (1, 3):
        for new in run(a, _exact_configs(k), list(range(k))):
            assert new.x0.tobytes() == np.ones(64).tobytes()
            assert new.iterates.tobytes() == iters.tobytes()
            assert list(new.onsager) == list(onsager)
            for key, b in onsager.items():
                assert new.onsager[key].tobytes() == b.tobytes(), key


def test_exact_block_memory_is_one_trial():
    # every row of an exact-mode block is the same trial, so a block of 32 keeps
    # one step memo and one f' history, not 32
    import tracemalloc

    a = generate(EnsembleSpec("punctured", 128, inner="hadamard")).values
    run(a, _exact_configs(1), [0])  # quotient plans are built once per process
    peaks = []
    for k in (1, 32):
        tracemalloc.start()
        try:
            run(a, _exact_configs(k), list(range(k)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def _overflowing_punctured_hadamard(case):
    a = generate(EnsembleSpec("punctured", 64, inner="hadamard")).values
    if case == "scaled":  # cube_hermite overflows at t = 2
        return 1e80 * a
    a[5, [9, 11]] = a[[9, 11], 5] = 1e308  # x_1[5] overflows
    return a


@pytest.mark.parametrize("case, where", [("scaled", (2, 0)), ("entries", (1, 5))])
def test_exact_lockstep_divergence_matches_legacy(case, where):
    a = _overflowing_punctured_hadamard(case)
    cfgs = _exact_configs(3, T=4)
    with np.errstate(over="ignore", invalid="ignore"):
        iters = _legacy_run_treelike(a, cfgs[0])[0]
        bad = np.argwhere(~np.isfinite(iters))[0]  # the legacy first non-finite (t, i)
        assert (bad[0] + 1, bad[1]) == where
        for res in run(a, cfgs, [0, 1, 2]) + [run(a, cfgs[:1], [0])[0]]:
            assert isinstance(res, DivergenceError)
            assert (res.t, res.i) == where
        with pytest.raises(DivergenceError) as err:
            run(a, cfgs[0])
    assert (err.value.t, err.value.i) == where


def test_treelike_concurrent_trials_match_legacy():
    # worker threads build and share plans while each trial keeps its own memo
    import concurrent.futures
    import sys

    n = 24  # a size the other tests do not use, so plans are built under contention
    mats = [generate(EnsembleSpec("goe", n, seed=30 + k)).values for k in range(6)]
    cfg = AMPConfig(nonlinearities=("identity", "cube_hermite") * 3, T=5,
                    mode="exact_treelike")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, m, cfg) for m in mats]
            traces = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for m, tr in zip(mats, traces):
        assert tr.iterates.tobytes() == _legacy_run_treelike(m, cfg)[0].tobytes()


def test_treelike_program_runs_every_step_once_per_trial(monkeypatch):
    a = generate(EnsembleSpec("goe", 32, seed=9)).values
    cfg = AMPConfig(nonlinearities=("identity",) * 5, T=5, mode="exact_treelike")
    seen = _count_engine_work(monkeypatch)
    run(a, cfg)
    # one symmetry check and one program run per trial; its 10 windows of width
    # >= 2 run in order and make 107 kernel calls, each result freed after its
    # last use
    _assert_each_step_runs_once(seen, 1, [107])
    seen.update(checks=0, kernels=0, runs=[])
    run(a, TrialBlock([cfg] * 3), [0, 1, 2])  # a block's rows are one trial
    _assert_each_step_runs_once(seen, 1, [107])


# ---------------------------------------------------------------------------
# byte oracle: the scalar-Onsager and block-GOE runners as they were before
# trials ran in lockstep, one trial per call, copied literally
# ---------------------------------------------------------------------------

def _check_finite(x, t):
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DivergenceError(t, int(bad[0]))


def _legacy_run_oamp(a, cfg, stream=0):
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


def _legacy_run_punctured(a, cfg, stream=0):
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


def _legacy_run_block_goe(a, cfg, stream=0):
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


LEGACY_RUNNERS = {"scalar_kappa": _legacy_run_oamp,
                  "punctured_kappa": _legacy_run_punctured,
                  "block_goe": _legacy_run_block_goe}


def _assert_same_trace(new, old):
    assert new.x0.tobytes() == old.x0.tobytes()
    assert new.iterates.tobytes() == old.iterates.tobytes()
    assert list(new.onsager) == list(old.onsager)
    for key, coef in old.onsager.items():
        assert type(new.onsager[key]) is type(coef), key
        assert np.asarray(new.onsager[key]).tobytes() == np.asarray(coef).tobytes(), key


def _block_configs(mode, init, k):
    fs = ("identity", "cube_hermite", "square_centered", "relu_poly3")
    kappa = None if mode == "block_goe" else named_table("rom")
    return [AMPConfig(nonlinearities=fs, T=4, mode=mode, kappa=kappa, init=init,
                      seed=100 + 7 * j) for j in range(k)]


@pytest.mark.parametrize("n", [1, 2, 17, 64, 65, 256, 1000])
def test_lockstep_bytes_match_legacy_runners(n):
    rng = np.random.default_rng(n)
    a = _rand_sym(rng, n) / np.sqrt(n)
    for mode, init in (("scalar_kappa", "ones"), ("scalar_kappa", "gaussian"),
                       ("punctured_kappa", "gaussian"), ("block_goe", "ones"),
                       ("block_goe", "gaussian")):
        for k in (1, 3, 10):
            cfgs = _block_configs(mode, init, k)
            streams = [5 + j for j in range(k)]
            traces = run(a, cfgs, streams)
            for cfg, stream, new in zip(cfgs, streams, traces):
                _assert_same_trace(new, LEGACY_RUNNERS[mode](a, cfg, stream=stream))
        # the single-trial runners are blocks of one
        cfg = cfgs[0]
        _assert_same_trace(run(a, cfg, stream=5), LEGACY_RUNNERS[mode](a, cfg, stream=5))


def test_lockstep_divergence_matches_legacy_runners():
    # x^3 - 3x keeps |x| <= 2 bounded and sends larger starts to overflow,
    # so trials of one block diverge at different steps or not at all
    n, T = 6, 12
    a = np.eye(n) + 0.01 * _rand_sym(np.random.default_rng(3), n)
    kappa = CumulantTable((0.0, 0.001) + (0.0,) * (T - 2))
    cfgs = [AMPConfig(nonlinearities=("identity",) + ("cube_hermite",) * (T - 1), T=T,
                      mode="scalar_kappa", kappa=kappa, init="gaussian", seed=40 + j)
            for j in range(12)]
    with np.errstate(over="ignore", invalid="ignore"):
        results = run(a, cfgs, list(range(12)))
        outcomes = set()
        for j, (cfg, res) in enumerate(zip(cfgs, results)):
            try:
                old = _legacy_run_oamp(a, cfg, stream=j)
            except DivergenceError as exc:
                assert isinstance(res, DivergenceError)
                assert (res.t, res.i) == (exc.t, exc.i)
                outcomes.add(exc.t)
            else:
                _assert_same_trace(res, old)
                outcomes.add(None)
    assert None in outcomes and len(outcomes) >= 3  # survivors and two divergence steps


def test_trial_block_rejects_configs_that_differ_beyond_seed():
    cfgs = _block_configs("scalar_kappa", "gaussian", 2)
    with pytest.raises(ValueError, match="seed"):
        TrialBlock([cfgs[0], _block_configs("scalar_kappa", "ones", 1)[0]])
    with pytest.raises(ValueError, match="seed"):
        TrialBlock([])
    with pytest.raises(ValueError, match="streams"):
        run(np.eye(4), cfgs, [0])


# ---------------------------------------------------------------------------
# byte oracle: empirical_state as it was before its means were stacked,
# copied literally
# ---------------------------------------------------------------------------

def _legacy_empirical_state(trace, block_labels=None, max_power=6):
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


def _exact_items(report):
    """The report's keys, in order, and the bytes of each value."""
    if isinstance(report, dict):
        return [(k, _exact_items(v)) for k, v in report.items()]
    assert type(report) is float
    return np.float64(report).tobytes()


def test_empirical_state_bytes_match_legacy():
    rng = np.random.default_rng(44)
    for case in range(300):
        n, T = int(rng.integers(1, 600)), int(rng.integers(1, 7))
        it = rng.standard_normal((T, n)) * 10.0 ** rng.uniform(-3, 3)
        it[rng.random((T, n)) < 0.1 * (case % 2)] = 0.0
        if case % 5 == 0:
            it = np.asfortranarray(it)
        tr = AMPTrace(np.ones(n), it, {}, "x")
        labels = rng.integers(0, 1 + case % 4, n) if case % 3 else None
        for power in (6, 3):
            assert (_exact_items(empirical_state(tr, labels, max_power=power))
                    == _exact_items(_legacy_empirical_state(tr, labels, max_power=power))), case
    a = generate(EnsembleSpec("community", 64, seed=5, q=4, inner="rom")).values
    tr = run(a, AMPConfig(nonlinearities=("identity", "cube_hermite") * 3, T=5,
                          mode="exact_treelike"))
    labels = block_labels(64, 4)
    assert (_exact_items(empirical_state(tr, labels))
            == _exact_items(_legacy_empirical_state(tr, labels)))
