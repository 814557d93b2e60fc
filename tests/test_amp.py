import dataclasses

import numpy as np
import pytest

from trafficamp import graphpoly as gp
from trafficamp.amp import (AMPConfig, DivergenceError, empirical_state,
                            onsager_b, onsager_b_brute, run)
from trafficamp.ensembles import (EnsembleSpec, block_labels, generate,
                                  puncture, stream_rng)
from trafficamp.freeprob import CumulantTable, named_table
from trafficamp.gaussian import Polynomial
from trafficamp.graphpoly import BudgetError

from test_graphpoly import (_assert_each_step_runs_once, _count_engine_work,
                            _legacy_eval_w, _steps)


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
    # every window up to EXACT_WINDOW_CAP = 7; the brute sum over n (n-1)!/(n-w)!
    # walks takes about a second at n = 9, w = 7, so the long windows get fewer draws
    rng = np.random.default_rng(2)
    for k in range(25):
        n = int(rng.integers(4, 10)) if k >= 3 else 7 + k
        a = _rand_sym(rng, n)
        fprime = [rng.standard_normal(n) for _ in range(7)]
        for w in range(1, 8 if k < 3 else 6):
            b1 = onsager_b(a, fprime, 0, w)
            b2 = onsager_b_brute(a, fprime, 0, w)
            assert np.allclose(b1, b2, atol=1e-10), (n, w)


def test_config_validation():
    with pytest.raises(ValueError):
        AMPConfig(nonlinearities=("identity",), T=1, mode="scalar_kappa")
    with pytest.raises(ValueError):
        AMPConfig(nonlinearities=("cube_hermite",), T=1, mode="punctured_kappa",
                  kappa=named_table("rom"), init="gaussian")
    with pytest.raises(ValueError):
        AMPConfig(nonlinearities=("identity",), T=1, mode="punctured_kappa",
                  kappa=named_table("rom"), init="ones")
    for mode in ("exact_treelike", "block_goe"):
        with pytest.raises(ValueError, match="%s mode does not read kappa" % mode):
            AMPConfig(nonlinearities=("identity",), T=1, mode=mode, kappa=named_table("rom"))


def test_treelike_first_step():
    a = generate(EnsembleSpec("goe", 64, seed=1)).values
    # the lag-1 memory term is the diagonal walk: x_1 = f_0(1) (A 1 - diag(A)),
    # with f_0(1) = 1 - 3 = -2 for cube_hermite
    for f0, f0_at_1 in (("identity", 1.0), ("cube_hermite", -2.0)):
        cfg = AMPConfig(nonlinearities=(f0,), T=1, mode="exact_treelike")
        assert np.allclose(run(a, cfg)[0], f0_at_1 * (a @ np.ones(64) - np.diag(a))), f0


def test_oamp_first_step_and_classical_form():
    a = generate(EnsembleSpec("goe", 128, seed=2)).values
    cfg = AMPConfig(nonlinearities=("identity",) * 3, T=3, mode="scalar_kappa",
                    kappa=named_table("goe"))
    x = run(a, cfg)
    assert np.allclose(x[0], a @ np.ones(128))  # kappa_1 = 0
    # GOE kappa: only the lag-2 coefficient survives, equal to <f'_{t-1}> = 1
    assert np.allclose(x[1], a @ x[0] - np.ones(128), atol=1e-12)
    assert np.allclose(x[2], a @ x[1] - x[0], atol=1e-12)


def test_punctured_centering():
    h = generate(EnsembleSpec("hadamard", 256)).values
    a = puncture(h)
    cfg = AMPConfig(nonlinearities=("identity", "cube_hermite"), T=2,
                    mode="punctured_kappa", kappa=named_table("rom"),
                    init="gaussian", seed=5)
    x = run(a, cfg)
    # 1^T A = 0 and every memory term is centred, so every iterate has mean 0
    assert np.abs(x.mean(axis=1)).max() < 1e-9
    assert np.isfinite(x).all()


def test_block_goe_runner():
    n = 256
    b = generate(EnsembleSpec("block_goe", n, seed=3, q=2,
                              sigma=(1, 0.5, 0.5, 1))).values
    cfg = AMPConfig(nonlinearities=("identity",) * 3, T=3, mode="block_goe")
    x = run(b, cfg)
    assert np.allclose(x[0], b @ np.ones(n))
    manual = b @ x[0] - ((b * b) @ np.ones(n)) * np.ones(n)
    assert np.allclose(x[1], manual, atol=1e-12)
    st = empirical_state(x, block_labels=block_labels(n, 2))
    assert {group for group, _, _, _ in st} == {"all", "block0", "block1"}


def test_empirical_state():
    st = empirical_state(np.vstack([np.ones(10), 2 * np.ones(10)]))
    assert st["all", "second", 1, 2] == 2.0
    assert st["all", "power", 2, 3] == 8.0
    rng = np.random.default_rng(4)
    x = rng.standard_normal(100000)
    st = empirical_state(x[None, :])
    se = np.sqrt(96.0 / 100000)  # Var X^4 = 96 at unit variance
    assert abs(st["all", "power", 1, 4] - 3.0) < 4 * se


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
    x = run(a, cfg)
    perm = rng.permutation(n)
    ap = a[np.ix_(perm, perm)]
    xp = run(ap, cfg)
    for t in range(3):
        assert np.allclose(xp[t], x[t][perm], atol=1e-9)


def test_mode_dispatch():
    # each mode subtracts its own memory term from A f_0(1) at t = 1
    a = generate(EnsembleSpec("goe", 32, seed=7)).values
    a1 = a @ np.ones(32)
    want = {"scalar_kappa": a1 - 0.5, "exact_treelike": a1 - np.diag(a), "block_goe": a1}
    for mode, x1 in want.items():
        cfg = AMPConfig(nonlinearities=("identity",), T=1, mode=mode,
                        kappa=CumulantTable((0.5,)) if mode == "scalar_kappa" else None)
        assert np.allclose(run(a, cfg)[0], x1, atol=1e-12), mode


def test_gaussianity_kurtosis_on_goe():
    # odd nonlinearity keeps iterates asymptotically Gaussian: excess kurtosis
    # of each iterate stays within 4 across-seed SE of 0
    n, seeds = 4096, 6
    cfg = AMPConfig(nonlinearities=("identity", "cube_hermite", "cube_hermite"),
                    T=3, mode="scalar_kappa", kappa=named_table("goe"))
    kurt = []
    for s in range(seeds):
        a = generate(EnsembleSpec("goe", n, seed=40 + s)).values
        row = []
        for x in run(a, cfg):
            row.append(float(np.mean(x ** 4) / np.mean(x ** 2) ** 2 - 3.0))
        kurt.append(row)
    kurt = np.asarray(kurt)
    z = np.abs(kurt.mean(axis=0)) / (kurt.std(axis=0, ddof=1) / np.sqrt(seeds))
    assert z.max() <= 4.0, kurt.mean(axis=0)


def test_exact_mode_matches_block_goe_mode_paired():
    # the exact memory term against the block one, (A*A) f', on the same block GOE
    # matrices: each statistic's mean paired difference lies within 4 per-seed
    # standard deviations of 0 (the typicality gate of acceptance criterion 10)
    q, n, T = 2, 1024, 3
    fs = ["identity", "square_centered", "square_centered"]
    cfgs = [AMPConfig(nonlinearities=fs, T=T, mode=mode)
            for mode in ("exact_treelike", "block_goe")]
    labels = block_labels(n, q)
    diffs = []
    for s in range(20):
        m = generate(EnsembleSpec("block_goe", n, seed=300 + s, q=q,
                                  sigma=(1.0, 0.5, 0.5, 1.0))).values
        exact, block = (empirical_state(run(m, cfg), block_labels=labels, max_power=4)
                        for cfg in cfgs)
        diffs.append([exact[key] - block[key] for key in exact])
    diffs = np.asarray(diffs)
    z = np.abs(diffs.mean(axis=0)) / np.maximum(diffs.std(axis=0, ddof=1), 1e-9)
    assert diffs.shape[1] == 54  # 18 statistics in each of all, block0 and block1
    assert z.max() <= 4.0, z.max()


def test_exact_mode_budget_guard(monkeypatch):
    from trafficamp import amp
    a = generate(EnsembleSpec("goe", 32, seed=8)).values
    with pytest.raises(ValueError, match="T <= 7"):
        run(a, AMPConfig(nonlinearities=("identity",) * 8, T=8, mode="exact_treelike"))
    with pytest.raises(ValueError, match="window 8 outside 1..7"):
        onsager_b(a, [None] * 9, 0, 8)
    # a library run checks its program's peak and matrix against the memory bound
    cfg = AMPConfig(nonlinearities=("identity",) * 5, T=5, mode="exact_treelike")
    need = amp._exact_program(32, cfg)[0].peak + 8 * 32 ** 2
    monkeypatch.setattr(amp, "_MEMORY_BOUND", need)
    assert run(a, cfg).shape == (5, 32)
    monkeypatch.setattr(amp, "_MEMORY_BOUND", need // 2)
    with pytest.raises(BudgetError) as err:
        run(a, cfg)
    assert "needs %.3g bytes, over the bound of %.3g" % (need, need // 2) in str(err.value)


# ---------------------------------------------------------------------------
# byte oracle: onsager_b and run_treelike as they were before quotient plans
# and contraction steps were shared, copied literally on the legacy engine
# ---------------------------------------------------------------------------

def _legacy_onsager_b(a, fprime_vectors, s, t, budget=None):
    from trafficamp.diagrams import cycle_diagram, partition_mobius, quotient, set_partitions
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    w = t - s
    if not 1 <= w <= 7:  # windows 6 and 7 run on this code as written
        raise ValueError("window %d outside 1..7" % w)
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
    # it replaces f_0 by 1, as the runner then did: compare it only on configs
    # whose f_0(1) is 1
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    fs = list(cfg.nonlinearities)
    fs[0] = Polynomial((1.0,))  # f_0 = all-ones by convention
    fvec = [np.ones(n)]
    fprime = [np.zeros(n)]
    iters = np.empty((cfg.T, n))
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        for s in range(t):
            b = _legacy_onsager_b(a, fprime, s, t, budget=budget)
            xt = xt - b * fvec[s]
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fprime.append(fs[t].derivative()(xt))
    return iters


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
    iters = _legacy_run_treelike(a, cfg)
    for _ in range(2):  # a second trial reuses the step counts and plans
        assert run(a, cfg).tobytes() == iters.tobytes()


def test_treelike_rejects_ignored_init():
    with pytest.raises(ValueError, match="init"):
        AMPConfig(nonlinearities=("identity",), T=1, mode="exact_treelike",
                  init="gaussian")
    cfg = AMPConfig(nonlinearities=("identity",), T=1, mode="exact_treelike")
    assert cfg.init == "ones"


@pytest.mark.parametrize("mode, kappa", [("scalar_kappa", "goe"),
                                         ("punctured_kappa", "rom"),
                                         ("block_goe", None), ("exact_treelike", None)])
def test_config_rejects_unknown_init(mode, kappa):
    with pytest.raises(ValueError, match="unknown init 'zeros'"):
        AMPConfig(nonlinearities=("identity",), T=1, mode=mode,
                  kappa=named_table(kappa) if kappa else None, init="zeros")


def test_exact_mode_caps():
    # T is capped by the longest window, EXACT_WINDOW_CAP = 7; n only by memory
    AMPConfig(nonlinearities=("identity",) * 7, T=7, mode="exact_treelike")
    with pytest.raises(ValueError, match="T <= 7"):
        AMPConfig(nonlinearities=("identity",) * 8, T=8, mode="exact_treelike")
    cfg = AMPConfig(nonlinearities=("identity",), T=1, mode="exact_treelike")
    assert run(np.eye(257), cfg).shape == (1, 257)


_MIXED = ("identity", "cube_hermite", "square_centered", "identity", "cube_hermite",
          "identity", "identity")


@pytest.mark.parametrize("fs", [_MIXED[:5], _MIXED, ("identity",) * 7],
                         ids=["5", "7", "7-identity"])
def test_exact_trial_peak_is_the_program_estimate(fs):
    # the traced peak of one trial lies between the program's slot-liveness
    # estimate and that plus two n x n float64 arrays (kernel temporaries)
    import tracemalloc

    from trafficamp import amp
    n = 128
    a = generate(EnsembleSpec("community", n, seed=3, q=4, inner="rom")).values
    cfg = AMPConfig(nonlinearities=fs, T=len(fs), mode="exact_treelike")
    run(a, cfg)  # the program is compiled once per process
    tracemalloc.start()
    try:
        run(a, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = amp._exact_program(n, cfg)[0].peak
    assert estimate <= peak <= estimate + 2 * 8 * n * n, (peak / (8 * n * n),
                                                           estimate / (8 * n * n))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 256])
def test_every_exact_window_meets_the_default_budget(n):
    from trafficamp import amp, graphpoly
    cfg = AMPConfig(nonlinearities=("cube_hermite",) * amp.EXACT_WINDOW_CAP,
                    T=amp.EXACT_WINDOW_CAP, mode="exact_treelike")
    prog = amp._exact_program(n, cfg)[0]
    worst = max(costs[-1] for window in prog.costs for costs in window)
    assert worst <= graphpoly._default_budget(n), worst / n ** 3


def _exact_config(T=5):
    fs = ("identity", "cube_hermite", "square_centered", "identity", "cube_hermite")
    return AMPConfig(nonlinearities=fs[:T], T=T, mode="exact_treelike")


def _keys(k):
    return [(j, j) for j in range(k)]


def test_exact_lockstep_block_matches_legacy():
    a = generate(EnsembleSpec("punctured", 64, inner="hadamard")).values
    iters = _legacy_run_treelike(a, _exact_config())
    for k in (1, 3):
        for new in run(a, _exact_config(), _keys(k)):
            assert new.tobytes() == iters.tobytes()


def test_exact_block_memory_is_one_trial():
    # every row of an exact-mode block is the same trial, so a block of 32 keeps
    # one step memo and one f' history, not 32
    import tracemalloc

    a = generate(EnsembleSpec("punctured", 128, inner="hadamard")).values
    run(a, _exact_config(), _keys(1))  # quotient plans are built once per process
    peaks = []
    for k in (1, 32):
        tracemalloc.start()
        try:
            run(a, _exact_config(), _keys(k))
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
    cfg = _exact_config(T=4)
    with np.errstate(over="ignore", invalid="ignore"):
        iters = _legacy_run_treelike(a, cfg)
        bad = np.argwhere(~np.isfinite(iters))[0]  # the legacy first non-finite (t, i)
        assert (bad[0] + 1, bad[1]) == where
        for res in run(a, cfg, _keys(3)) + run(a, cfg, _keys(1)):
            assert isinstance(res, DivergenceError)
            assert (res.t, res.i) == where
        with pytest.raises(DivergenceError) as err:
            run(a, cfg)
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
    for m, x in zip(mats, traces):
        assert x.tobytes() == _legacy_run_treelike(m, cfg).tobytes()


def _assert_trial_runs_every_step_once(monkeypatch, cfg, steps):
    a = generate(EnsembleSpec("goe", 32, seed=9)).values
    seen = _count_engine_work(monkeypatch)
    run(a, cfg)
    # one symmetry check and one program run per trial; its 10 windows of width
    # >= 2 run in order and make `steps` kernel calls, each result freed after
    # its last use
    _assert_each_step_runs_once(seen, 1, [steps])
    seen.update(checks=0, kernels=0, runs=[])
    run(a, cfg, _keys(3))  # a block's rows are one trial
    _assert_each_step_runs_once(seen, 1, [steps])


def test_treelike_program_runs_every_step_once_per_trial(monkeypatch):
    _assert_trial_runs_every_step_once(monkeypatch, _exact_config(), 107)


def test_treelike_program_shares_the_steps_of_equal_weights(monkeypatch):
    # the identity steps have one weight, so their windows share kernel steps
    cfg = AMPConfig(nonlinearities=("identity",) * 5, T=5, mode="exact_treelike")
    _assert_trial_runs_every_step_once(monkeypatch, cfg, 68)


def _gemms(prog):
    """The kernel calls of prog that multiply two n x n matrices."""
    def gemm(kernel):
        lhs, out = kernel.split("->")
        ins = lhs.split(",")
        return (len(ins) == 2 and all(len(i) == 2 for i in ins) and len(out) == 2
                and bool(set(lhs) - {","} - set(out)))
    return sum(ins[0] == gp._KERNEL and gemm(ins[2]) for code in prog.code for ins in code)


@pytest.mark.parametrize("fs, same, steps, gemms", [
    (("identity",) * 5, (0,) * 5, 68, 10),
    (_exact_config().nonlinearities, (0, 1, 2, 0, 4), 107, 15),
    (("cube_hermite",) * 5, (0, 1, 2, 3, 4), 107, 15),
    (("identity", [0.5, 2], [0, 2], [1, 2], [0, 2]), (0, 1, 1, 1, 1), 68, 10),
    (("identity", [0.5, 2], "cube_hermite", [0, 2], [3.0]), (0, 1, 2, 1, 4), 103, 14),
    (("identity",) * 7, (0,) * 7, 720, 140),
])
def test_equal_weights_share_their_kernel_steps(fs, same, steps, gemms):
    # a step whose f' is a constant reads the weight of the first step with the
    # same constant; a nonlinear step keeps its own
    from trafficamp import amp
    cfg = AMPConfig(nonlinearities=fs, T=len(fs), mode="exact_treelike")
    assert amp._same_weights(cfg) == same
    prog = amp._exact_program(256, cfg)[0]
    assert (_steps(prog), _gemms(prog)) == (steps, gemms)


_SHARED_WEIGHTS = [
    ("identity",) * 5,
    ("identity",) * 7,
    ("identity", [0.5, 2], [0, 2], [1, 2], [0, 2]),
    ("identity", [0.5, 2], [0, 2], "identity", [1, 2]),
    ("identity", [0.5], "identity", [2.0], [0.5]),
    ("identity", "cube_hermite", "identity", "square_centered", "identity", "identity",
     "cube_hermite"),
]


@pytest.mark.parametrize("kind", ["goe", "community", "hadamard"])
def test_shared_weights_bytes_match_legacy(kind):
    # the legacy runner keys no value by its weight, so it is the oracle for a
    # program whose equal weights share kernel steps
    n = 32
    spec = {"goe": EnsembleSpec("goe", n, seed=11),
            "community": EnsembleSpec("community", n, seed=11, q=4, inner="rom"),
            "hadamard": EnsembleSpec("punctured", n, inner="hadamard")}[kind]
    a = generate(spec).values
    for fs in _SHARED_WEIGHTS:
        cfg = AMPConfig(nonlinearities=fs, T=len(fs), mode="exact_treelike")
        iters = _legacy_run_treelike(a, cfg).tobytes()
        assert run(a, cfg).tobytes() == iters, fs
        for new in run(a, cfg, _keys(3)):
            assert new.tobytes() == iters, fs


# ---------------------------------------------------------------------------
# byte oracle: the scalar-Onsager and block-GOE runners as they were before
# trials ran in lockstep, one trial per call, copied literally
# ---------------------------------------------------------------------------

def _legacy_init_vector(cfg, n, stream):
    if cfg.init == "gaussian":
        return stream_rng(cfg.seed, stream).standard_normal(n)
    return np.ones(n)


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
    x = _legacy_init_vector(cfg, n, stream)
    fvec = [fs[0](x)]
    fpmean = [float(np.mean(fs[0].derivative()(x)))]
    iters = np.empty((cfg.T, n))
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        for s in range(t):
            coef = kap[t - s]
            for r in range(s + 1, t):
                coef *= fpmean[r]
            xt = xt - coef * fvec[s]
        _check_finite(xt, t)
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fpmean.append(float(np.mean(fs[t].derivative()(xt))))
    return iters


def _legacy_run_punctured(a, cfg, stream=0):
    """Scalar-Onsager AMP for punctured matrices: gaussian start, f_0 = id,
    and centered memory terms f_s(x_s) - <f_s(x_s)> 1."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if cfg.mode != "punctured_kappa":
        raise ValueError("config mode must be punctured_kappa")
    fs = cfg.nonlinearities
    kap = cfg.kappa
    x = _legacy_init_vector(cfg, n, stream)
    fvec = [fs[0](x)]
    fpmean = [float(np.mean(fs[0].derivative()(x)))]
    iters = np.empty((cfg.T, n))
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        for s in range(t):
            coef = kap[t - s]
            for r in range(s + 1, t):
                coef *= fpmean[r]
            centered = fvec[s] - np.mean(fvec[s])
            xt = xt - coef * centered
        _check_finite(xt, t)
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fpmean.append(float(np.mean(fs[t].derivative()(xt))))
    return iters


def _legacy_run_block_goe(a, cfg, stream=0):
    """Block-GOE AMP: the lag-2 memory coefficient is the entrywise-squared
    matrix applied to the derivative vector."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if cfg.mode != "block_goe":
        raise ValueError("config mode must be block_goe")
    fs = cfg.nonlinearities
    a2 = a * a
    x = _legacy_init_vector(cfg, n, stream)
    fvec = [fs[0](x)]
    fprime = [fs[0].derivative()(x)]
    iters = np.empty((cfg.T, n))
    for t in range(1, cfg.T + 1):
        xt = a @ fvec[t - 1]
        if t >= 2:
            b = a2 @ fprime[t - 1]
            xt = xt - b * fvec[t - 2]
        _check_finite(xt, t)
        iters[t - 1] = xt
        if t < cfg.T:
            fvec.append(fs[t](xt))
            fprime.append(fs[t].derivative()(xt))
    return iters


LEGACY_RUNNERS = {"scalar_kappa": _legacy_run_oamp,
                  "punctured_kappa": _legacy_run_punctured,
                  "block_goe": _legacy_run_block_goe}


def _block_config(mode, init):
    fs = ("identity", "cube_hermite", "square_centered", "relu_poly3")
    kappa = None if mode == "block_goe" else named_table("rom")
    return AMPConfig(nonlinearities=fs, T=4, mode=mode, kappa=kappa, init=init)


@pytest.mark.parametrize("n", [1, 2, 17, 64, 65, 256, 1000])
def test_lockstep_bytes_match_legacy_runners(n):
    rng = np.random.default_rng(n)
    a = _rand_sym(rng, n) / np.sqrt(n)
    for mode, init in (("scalar_kappa", "ones"), ("scalar_kappa", "gaussian"),
                       ("punctured_kappa", "gaussian"), ("block_goe", "ones"),
                       ("block_goe", "gaussian")):
        cfg = _block_config(mode, init)
        for k in (1, 3, 10):
            keys = [(100 + 7 * j, 5 + j) for j in range(k)]
            for (seed, stream), new in zip(keys, run(a, cfg, keys)):
                old = LEGACY_RUNNERS[mode](a, dataclasses.replace(cfg, seed=seed), stream)
                assert new.tobytes() == old.tobytes()
        # a run without keys is one trial, keyed (cfg.seed, 0)
        cfg = dataclasses.replace(cfg, seed=100)
        assert run(a, cfg).tobytes() == LEGACY_RUNNERS[mode](a, cfg).tobytes()


def test_lockstep_divergence_matches_legacy_runners():
    # x^3 - 3x keeps |x| <= 2 bounded and sends larger starts to overflow,
    # so trials of one block diverge at different steps or not at all
    n, T = 6, 12
    a = np.eye(n) + 0.01 * _rand_sym(np.random.default_rng(3), n)
    kappa = CumulantTable((0.0, 0.001) + (0.0,) * (T - 2))
    cfg = AMPConfig(nonlinearities=("identity",) + ("cube_hermite",) * (T - 1), T=T,
                    mode="scalar_kappa", kappa=kappa, init="gaussian")
    keys = [(40 + j, j) for j in range(12)]
    with np.errstate(over="ignore", invalid="ignore"):
        results = run(a, cfg, keys)
        outcomes = set()
        for (seed, stream), res in zip(keys, results):
            try:
                old = _legacy_run_oamp(a, dataclasses.replace(cfg, seed=seed), stream)
            except DivergenceError as exc:
                assert isinstance(res, DivergenceError)
                assert (res.t, res.i) == (exc.t, exc.i)
                outcomes.add(exc.t)
            else:
                assert res.tobytes() == old.tobytes()
                outcomes.add(None)
    assert None in outcomes and len(outcomes) >= 3  # survivors and two divergence steps


def test_run_rejects_empty_keys():
    with pytest.raises(ValueError, match="at least one key"):
        run(np.eye(4), _block_config("scalar_kappa", "gaussian"), [])


# ---------------------------------------------------------------------------
# byte oracle: empirical_state as it was before its means were stacked,
# copied literally
# ---------------------------------------------------------------------------

def _legacy_empirical_state(iterates, block_labels=None, max_power=6):
    """Empirical moments of the iterates: pair moments <x_s x_t> and powers
    <x_t^k>, optionally conditioned on block labels."""
    def moments(xs):
        T = len(xs)
        return {"second": {(s, t): float(np.mean(xs[s - 1] * xs[t - 1]))
                           for s in range(1, T + 1) for t in range(s, T + 1)},
                "power": {(t, k): float(np.mean(xs[t - 1] ** k))
                          for t in range(1, T + 1) for k in range(1, max_power + 1)}}

    xs = list(iterates)
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
    from test_state_evolution import _flatten
    rng = np.random.default_rng(44)
    for case in range(300):
        n, T = int(rng.integers(1, 600)), int(rng.integers(1, 7))
        it = rng.standard_normal((T, n)) * 10.0 ** rng.uniform(-3, 3)
        it[rng.random((T, n)) < 0.1 * (case % 2)] = 0.0
        if case % 5 == 0:
            it = np.asfortranarray(it)
        labels = rng.integers(0, 1 + case % 4, n) if case % 3 else None
        for power in (6, 3):
            assert (_exact_items(empirical_state(it, labels, max_power=power)) == _exact_items(
                _flatten(_legacy_empirical_state(it, labels, max_power=power)))), case
    a = generate(EnsembleSpec("community", 64, seed=5, q=4, inner="rom")).values
    x = run(a, AMPConfig(nonlinearities=("identity", "cube_hermite") * 3, T=5,
                         mode="exact_treelike"))
    labels = block_labels(64, 4)
    assert (_exact_items(empirical_state(x, labels))
            == _exact_items(_flatten(_legacy_empirical_state(x, labels))))
