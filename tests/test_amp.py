import numpy as np
import pytest

from trafficamp.amp import (AMPConfig, DivergenceError, empirical_state,
                            onsager_b, onsager_b_brute, run, run_block_goe,
                            run_oamp, run_punctured, run_treelike)
from trafficamp.ensembles import (EnsembleSpec, block_labels, generate,
                                  puncture)
from trafficamp.freeprob import named_table
from trafficamp.gaussian import Polynomial
from trafficamp.graphpoly import BudgetError

from test_graphpoly import _legacy_eval_w


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
            b1 = onsager_b(a, fprime, 0, w, budget=float("inf"))
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
    tr = run_treelike(a, cfg)
    # the lag-1 memory term is the diagonal walk
    assert np.allclose(tr.iterates[0], a @ np.ones(64) - np.diag(a))
    assert np.allclose(tr.onsager[(0, 1)], np.diag(a))


def test_oamp_first_step_and_classical_form():
    a = generate(EnsembleSpec("goe", 128, seed=2)).values
    cfg = AMPConfig(nonlinearities=("identity",) * 3, T=3, mode="scalar_kappa",
                    kappa=named_table("goe"))
    tr = run_oamp(a, cfg)
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
    tr = run_punctured(a, cfg)
    assert abs(np.mean(tr.x0)) < 4 / np.sqrt(256)
    assert np.isfinite(tr.iterates).all()


def test_block_goe_runner():
    n = 256
    b = generate(EnsembleSpec("block_goe", n, seed=3, q=2,
                              sigma=(1, 0.5, 0.5, 1))).values
    cfg = AMPConfig(nonlinearities=("identity",) * 3, T=3, mode="block_goe")
    tr = run_block_goe(b, cfg)
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
            run_oamp(a, cfg)
    assert err.value.t >= 1


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    n = 64
    a = generate(EnsembleSpec("goe", n, seed=6)).values
    cfg = AMPConfig(nonlinearities=("identity", "square_centered", "identity"),
                    T=3, mode="scalar_kappa", kappa=named_table("goe"))
    tr = run_oamp(a, cfg)
    perm = rng.permutation(n)
    ap = a[np.ix_(perm, perm)]
    trp = run_oamp(ap, cfg)
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
        tr = run_oamp(a, cfg)
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
    cfg = AMPConfig(nonlinearities=("identity",) * 6, T=6, mode="exact_treelike")
    with pytest.raises(ValueError):
        run_treelike(a, cfg)
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
                for budget in (None, float("inf")):
                    old = _legacy_onsager_b(a, fprime, s, s + w, budget=budget)
                    new = onsager_b(a, fprime, s, s + w, budget=budget)
                    assert new.tobytes() == old.tobytes(), (n, s, w)


def test_onsager_budget_error_unchanged():
    rng = np.random.default_rng(21)
    a = _rand_sym(rng, 16)
    fprime = [rng.standard_normal(16) for _ in range(6)]
    for budget in (10.0, 16.0 ** 2, 16.0 ** 3, 3 * 16.0 ** 3):
        for w in range(2, 6):
            try:
                old = _legacy_onsager_b(a, fprime, 0, w, budget=budget).tobytes()
            except BudgetError as exc:
                old = str(exc)
            try:
                new = onsager_b(a, fprime, 0, w, budget=budget).tobytes()
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
        tr = run_treelike(a, cfg)
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
            futures = [pool.submit(run_treelike, m, cfg) for m in mats]
            traces = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for m, tr in zip(mats, traces):
        assert tr.iterates.tobytes() == _legacy_run_treelike(m, cfg)[0].tobytes()


def test_treelike_memo_serves_every_counted_request(monkeypatch):
    from trafficamp import graphpoly

    memos = []

    class Recording(graphpoly._Memo):
        def __init__(self, uses):
            super().__init__(uses)
            self.uses = dict(uses)
            memos.append(self)

    monkeypatch.setattr(graphpoly, "_Memo", Recording)
    a = generate(EnsembleSpec("goe", 32, seed=9)).values
    cfg = AMPConfig(nonlinearities=("identity",) * 5, T=5, mode="exact_treelike")
    run_treelike(a, cfg)
    (memo,) = memos
    # 162 step requests per T=5 trial, 60 of them distinct
    assert (sum(memo.uses.values()), len(memo.uses)) == (162, 60)
    assert set(memo._left) == set(memo.uses)  # no request the counts missed
    assert set(memo._left.values()) == {0}  # every counted request was made
    assert not memo._values  # and each shared result freed after its last use
