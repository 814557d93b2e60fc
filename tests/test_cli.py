import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from trafficamp import ensembles, graphpoly, matrixio
from trafficamp.cli import (CONFIG_KEYS, _orthogonality_error, load_config,
                            main, read_moments_csv)
from trafficamp.freeprob import named_table


def run_cli(*argv):
    return main(list(argv))


def test_gen_and_formats(tmp_path):
    out = str(tmp_path / "h8.tamp")
    assert run_cli("gen", "--kind", "hadamard", "--n", "8", "--out", out) == 0
    m = matrixio.read_matrix(out)
    assert np.allclose(m @ m, np.eye(8), atol=1e-12)
    sidecar = json.load(open(out + ".json"))
    assert sidecar == {"kind": "hadamard", "n": 8, "seed": 0}


def test_gen_deterministic_bytes(tmp_path):
    a = str(tmp_path / "a.tamp")
    b = str(tmp_path / "b.tamp")
    run_cli("gen", "--kind", "r_rom", "--n", "128", "--seed", "7", "--out", a)
    run_cli("gen", "--kind", "r_rom", "--n", "128", "--seed", "7", "--out", b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_block(tmp_path):
    out = str(tmp_path / "b.tamp")
    assert run_cli("gen", "--kind", "block_goe", "--q", "2",
                   "--sigma", "1,0.5,0.5,1", "--n", "64", "--out", out) == 0
    m = matrixio.read_matrix(out)
    assert np.array_equal(m, m.T)


def _write_config(tmp_path, **overrides):
    cfg = {
        "ensemble": {"kind": "goe", "n": 256},
        "diagrams": ["cycle2", "cycle3", "theta"],
        "amp": {"nonlinearities": ["identity", "identity"], "T": 2,
                "mode": "scalar_kappa", "kappa": "goe", "init": "ones"},
        "trials": 6,
        "output_dir": str(tmp_path / "out"),
        "master_seed": 1,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_traffic_run(tmp_path):
    cfg = _write_config(tmp_path, dimension_sweep=[64, 128])
    assert run_cli("traffic", "--config", cfg) == 0
    lines = open(tmp_path / "out" / "traffic.csv").read().splitlines()
    assert lines[0].startswith("# config-hash:")
    assert lines[1] == "n,diagram,basis,mean,se,target"
    assert len(lines) > 2
    exps = open(tmp_path / "out" / "traffic_exponents.csv").read().splitlines()
    assert exps[1] == "diagram,basis,exponent"


def test_traffic_deterministic_output(tmp_path):
    cfg = _write_config(tmp_path, dimension_sweep=[64])
    run_cli("traffic", "--config", cfg)
    first = open(tmp_path / "out" / "traffic.csv").read()
    run_cli("--threads", "2", "traffic", "--config", cfg)
    second = open(tmp_path / "out" / "traffic.csv").read()
    assert first == second


def test_cactus_audit_run(tmp_path):
    cfg = _write_config(tmp_path, dimension_sweep=[64, 128])
    assert run_cli("cactus-audit", "--config", cfg) == 0
    assert (tmp_path / "out" / "cactus_audit.csv").exists()
    assert (tmp_path / "out" / "delocalization.csv").exists()


def test_amp_se_compare_pipeline(tmp_path):
    cfg = _write_config(tmp_path)
    assert run_cli("amp", "--config", cfg) == 0
    moments = tmp_path / "out" / "moments.csv"
    report = read_moments_csv(str(moments))
    assert (1, 1) in report["second"]
    kernel = tmp_path / "out" / "kernel.json"
    assert run_cli("se", "--config", cfg, "--out", str(kernel)) == 0
    verdict = tmp_path / "out" / "verdict.csv"
    code = run_cli("compare", "--kernel", str(kernel), "--moments", str(moments),
                   "--out", str(verdict))
    assert code == 0
    lines = open(verdict).read().splitlines()
    assert lines[1] == "group,stat,s,t,empirical,predicted,z"


def test_compare_detects_onsager_ablation(tmp_path):
    # moments produced WITHOUT the memory term must fail the GOE kernel
    import trafficamp.amp as amp_mod
    from trafficamp.ensembles import EnsembleSpec, generate
    from trafficamp.state_evolution import aggregate_reports
    from trafficamp.cli import _report_rows, write_csv

    states = []
    for s in range(6):
        a = generate(EnsembleSpec("goe", 512, seed=s)).values
        x1 = a @ np.ones(512)
        x2 = a @ x1  # no correction
        tr = amp_mod.AMPTrace(np.ones(512), np.vstack([x1, x2]), {}, "ablated")
        states.append(amp_mod.empirical_state(tr))
    rep = aggregate_reports(states)
    write_csv(tmp_path / "m.csv", ["group", "kind", "a", "b", "mean", "se"],
              _report_rows(rep), {})
    cfg = _write_config(tmp_path)
    kernel = tmp_path / "k.json"
    run_cli("se", "--config", cfg, "--out", str(kernel))
    code = run_cli("compare", "--kernel", str(kernel),
                   "--moments", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "v.csv"))
    assert code == 1


def test_usage_errors(tmp_path):
    assert run_cli("se", "--config", str(tmp_path / "missing.json")) == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--kind", "bogus", "--n", "4")
    assert exc.value.code == 2


def test_budget_exit_code(tmp_path):
    cfg = _write_config(tmp_path, eval_budget=10.0,
                        diagrams=["cycle4"], dimension_sweep=[64])
    assert run_cli("traffic", "--config", cfg) == 3


def test_divergence_exit_code(tmp_path):
    # cubic iteration on the unpunctured Hadamard matrix blows up: the
    # all-ones alignment is exactly what puncturing exists to remove
    cfg = {
        "ensemble": {"kind": "hadamard", "n": 64},
        "diagrams": ["cycle2"],
        "amp": {"nonlinearities": ["cube_hermite"] * 7, "T": 7,
                "mode": "scalar_kappa", "kappa": "rom", "init": "ones"},
        "trials": 1,
        "output_dir": str(tmp_path / "out"),
        "master_seed": 3,
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("amp", "--config", str(path))
    assert code == 4


def test_se_divergence_exit_code(tmp_path, capsys):
    # cubic steps overflow the scalar-kappa recursion at T = 8
    cfg = _write_config(tmp_path, amp={
        "nonlinearities": ["identity"] + ["cube_hermite"] * 7, "T": 8,
        "mode": "scalar_kappa", "kappa": named_table("rom", 16).to_json()})
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json"))
    assert code == 4
    assert "kernel not finite at t=8" in capsys.readouterr().err


def _count_engine_work(monkeypatch):
    """Record label checks, kernel runs and the memos the engine builds."""
    seen = {"checks": 0, "kernels": 0, "requests": 0, "memos": []}
    check = graphpoly._as_matrix

    def counting_check(*args):
        seen["checks"] += 1
        return check(*args)

    def counting(kernel):
        def run(*args, **kwargs):
            seen["kernels"] += 1
            return kernel(*args, **kwargs)
        return run

    class Memo(graphpoly._Memo):
        def __init__(self, uses):
            super().__init__(uses)
            seen["requests"] += sum(dict(uses).values())
            seen["memos"].append(self)

    monkeypatch.setattr(graphpoly, "_as_matrix", counting_check)
    for name in ("bmm_einsum", "c_einsum"):
        monkeypatch.setattr(graphpoly, name, counting(getattr(graphpoly, name)))
    monkeypatch.setattr(graphpoly, "_Memo", Memo)
    return seen


@pytest.mark.parametrize("command", ["traffic", "cactus-audit"])
def test_catalog_checks_once_and_runs_each_step_once(tmp_path, monkeypatch, command):
    cfg = _write_config(tmp_path, dimension_sweep=[16, 24], trials=3,
                        diagrams=["cycle2", "cycle4", "bowtie", "cycle3",
                                  "path3", "star3", "theta"],
                        open_cactuses=["open_path1", "open_path2"])
    seen = _count_engine_work(monkeypatch)
    assert run_cli(command, "--config", cfg) == 0
    trials = 2 * 3
    assert seen["checks"] == trials  # one symmetry check per trial
    assert len(seen["memos"]) == trials
    # every distinct step key runs once, and its result is freed after its last use
    assert seen["kernels"] == sum(len(m._left) for m in seen["memos"])
    for memo in seen["memos"]:
        assert memo._values == {}
        assert set(memo._left.values()) == {0}
    assert seen["kernels"] < seen["requests"]  # the diagrams share steps


def test_preset_configs_load():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    names = ["goe_identity", "rom_cubic", "hadamard_punctured",
             "dst_punctured", "blockgoe_q2", "community_q4"]
    paths = [os.path.join(here, "configs", "%s.json" % name) for name in names]
    for path in paths + [os.path.join(here, "benchmark", "amp_treelike.json")]:
        cfg = load_config(path)
        assert cfg == json.load(open(path))
        assert "ensemble" in cfg and "amp" in cfg and "master_seed" in cfg


@pytest.mark.parametrize("section,key", [(None, "trails"), ("ensemble", "sigam"),
                                         ("amp", "kapa")])
def test_config_rejects_unknown_keys(tmp_path, capsys, section, key):
    cfg = json.loads(open(_write_config(tmp_path)).read())
    (cfg if section is None else cfg[section])[key] = 1
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    where = "the top level" if section is None else "section %r" % section
    with pytest.raises(ValueError, match="unknown config key %r in %s"
                       % (key, where)):
        load_config(str(path))
    for command in ("traffic", "cactus-audit", "amp", "se"):
        assert run_cli(command, "--config", str(path)) == 2
        assert repr(key) in capsys.readouterr().err


def test_config_accepts_every_documented_key(tmp_path):
    cfg = {key: 1 for key in CONFIG_KEYS[None]}
    cfg["ensemble"] = {key: 1 for key in CONFIG_KEYS["ensemble"]}
    cfg["amp"] = {key: 1 for key in CONFIG_KEYS["amp"]}
    path = tmp_path / "all.json"
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)) == cfg


@pytest.mark.parametrize("kind,n", [("hadamard", 64), ("dst", 64), ("dst", 50)])
def test_gen_orthogonality_error_matches_old_expression(tmp_path, capsys, kind, n):
    h = ensembles.generate(ensembles.EnsembleSpec(kind, n)).values
    want = float(np.max(np.abs(h @ h - np.eye(n))))
    assert _orthogonality_error(h.copy()) == want
    assert run_cli("gen", "--kind", kind, "--n", str(n),
                   "--out", str(tmp_path / "h.tamp")) == 0
    assert capsys.readouterr().out.endswith("max |H^2 - I| = %.2e\n" % want)


def _punctured_hadamard_config(tmp_path):
    return _write_config(
        tmp_path, ensemble={"kind": "punctured", "inner": "hadamard", "n": 256},
        amp={"nonlinearities": ["identity", "cube_hermite", "cube_hermite"],
             "T": 3, "mode": "punctured_kappa", "kappa": "rom", "init": "gaussian"},
        trials=4)


def test_amp_threads_byte_identical(tmp_path):
    cfg = _punctured_hadamard_config(tmp_path)
    outputs = []
    for threads, out in (("1", "t1"), ("2", "t2")):
        assert run_cli("--threads", threads, "amp", "--config", cfg,
                       "--out", str(tmp_path / out)) == 0
        names = sorted(os.listdir(tmp_path / out))
        assert "moments.csv" in names
        assert len([nm for nm in names if nm.startswith("trace_")]) == 4
        outputs.append({nm: (tmp_path / out / nm).read_bytes() for nm in names
                        if nm == "moments.csv" or nm.endswith(".tamp")})
    assert outputs[0] == outputs[1]


def test_amp_builds_deterministic_matrix_once_read_only(tmp_path, monkeypatch):
    import trafficamp.amp as amp_mod
    from trafficamp import ensembles

    calls = []
    real_generate = ensembles.generate

    def counting_generate(spec, stream=0):
        calls.append(spec.kind)
        return real_generate(spec, stream)

    def writing_run(a, cfg, stream=0):
        a[0, 0] = 0.0
        raise AssertionError("the shared matrix accepted a write")

    monkeypatch.setattr(ensembles, "generate", counting_generate)
    cfg = _punctured_hadamard_config(tmp_path)
    assert run_cli("amp", "--config", cfg) == 0
    assert calls == ["punctured", "hadamard"]  # the outer kind builds its inner once
    monkeypatch.setattr(amp_mod, "run", writing_run)
    assert run_cli("amp", "--config", cfg) == 2


def test_compare_single_trial_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, trials=1)
    assert run_cli("amp", "--config", cfg, "--no-save-traces") == 0
    kernel = tmp_path / "out" / "kernel.json"
    assert run_cli("se", "--config", cfg, "--out", str(kernel)) == 0
    code = run_cli("compare", "--kernel", str(kernel),
                   "--moments", str(tmp_path / "out" / "moments.csv"),
                   "--out", str(tmp_path / "out" / "verdict.csv"))
    assert code == 2
    assert "1-trial" in capsys.readouterr().err


def _outputs(outdir):
    return {nm: (outdir / nm).read_bytes() for nm in sorted(os.listdir(outdir))}


def test_cactus_audit_threads_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, dimension_sweep=[32, 64], trials=4)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / ("t" + threads)
        assert run_cli("--threads", threads, "cactus-audit", "--config", cfg,
                       "--out", str(out)) == 0
        outputs.append(_outputs(out))
    assert "cactus_audit.csv" in outputs[0] and "delocalization.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_cactus_audit_runs_delocalization_once_per_n(tmp_path, monkeypatch):
    from trafficamp.cli import _ensemble_from_config, _generate_trial

    audited = []
    real_audit = ensembles.delocalization_audit

    def recording_audit(m, *args, **kwargs):
        audited.append(m.copy())
        return real_audit(m, *args, **kwargs)

    monkeypatch.setattr(ensembles, "delocalization_audit", recording_audit)
    cfg = _write_config(tmp_path, dimension_sweep=[32, 64], trials=4)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / ("t" + threads)
        audited.clear()
        assert run_cli("--threads", threads, "cactus-audit", "--config", cfg,
                       "--out", str(out)) == 0
        outputs.append(_outputs(out))
        # once per n, on the matrix of trial 0 (the parent ran it on all 8)
        assert [m.shape[0] for m in audited] == [32, 64]
        for m in audited:
            spec = _ensemble_from_config(load_config(cfg), n=m.shape[0])
            assert np.array_equal(m, _generate_trial(spec, 1, 0))
    assert outputs[0] == outputs[1]


def test_gen_se_compare_threads_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    assert run_cli("amp", "--config", cfg, "--no-save-traces") == 0
    moments = str(tmp_path / "out" / "moments.csv")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / ("t" + threads)
        out.mkdir()
        for kind, extra in (("r_rom", ()), ("goe", ()),
                            ("block_goe", ("--q", "2", "--sigma", "1,0.5,0.5,1"))):
            assert run_cli("--threads", threads, "gen", "--kind", kind, "--n", "64",
                           "--seed", "3", *extra, "--out", str(out / (kind + ".tamp"))) == 0
        kernel = str(out / "kernel.json")
        assert run_cli("--threads", threads, "se", "--config", cfg, "--out", kernel) == 0
        assert run_cli("--threads", threads, "compare", "--kernel", kernel,
                       "--moments", moments, "--out", str(out / "verdict.csv")) in (0, 1)
        outputs.append(_outputs(out))
    assert len(outputs[0]) == 8  # three matrices with sidecars, kernel and verdict
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("amp, message", [
    ({"nonlinearities": ["identity", "identity"], "T": 2, "mode": "scalar_kappa",
      "kappa": "goe", "init": "zeros"}, "unknown init 'zeros'"),
    ({"nonlinearities": ["identity"] * 6, "T": 6, "mode": "exact_treelike",
      "init": "ones"}, "T <= 5"),
])
def test_amp_rejects_config_before_building_a_matrix(tmp_path, monkeypatch, capsys,
                                                     amp, message):
    calls = []
    real_generate = ensembles.generate

    def recording_generate(spec, stream=0):
        calls.append(spec.kind)
        return real_generate(spec, stream)

    monkeypatch.setattr(ensembles, "generate", recording_generate)
    cfg = _write_config(tmp_path, amp=amp)
    assert run_cli("amp", "--config", cfg) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def _treelike_config(tmp_path, **amp):
    return _write_config(
        tmp_path, ensemble={"kind": "community", "n": 64, "q": 4, "inner": "rom"},
        amp={"nonlinearities": ["identity", "cube_hermite", "identity",
                                "square_centered", "identity"],
             "T": 5, "mode": "exact_treelike", "init": "ones", **amp},
        trials=4)


def test_amp_treelike_threads_byte_identical(tmp_path):
    # worker threads share the contraction plans; each trial has its own memo
    cfg = _treelike_config(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / ("t" + threads)
        assert run_cli("--threads", threads, "amp", "--config", cfg,
                       "--out", str(out)) == 0
        outputs.append(_outputs(out))
    assert len([nm for nm in outputs[0] if nm.startswith("trace_")]) == 4
    assert outputs[0] == outputs[1]


def test_amp_treelike_rejects_gaussian_init(tmp_path, capsys):
    cfg = _treelike_config(tmp_path, init="gaussian")
    assert run_cli("amp", "--config", cfg, "--no-save-traces") == 2
    assert "init" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [0, -2, 2.5, "3", True])
@pytest.mark.parametrize("command", ["amp", "traffic"])
def test_trials_below_one_is_usage_error(tmp_path, capsys, command, trials):
    cfg = _write_config(tmp_path, trials=trials)
    assert run_cli(command, "--config", cfg) == 2
    assert "'trials'" in capsys.readouterr().err


@pytest.mark.parametrize("ensemble, amp", [
    ({"kind": "punctured", "inner": "dst", "n": 65},
     {"nonlinearities": ["identity", "cube_hermite", "cube_hermite"], "T": 3,
      "mode": "punctured_kappa", "kappa": "rom", "init": "gaussian"}),
    ({"kind": "hadamard", "n": 64},
     {"nonlinearities": ["identity", "cube_hermite", "identity"], "T": 3,
      "mode": "scalar_kappa", "kappa": "rom", "init": "gaussian"}),
])
def test_amp_lockstep_threads_byte_identical(tmp_path, ensemble, amp):
    # 5 trials on a shared matrix: one block of 5, blocks of 3 + 2, of 2 + 2 + 1
    cfg = _write_config(tmp_path, ensemble=ensemble, amp=amp, trials=5)
    outputs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / ("t" + threads)
        assert run_cli("--threads", threads, "amp", "--config", cfg,
                       "--out", str(out)) == 0
        outputs.append(_outputs(out))
    assert len([nm for nm in outputs[0] if nm.startswith("trace_")]) == 5
    assert outputs[0] == outputs[1] == outputs[2]


def test_amp_exact_lockstep_threads_match_legacy(tmp_path, monkeypatch):
    # 3 exact-mode trials on punctured Hadamard: one block of 3, blocks of 2 + 1,
    # and three blocks of one, each trial with the legacy iterates and Onsager bytes
    import trafficamp.amp as amp_mod
    from test_amp import _legacy_run_treelike
    from trafficamp.cli import _amp_config_from

    ensemble = {"kind": "punctured", "inner": "hadamard", "n": 64}
    cfg = _write_config(tmp_path, ensemble=ensemble, trials=3,
                        amp={"nonlinearities": ["identity", "cube_hermite",
                                                "square_centered", "identity",
                                                "cube_hermite"],
                             "T": 5, "mode": "exact_treelike", "init": "ones"})
    m = ensembles.generate(ensembles.EnsembleSpec.from_json(ensemble)).values
    iters, onsager = _legacy_run_treelike(m, _amp_config_from(load_config(cfg), seed=0))
    traces, real_run = [], amp_mod.run

    def recording_run(a, cfgs, streams):
        assert isinstance(cfgs, amp_mod.TrialBlock)  # its T and mode are read by tracing
        out = real_run(a, cfgs, streams)
        traces.extend(out)
        return out

    monkeypatch.setattr(amp_mod, "run", recording_run)
    outputs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / ("t" + threads)
        traces.clear()
        assert run_cli("--threads", threads, "amp", "--config", cfg,
                       "--out", str(out)) == 0
        outputs.append(_outputs(out))
        assert len(traces) == 3
        for tr in traces:
            assert list(tr.onsager) == list(onsager)
            for key, b in onsager.items():
                assert tr.onsager[key].tobytes() == b.tobytes(), key
        for trial in range(3):
            got = matrixio.read_matrix(str(out / ("trace_%03d.tamp" % trial)))
            assert got.tobytes() == iters.tobytes(), trial
    assert outputs[0] == outputs[1] == outputs[2]


def test_amp_tail_tile_matches_untiled_runner(tmp_path):
    # n = 4097 leaves a one-row tail tile.  An untiled GEMV at odd n gives
    # other bytes on two BLAS threads than on one, so both sides run on one.
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
    code = "import sys, test_cli; test_cli._check_tail_tile(sys.argv[1])"
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                   timeout=600)


def _check_tail_tile(tmp):
    from test_amp import _legacy_run_punctured
    from trafficamp.cli import _amp_config_from

    tmp = pathlib.Path(tmp)
    ensemble = {"kind": "punctured", "inner": "dst", "n": 4097}
    cfg = _write_config(tmp, ensemble=ensemble, trials=3,
                        amp={"nonlinearities": ["identity", "cube_hermite"], "T": 2,
                             "mode": "punctured_kappa", "kappa": "rom",
                             "init": "gaussian"})
    outputs = []
    for threads in ("1", "2"):
        out = tmp / ("t" + threads)
        assert run_cli("--threads", threads, "amp", "--config", cfg,
                       "--out", str(out)) == 0
        outputs.append(_outputs(out))
    assert outputs[0] == outputs[1]
    m = ensembles.generate(ensembles.EnsembleSpec.from_json(ensemble)).values
    for trial in range(3):
        acfg = _amp_config_from(load_config(cfg), seed=1 + 1000003 * (trial + 1))
        want = _legacy_run_punctured(m, acfg, stream=trial).iterates
        got = matrixio.read_matrix(str(tmp / "t1" / ("trace_%03d.tamp" % trial)))
        assert got.tobytes() == want.tobytes(), trial
