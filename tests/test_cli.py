import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from trafficamp import ensembles, graphpoly, matrixio
from trafficamp import state_evolution as se_mod
from trafficamp.cli import (CONFIG_KEYS, _analytic_targets, _audit_request,
                            _orthogonality_error, build_kernel, load_config, main,
                            read_moments_csv, write_csv)
from trafficamp.diagrams import cycle_diagram, named_diagram, z_to_w_coefficients
from trafficamp.freeprob import CumulantTable, named_table
from trafficamp.gaussian import named_polynomial
from trafficamp.state_evolution import aggregate_reports

from test_graphpoly import _assert_each_step_runs_once, _count_engine_work, _steps


def run_cli(*argv):
    return main(list(argv))


def _write_moments(path, report):
    """moments.csv of an aggregate_reports map, written as `amp` writes it."""
    write_csv(path, ["group", "kind", "a", "b", "mean", "se"],
              [key + stat for key, stat in report.items()], {})


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
    assert ("all", "second", 1, 1) in report
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
    states = []
    for s in range(6):
        a = generate(EnsembleSpec("goe", 512, seed=s)).values
        x1 = a @ np.ones(512)
        x2 = a @ x1  # no correction
        states.append(amp_mod.empirical_state(np.vstack([x1, x2])))
    _write_moments(tmp_path / "m.csv", aggregate_reports(states))
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
        "mode": "scalar_kappa",
        "kappa": {"tag": "cumulants", "values": list(named_table("rom", 16).values)}})
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json"))
    assert code == 4
    assert "kernel not finite at t=8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["traffic", "cactus-audit"])
def test_catalog_checks_once_and_runs_each_step_once(tmp_path, monkeypatch, command):
    names = ["cycle2", "cycle4", "bowtie", "cycle3", "path3", "star3", "theta"]
    cfg = _write_config(tmp_path, dimension_sweep=[16, 24], trials=3, diagrams=names,
                        open_cactuses=["open_path1", "open_path2"])
    seen = _count_engine_work(monkeypatch)
    assert run_cli(command, "--config", cfg) == 0
    # one symmetry check and one program run per trial, every step of it run
    # once and freed after its last use; on trial 0, cactus-audit adds one of
    # each per open cactus: open_path1 has no step, open_path2 one
    requests = [(d, basis) for _, d, basis in
                ([(nm, named_diagram(nm), b) for nm in names for b in "wz"]
                 if command == "traffic" else [_audit_request(nm) for nm in names])]
    steps = _steps(graphpoly._catalog(tuple(requests), 16))
    if command == "traffic":
        _assert_each_step_runs_once(seen, 2 * 3, [steps] * 6)
    else:
        _assert_each_step_runs_once(seen, 2 * 5, [steps, 0, 1, steps, steps] * 2)
    # the diagrams share steps: run one by one they make more kernel calls
    alone = sum(len([s for s in graphpoly._plan(q, (), 16)[0] if s])
                for d, basis in requests
                for q in ([d] if basis == "w" else z_to_w_coefficients(d)))
    assert steps < alone


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
                                         ("amp", "kapa"), ("ensemble", "seed")])
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
    cfg = {"ensemble": {"kind": "goe", "n": 8, "entry_law": "normal", "inner": "rom",
                        "q": 2, "sigma": [1, 0.5, 0.5, 1.0], "eigenvalues": "uniform"},
           "diagrams": ["cycle2"], "trials": 1, "dimension_sweep": [8],
           "amp": {"nonlinearities": ["identity", [0, 1.5]], "T": 2, "mode": "block_goe",
                   "kappa": {"tag": "cumulants", "values": [0, 1]}, "init": "ones"},
           "output_dir": "out", "master_seed": 1, "eval_budget": 1e9,
           "open_cactuses": ["open_path1"]}
    assert all(set(cfg if section is None else cfg[section]) == set(keys)
               for section, keys in CONFIG_KEYS.items())
    path = tmp_path / "all.json"
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)) == cfg


@pytest.mark.parametrize("section, key, value", [
    (None, "diagrams", "cycle3"), (None, "diagrams", ["cycle2", 5]),
    (None, "open_cactuses", "open_path1"), (None, "output_dir", 1),
    (None, "eval_budget", "1e9"), (None, "eval_budget", "abc"), (None, "eval_budget", True),
    (None, "amp", ["identity"]), (None, "trials", 0),
    ("amp", "kappa", 5), ("amp", "nonlinearities", 5), ("amp", "nonlinearities", [[1, "x"]]),
    ("amp", "mode", 1), ("ensemble", "kind", None), ("ensemble", "sigma", [1, "0.5"]),
])
def test_config_values_of_the_wrong_json_type_name_the_key(tmp_path, capsys, section,
                                                           key, value):
    cfg = json.loads(open(_write_config(tmp_path)).read())
    (cfg if section is None else cfg[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    for command in ("traffic", "cactus-audit", "amp", "se"):
        assert run_cli(command, "--config", str(path)) == 2, command
        assert "config key %r" % key in capsys.readouterr().err, command


def test_config_rejects_a_dimension_sweep_that_is_not_a_list(tmp_path, capsys):
    # nor one that repeats an n, whose exponent fit would be degenerate
    for sweep, message in ((32, "'dimension_sweep' must be a list of integers, not 32"),
                           ([32, 64, 32], r"'dimension_sweep' repeats an entry: \[32, 64, 32\]")):
        path = _write_config(tmp_path, dimension_sweep=sweep)
        with pytest.raises(ValueError, match=message):
            load_config(path)
        for command in ("traffic", "cactus-audit", "amp", "se"):
            assert run_cli(command, "--config", path) == 2
            assert "'dimension_sweep'" in capsys.readouterr().err


@pytest.mark.parametrize("kind,n", [("hadamard", 64), ("dst", 64), ("dst", 50)])
def test_gen_orthogonality_error_matches_old_expression(tmp_path, capsys, kind, n):
    h = ensembles.generate(ensembles.EnsembleSpec(kind, n)).values
    want = float(np.max(np.abs(h @ h - np.eye(n))))
    assert _orthogonality_error(h.copy()) == want
    assert run_cli("gen", "--kind", kind, "--n", str(n),
                   "--out", str(tmp_path / "h.tamp")) == 0
    assert capsys.readouterr().out.endswith("max |H^2 - I| = %.2e\n" % want)


def _punctured_hadamard_config(tmp_path, **overrides):
    return _write_config(
        tmp_path, ensemble={"kind": "punctured", "inner": "hadamard", "n": 256},
        amp={"nonlinearities": ["identity", "cube_hermite", "cube_hermite"],
             "T": 3, "mode": "punctured_kappa", "kappa": "rom", "init": "gaussian"},
        trials=4, **overrides)


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


@pytest.mark.parametrize("command", ["amp", "traffic", "cactus-audit"])
def test_amp_builds_deterministic_matrix_once_read_only(tmp_path, monkeypatch, command):
    import trafficamp.amp as amp_mod
    from trafficamp import ensembles

    calls = []
    real_generate = ensembles.generate

    def counting_generate(spec, stream=0, out=None):
        calls.append(spec.kind)
        return real_generate(spec, stream, out)

    def writing_run(a, cfg, keys=None):  # in amp's work
        a[0, 0] = 0.0
        raise AssertionError("the shared matrix accepted a write")

    def writing_catalog(catalog, a, budget=None):  # in traffic's and cactus-audit's
        writing_run(a, None)

    monkeypatch.setattr(ensembles, "generate", counting_generate)
    cfg = _punctured_hadamard_config(tmp_path, dimension_sweep=[32, 64])
    assert run_cli("--threads", "2", command, "--config", cfg) == 0
    # the outer kind builds its inner once per n; amp ignores the sweep
    assert calls == ["punctured", "hadamard"] * (1 if command == "amp" else 2)
    if command == "amp":
        monkeypatch.setattr(amp_mod, "run", writing_run)
    else:
        monkeypatch.setattr(graphpoly, "eval_catalog", writing_catalog)
    assert run_cli("--threads", "2", command, "--config", cfg) == 2


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
    # a moments file with its header only compares nothing
    empty = tmp_path / "out" / "empty.csv"
    write_csv(empty, ["group", "kind", "a", "b", "mean", "se"], [], {})
    assert run_cli("compare", "--kernel", str(kernel), "--moments", str(empty),
                   "--out", str(tmp_path / "out" / "verdict.csv")) == 2
    assert "no statistics found" in capsys.readouterr().err


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
            assert np.array_equal(m, _generate_trial(spec, 1, 0, threading.local()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name, message", [
    ("edge", "open cactus needs two distinct roots"),
    ("diagram{v=3; roots=[1,1]; edges=[(0,1),(1,2)]}", "open cactus needs two distinct roots"),
    ("diagram{v=2; roots=[0,1]; edges=[(0,1),(0,1)]}", "is not an open cactus"),
    ("diagram{v=4; roots=[0,3]; edges=[(0,1),(1,2),(2,3),(1,2)]}", "is not an open cactus"),
])
def test_cactus_audit_rejects_a_bad_open_cactus_before_any_matrix(tmp_path, capsys,
                                                                  monkeypatch, name, message):
    built = []
    monkeypatch.setattr(ensembles, "generate", lambda *args: built.append(args))
    cfg = _write_config(tmp_path, dimension_sweep=[16], trials=2,
                        open_cactuses=["open_path1", name])
    assert run_cli("cactus-audit", "--config", cfg) == 2
    assert message in capsys.readouterr().err
    assert built == []


def test_cactus_audit_budget_covers_the_whole_open_cactus(tmp_path, capsys):
    # a path of 10 edges costs 9 n^3, over the default budget of 8 n^3
    path10 = "diagram{v=11; roots=[0,10]; edges=[%s]}" % ",".join(
        "(%d,%d)" % (i, i + 1) for i in range(10))
    cfg = _write_config(tmp_path, dimension_sweep=[16], trials=2, diagrams=["cycle2"],
                        open_cactuses=[path10])
    assert run_cli("cactus-audit", "--config", cfg) == 3
    assert "exceeds budget" in capsys.readouterr().err
    cfg = _write_config(tmp_path, dimension_sweep=[16], trials=2, diagrams=["cycle2"],
                        open_cactuses=[path10], eval_budget=9 * 16.0 ** 3)
    assert run_cli("cactus-audit", "--config", cfg) == 0
    assert len(open(tmp_path / "out" / "delocalization.csv").read().splitlines()) == 3


def test_inline_diagram_literals_stay_one_csv_cell(tmp_path):
    # an inline literal holds commas, so its cell is quoted and reads back whole
    tri = "diagram{v=3; roots=[]; edges=[(0,1),(1,2),(2,0)]}"
    path2 = "diagram{v=3; roots=[0,2]; edges=[(0,1),(1,2)]}"
    cfg = _write_config(tmp_path, dimension_sweep=[16, 32], trials=2,
                        diagrams=["cycle2", tri], open_cactuses=["open_path1", path2])
    names = {"traffic": ["traffic.csv", "traffic_exponents.csv"],
             "cactus-audit": ["cactus_audit.csv", "cactus_audit_exponents.csv",
                              "delocalization.csv"]}
    for command, files in names.items():
        assert run_cli(command, "--config", cfg) == 0
        for name in files:
            with open(tmp_path / "out" / name, newline="") as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
            assert len(rows) > 1 and {len(r) for r in rows} == {len(rows[0])}, name
            assert tri in sum(rows, []) or path2 in sum(rows, []), name


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


@pytest.mark.parametrize("command", ["amp", "traffic"])
def test_each_worker_thread_reuses_one_matrix_buffer(tmp_path, monkeypatch, command):
    calls = []  # (thread, out, values) per generate call
    real_generate = ensembles.generate

    def recording_generate(spec, stream=0, out=None):
        gm = real_generate(spec, stream, out)
        calls.append((threading.get_ident(), out, gm.values))
        return gm

    monkeypatch.setattr(ensembles, "generate", recording_generate)
    cfg = _write_config(tmp_path, ensemble={"kind": "goe", "n": 64}, trials=5)
    for threads in ("1", "2"):
        calls.clear()
        assert run_cli("--threads", threads, command, "--config", cfg,
                       "--out", str(tmp_path / threads)) == 0
        assert len(calls) == 5
        workers = {}
        for thread, out, values in calls:
            workers.setdefault(thread, []).append((out, values))
        assert len(workers) <= int(threads)
        for seen in workers.values():
            # a worker's first trial allocates; every later one writes over it
            assert seen[0][0] is None
            assert all(out is values is seen[0][1] for out, values in seen[1:])
        assert len({id(values) for _, _, values in calls}) <= int(threads)


def test_trial_matrix_keeps_every_field_of_the_spec():
    from trafficamp.cli import _generate_trial

    spec = ensembles.EnsembleSpec("punctured", 16, inner="wigner", entry_law="rademacher")
    inner = ensembles.EnsembleSpec("wigner", 16, 5, entry_law="rademacher")
    want = ensembles.puncture(ensembles.generate(inner, stream=2).values)
    assert _generate_trial(spec, 5, 2, threading.local()).tobytes() == want.tobytes()


_SUBCOMMAND_ARGS = {
    "gen": ["--kind", "goe", "--n", "8"],
    "traffic": ["--config", "cfg.json"],
    "cactus-audit": ["--config", "cfg.json"],
    "amp": ["--config", "cfg.json"],
    "se": ["--config", "cfg.json"],
    "compare": ["--kernel", "kernel.json", "--moments", "moments.csv"],
}


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("command", list(_SUBCOMMAND_ARGS))
def test_threads_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys, command,
                                            threads):
    monkeypatch.chdir(tmp_path)
    # the flag is accepted before and after the subcommand name
    for argv in (["--threads", threads, command], [command, "--threads", threads]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *_SUBCOMMAND_ARGS[command])
        assert exc.value.code == 2
        assert "argument --threads: must be at least 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _record_generated_kinds(monkeypatch):
    """The kind of each matrix ensembles.generate builds from now on."""
    calls = []
    real_generate = ensembles.generate

    def recording_generate(spec, stream=0, out=None):
        calls.append(spec.kind)
        return real_generate(spec, stream, out)

    monkeypatch.setattr(ensembles, "generate", recording_generate)
    return calls


@pytest.mark.parametrize("amp, message", [
    ({"nonlinearities": ["identity", "identity"], "T": 2, "mode": "scalar_kappa",
      "kappa": "goe", "init": "zeros"}, "unknown init 'zeros'"),
    ({"nonlinearities": ["identity"] * 8, "T": 8, "mode": "exact_treelike",
      "init": "ones"}, "T <= 7"),
])
def test_amp_rejects_config_before_building_a_matrix(tmp_path, monkeypatch, capsys,
                                                     amp, message):
    calls = _record_generated_kinds(monkeypatch)
    amp = dict(amp)
    ensemble = amp.pop("ensemble", {"kind": "goe", "n": 256})  # a case may carry its own
    cfg = _write_config(tmp_path, ensemble=ensemble, amp=amp)
    assert run_cli("amp", "--config", cfg) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_amp_over_the_memory_bound_exits_3_before_building_a_matrix(tmp_path, monkeypatch,
                                                                   capsys):
    # the bound holds the program peak plus the matrix of every trial run at once
    import trafficamp.amp as amp_mod
    from trafficamp.cli import _amp_config_from
    calls = _record_generated_kinds(monkeypatch)
    cfg = _treelike_config(tmp_path)
    need = amp_mod._exact_program(64, _amp_config_from(load_config(cfg)))[0].peak + 8 * 64 ** 2
    monkeypatch.setattr(amp_mod, "_MEMORY_BOUND", need + need // 2)
    assert run_cli("--threads", "2", "amp", "--config", cfg) == 3
    err = capsys.readouterr().err
    assert "needs %.3g bytes, over the bound of %.3g" % (2 * need, need + need // 2) in err
    assert calls == []
    assert run_cli("--threads", "1", "amp", "--config", cfg, "--no-save-traces") == 0
    assert calls == ["community"] * 4


@pytest.mark.parametrize("ensemble, trials, threads, workers", [
    ({"kind": "community", "n": 64, "q": 4, "inner": "rom"}, 1, 2, 1),
    ({"kind": "community", "n": 64, "q": 4, "inner": "rom"}, 2, 3, 2),
    ({"kind": "punctured", "inner": "hadamard", "n": 64}, 4, 2, 2),
    ({"kind": "punctured", "inner": "hadamard", "n": 64}, 5, 4, 3),  # blocks of 2
    ({"kind": "punctured", "inner": "hadamard", "n": 64}, 40, 1, 1),
])
def test_amp_memory_bound_counts_only_the_blocks_that_run(tmp_path, monkeypatch, capsys,
                                                          ensemble, trials, threads, workers):
    # `threads` workers run at most one block each, so the bound holds the program
    # peak and matrix of min(threads, blocks) trials, not of `threads`
    import trafficamp.amp as amp_mod
    from trafficamp.cli import _amp_config_from
    cfg = _write_config(tmp_path, ensemble=ensemble, trials=trials,
                        amp={"nonlinearities": ["identity"] * 5, "T": 5,
                             "mode": "exact_treelike", "init": "ones"})
    need = amp_mod._exact_program(64, _amp_config_from(load_config(cfg)))[0].peak + 8 * 64 ** 2
    monkeypatch.setattr(amp_mod, "_MEMORY_BOUND", workers * need)
    args = ("--threads", str(threads), "amp", "--config", cfg, "--no-save-traces")
    assert run_cli(*args) == 0
    monkeypatch.setattr(amp_mod, "_MEMORY_BOUND", workers * need - 1)
    assert run_cli(*args) == 3
    assert "on %d thread(s) needs" % workers in capsys.readouterr().err


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
    # and three blocks of one, each trial with the legacy iterates
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
    iters = _legacy_run_treelike(m, _amp_config_from(load_config(cfg)))
    traces, real_run = [], amp_mod.run

    def recording_run(a, cfg, keys):
        assert isinstance(cfg, amp_mod.AMPConfig)  # its T and mode are read by tracing
        out = real_run(a, cfg, keys)
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
        assert all(x.tobytes() == iters.tobytes() for x in traces)
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
        acfg = dataclasses.replace(_amp_config_from(load_config(cfg)),
                                   seed=1 + 1000003 * (trial + 1))
        want = _legacy_run_punctured(m, acfg, stream=trial)
        got = matrixio.read_matrix(str(tmp / "t1" / ("trace_%03d.tamp" % trial)))
        assert got.tobytes() == want.tobytes(), trial


# ---------------------------------------------------------------------------
# byte oracles: build_kernel and read_moments_csv as they were before `se` read
# the config through AMPConfig and EnsembleSpec
# ---------------------------------------------------------------------------

def _legacy_resolve_kappa(spec):
    if isinstance(spec, str):
        return named_table(spec)
    return CumulantTable.from_json(spec)


def _legacy_read_moments_csv(path):
    report = {"second": {}, "power": {}}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("group,"):
                continue
            group, kind, a, b, mean, se = line.split(",")
            a, b = int(a), int(b)
            mean = float(mean)
            se = float(se) if se else 0.0
            if group == "all":
                target = report
            else:
                r = int(group.replace("block", ""))
                target = report.setdefault("blocks", {}).setdefault(
                    r, {"second": {}, "power": {}})
            target[kind][(a, b)] = (mean, se)
    return report


def _legacy_build_kernel(cfg):
    from test_state_evolution import (_legacy_se_block_goe, _legacy_se_community,
                                      _legacy_se_orthogonal, _legacy_se_punctured)
    a = cfg["amp"]
    fs = [named_polynomial(p) for p in a["nonlinearities"]]
    T = int(a["T"])
    mode = a.get("mode", "scalar_kappa")
    if mode == "scalar_kappa":
        return _legacy_se_orthogonal(fs, _legacy_resolve_kappa(a["kappa"]), T)
    if mode == "punctured_kappa":
        return _legacy_se_punctured(fs, _legacy_resolve_kappa(a["kappa"]), T)
    if mode == "block_goe":
        spec = cfg["ensemble"]
        q = int(spec["q"])
        sigma = np.array(spec["sigma"], dtype=np.float64).reshape(q, q)
        return _legacy_se_block_goe(fs, sigma, q, T)
    if mode == "exact_treelike":
        spec = cfg["ensemble"]
        if spec["kind"] == "community":
            q = int(spec["q"])
            kin = ensembles.community_kappa_table(q, spec.get("inner", "rom"),
                                                  length=max(8, 2 * T))
            return _legacy_se_community(fs, kin, q, T)
        if spec["kind"] in ("goe", "wigner"):
            return _legacy_se_orthogonal(fs, named_table("goe", 2 * T), T)
        if spec["kind"] == "rom":
            return _legacy_se_orthogonal(fs, named_table("rom", 2 * T), T)
        raise ValueError("no SE preset for treelike mode on %r" % spec["kind"])
    raise ValueError("no SE variant for mode %r" % mode)


ROOT = pathlib.Path(__file__).resolve().parent.parent
PRESETS = ["goe_identity", "rom_cubic", "hadamard_punctured", "dst_punctured",
           "blockgoe_q2", "community_q4"]
PRESET_PATHS = ([ROOT / "configs" / ("%s.json" % nm) for nm in PRESETS]
                + [ROOT / "benchmark" / "amp_treelike.json"])


def _kernel_configs():
    cfgs = [json.loads(p.read_text()) for p in PRESET_PATHS]
    fs = ["identity", "cube_hermite", [0.1, 0.5, -0.2], "relu_poly3", "identity"]
    exact = {"nonlinearities": fs, "mode": "exact_treelike", "init": "ones"}
    for kind, T in (("goe", 4), ("wigner", 3), ("rom", 5)):
        cfgs.append({"ensemble": {"kind": kind, "n": 64}, "amp": dict(exact, T=T)})
    for q, inner in ((2, "goe"), (4, "rom"), (2, None)):
        ens = {"kind": "community", "n": 64, "q": q}
        cfgs.append({"ensemble": dict(ens, inner=inner) if inner else ens,
                     "amp": dict(exact, T=5)})
    for q, sigma in ((1, [0.5]), (3, [1.0, 0.0, 0.5, 0.0, 2.0, 0.0, 0.5, 0.0, 0.0])):
        cfgs.append({"ensemble": {"kind": "block_goe", "n": 60, "q": q, "sigma": sigma},
                     "amp": {"nonlinearities": fs, "T": 4, "mode": "block_goe"}})
    kappa = CumulantTable((0.1, 1.2, -0.3, 0.05, 0.0, 0.01, 0.0, 0.002), "cumulants")
    for mode, init in (("scalar_kappa", "ones"), ("punctured_kappa", "gaussian")):
        cfgs.append({"ensemble": {"kind": "hadamard", "n": 64},
                     "amp": {"nonlinearities": fs, "T": 4, "mode": mode,
                             "kappa": {"tag": kappa.tag, "values": list(kappa.values)},
                             "init": init}})
    return cfgs


def test_build_kernel_matches_legacy_bytes():
    from test_state_evolution import _kernel_bytes
    for cfg in _kernel_configs():
        want = _kernel_bytes(_legacy_build_kernel, cfg)
        assert isinstance(want[0], str), (cfg, want)  # a kernel, not an error
        assert _kernel_bytes(build_kernel, cfg) == want, cfg


def test_read_moments_csv_matches_legacy(tmp_path):
    from test_state_evolution import _flatten, _synthetic_states
    paths = [ROOT / "benchmark" / "refs" / "amp_goe" / "seed0" / "moments.csv"]
    for labels in (None, [0, 1] * 100, [2] * 50 + [0] * 150):
        path = tmp_path / ("m%d.csv" % len(paths))
        rep = aggregate_reports(_synthetic_states(3, labels, 0, n=200))
        _write_moments(path, rep)
        assert repr(read_moments_csv(str(path))) == repr(rep)
        paths.append(path)
    for path in paths:
        assert (repr(read_moments_csv(str(path)))
                == repr(_flatten(_legacy_read_moments_csv(path))))


@pytest.mark.parametrize("ensemble, amp", [
    ({"kind": "goe", "n": 64}, {"mode": "scalar_kappa", "kappa": "goe"}),
    ({"kind": "block_goe", "n": 64, "q": 2, "sigma": [1.0, 0.5, 0.5, 1.0]},
     {"mode": "block_goe"})], ids=["goe", "block_goe"])
def test_amp_writes_moments_that_read_back_as_aggregated(tmp_path, monkeypatch, ensemble,
                                                         amp):
    reports = []

    def aggregate(states):
        reports.append(aggregate_reports(states))
        return reports[-1]
    monkeypatch.setattr(se_mod, "aggregate_reports", aggregate)
    cfg = _write_config(tmp_path, ensemble=ensemble, amp=dict(
        amp, nonlinearities=["identity", "square_centered"], T=2))
    assert run_cli("amp", "--config", cfg, "--no-save-traces") == 0
    assert len(reports) == 1
    assert any(group != "all" for group, _, _, _ in reports[0]) == ("q" in ensemble)
    assert (repr(read_moments_csv(str(tmp_path / "out" / "moments.csv")))
            == repr(reports[0]))


@pytest.mark.parametrize("amp, message", [
    ({"init": "zeros"}, "unknown init 'zeros'"),
    ({"mode": "exact_treelike", "nonlinearities": ["identity"] * 8, "T": 8},
     "T <= 7"),
    ({"mode": "exact_treelike", "init": "gaussian"}, "init must be"),
    ({"kappa": None}, "scalar modes need a cumulant table"),
    ({"mode": "punctured_kappa", "kappa": None, "init": "gaussian"},
     "scalar modes need a cumulant table"),
    ({"mode": "punctured_kappa"}, "requires gaussian init"),
    ({"mode": "punctured_kappa", "init": "gaussian",
      "nonlinearities": ["cube_hermite", "identity"]}, "requires f_0(x) = x"),
    ({"mode": "bogus"}, "unknown mode 'bogus'"),
    ({"T": 3}, "need f_0..f_{T-1}"),
    ({"T": 0}, "T must be >= 1"),
    ({"kappa": {"tag": "moments", "values": [0.0, 1.0, 0.0, 2.0]}},
     "scalar modes need a cumulant table"),
    ({"kappa": {"tag": "cumulants"}},
     "config key 'kappa' in section 'amp' has no key 'values'"),
    ({"kappa": {"values": [0.0, 1.0]}}, "config key 'kappa' in section 'amp' has no key 'tag'"),
    ({"kappa": {"tag": "cumulants", "values": [0, 1, 0, 0], "valeus": [9]}},
     "config key 'kappa' in section 'amp' has unknown key 'valeus'"),
    ({"mode": "exact_treelike", "kappa": "rom"}, "exact_treelike mode does not read kappa"),
    ({"mode": "block_goe", "kappa": {"tag": "cumulants", "values": [0.0, 1.0]},
      "ensemble": {"kind": "block_goe", "n": 32, "q": 2, "sigma": [1.0, 0.5, 0.5, 1.0]}},
     "block_goe mode does not read kappa"),
    ({"kappa": {"tag": "cumulants", "values": [0.0, 1.0, 0.0]}},
     "kappa table must cover order 2T"),
    ({"T": 10 ** 9}, "need f_0..f_{T-1}"),  # before any table of order 2T is built
])
def test_se_and_amp_reject_the_same_amp_sections(tmp_path, capsys, amp, message):
    base = {"nonlinearities": ["identity", "identity"], "T": 2,
            "mode": "scalar_kappa", "kappa": "goe", "init": "ones"}
    section = {k: v for k, v in dict(base, **amp).items() if v is not None}
    # a case may carry its ensemble section along
    ensemble = section.pop("ensemble", {"kind": "goe", "n": 32})
    cfg = _write_config(tmp_path, ensemble=ensemble, amp=section)
    errors = []
    for argv in (["amp", "--no-save-traces"], ["se", "--out", str(tmp_path / "k.json")]):
        assert run_cli(*argv, "--config", cfg) == 2, argv
        errors.append(capsys.readouterr().err)
    assert message in errors[0]
    assert errors[0] == errors[1]


def test_se_on_a_one_entry_kappa_table_is_a_usage_error(tmp_path, capsys):
    # the table's length is checked before kappa_2 is read: exit 2, not an IndexError
    cfg = _write_config(tmp_path, amp={
        "nonlinearities": ["identity"], "T": 1, "mode": "scalar_kappa", "init": "ones",
        "kappa": {"tag": "cumulants", "values": [0.0]}})
    assert run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json")) == 2
    assert "kappa table must cover order 2T" in capsys.readouterr().err
    assert not (tmp_path / "k.json").exists()


def test_se_reads_no_memory_bound(tmp_path):
    # the SE kernel depends on neither n nor the host: an exact config at any n
    cfg = _write_config(tmp_path, ensemble={"kind": "goe", "n": 2048}, amp={
        "nonlinearities": ["identity"] * 3, "T": 3, "mode": "exact_treelike"})
    assert run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json")) == 0


@pytest.mark.parametrize("ensemble, amp, gamma", [
    ({"kind": "goe", "n": 64}, {"mode": "scalar_kappa", "kappa": "goe"}, [2.0, 0.0, 0.0, 2.0]),
    ({"kind": "block_goe", "n": 64, "q": 2, "sigma": [1.0, 0.5, 0.5, 1.0]},
     {"mode": "block_goe"}, [1.5, 0.0, 0.0, 1.125])], ids=["scalar_kappa", "block_goe"])
def test_se_predicts_a_gaussian_start_outside_punctured_mode(tmp_path, ensemble, amp, gamma):
    # f_0 = x^2 - 1 from X_0 ~ N(0, 1) gives E f_0^2 = 2; from x_0 = 1 it is 0
    cfg = _write_config(tmp_path, ensemble=ensemble, amp=dict(
        amp, nonlinearities=["square_centered", "identity"], T=2, init="gaussian"))
    assert run_cli("amp", "--config", cfg, "--no-save-traces") == 0
    assert run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json")) == 0
    kernel = json.loads((tmp_path / "k.json").read_text())
    assert kernel["gammas"] == [gamma] * len(kernel["weights"])


@pytest.mark.parametrize("mode", ["scalar_kappa", "punctured_kappa", "block_goe"])
@pytest.mark.parametrize("init", ["ones", "gaussian"])
def test_se_predicts_every_scalar_and_block_config_that_amp_runs(tmp_path, mode, init):
    # every kind in the scalar modes, which read no kind; block_goe mode's SE
    # preset is for the block_goe kind
    kinds = ["block_goe"] if mode == "block_goe" else ensembles.KINDS
    ran = []
    for kind in kinds:
        cfg = _write_config(
            tmp_path, ensemble={"kind": kind, "n": 64, **KIND_FIELDS.get(kind, {})},
            amp={"nonlinearities": ["identity", "square_centered", "cube_hermite"], "T": 3,
                 "mode": mode, "init": init, **({} if mode == "block_goe" else {"kappa": "rom"})},
            trials=2)
        if run_cli("amp", "--config", cfg, "--no-save-traces") == 0:
            ran.append(kind)
            assert run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json")) == 0, kind
    # AMPConfig rejects only a punctured run from x_0 = 1
    assert ran == ([] if (mode, init) == ("punctured_kappa", "ones") else list(kinds))


@pytest.mark.parametrize("kappa", ["goe", "rom"])
def test_named_kappa_tables_reach_order_2T(tmp_path, kappa):
    # a named table is built to order 2T when that is past its default 8
    cfg = _write_config(tmp_path, ensemble={"kind": "goe", "n": 64}, trials=2, amp={
        "nonlinearities": ["identity"] * 5, "T": 5, "mode": "scalar_kappa", "kappa": kappa,
        "init": "ones"})
    assert run_cli("amp", "--config", cfg, "--no-save-traces") == 0
    assert run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json")) == 0


@pytest.mark.parametrize("ensemble, amp, seed", [
    ({"kind": "goe", "n": 1024},
     {"nonlinearities": [[0.0, 1.0, 0.3], "relu_poly3", [0.0, 0.7, 0.2], [0.0, 0.5, 0.0, 0.1]],
      "T": 4, "mode": "scalar_kappa", "kappa": "goe"}, 11),
    ({"kind": "block_goe", "n": 2048, "q": 2, "sigma": [1.0, 0.5, 0.5, 1.0]},
     {"nonlinearities": ["square_centered", "identity", "square_centered"], "T": 3,
      "mode": "block_goe"}, 14)], ids=["goe", "block_goe"])
def test_gaussian_start_passes_compare_and_fails_against_the_ones_kernel(
        tmp_path, capsys, ensemble, amp, seed):
    # amp -> se -> compare from x_0 ~ N(0, 1); the kernel from x_0 = 1 is the
    # negative control on the same moments
    cfg = _write_config(tmp_path, ensemble=ensemble, amp=dict(amp, init="gaussian"),
                        trials=20, master_seed=seed)
    moments = str(tmp_path / "out" / "moments.csv")
    assert run_cli("--threads", "2", "amp", "--config", cfg, "--no-save-traces") == 0
    verdicts = []
    for init, code in (("gaussian", 0), ("ones", 1)):
        sub = tmp_path / init
        sub.mkdir()
        kcfg = _write_config(sub, ensemble=ensemble, amp=dict(amp, init=init))
        assert run_cli("se", "--config", kcfg, "--out", str(sub / "kernel.json")) == 0
        capsys.readouterr()
        assert run_cli("compare", "--kernel", str(sub / "kernel.json"), "--threshold", "4",
                       "--moments", moments, "--out", str(sub / "verdict.csv")) == code
        verdicts.append(capsys.readouterr().out)
    assert "; PASS (worst z" in verdicts[0]
    assert "; FAIL (worst z" in verdicts[1]


@pytest.mark.parametrize("command", ["traffic", "cactus-audit"])
def test_rooted_diagrams_are_rejected_before_building_a_matrix(tmp_path, monkeypatch,
                                                               capsys, command):
    calls = _record_generated_kinds(monkeypatch)
    rooted = "diagram{v=2; roots=[0]; edges=[(0,1),(0,1)]}"
    cfg = _write_config(tmp_path, diagrams=["cycle2", rooted], dimension_sweep=[64])
    assert run_cli(command, "--config", cfg) == 2
    assert "diagram %r has roots" % rooted in capsys.readouterr().err
    assert calls == []


def test_exact_mode_on_block_goe_passes_compare_against_se_block_goe(tmp_path, capsys):
    # the exact Onsager term converges to the block-GOE memory term (A o A) f'
    cfg = _write_config(
        tmp_path, ensemble={"kind": "block_goe", "n": 1024, "q": 2,
                            "sigma": [1.0, 0.5, 0.5, 1.0]},
        amp={"nonlinearities": ["identity", "square_centered", "square_centered"],
             "T": 3, "mode": "exact_treelike", "init": "ones"},
        trials=20, master_seed=300)
    out = tmp_path / "out"
    assert run_cli("--threads", "2", "amp", "--config", cfg, "--no-save-traces") == 0
    assert run_cli("se", "--config", cfg) == 0
    assert json.loads((out / "kernel.json").read_text())["variant"] == "block_goe"
    assert run_cli("compare", "--kernel", str(out / "kernel.json"), "--threshold", "4",
                   "--moments", str(out / "moments.csv"),
                   "--out", str(out / "verdict.csv")) == 0
    assert "; PASS (worst z" in capsys.readouterr().out


# the kinds that exact mode has an SE preset for, and the fields other kinds need
EXACT_SE_KINDS = {"goe", "wigner", "rom", "orth_invariant", "community", "block_goe"}
KIND_FIELDS = {"punctured": {"inner": "rom"}, "community": {"q": 2},
           "block_goe": {"q": 2, "sigma": [1.0, 0.5, 0.5, 1.0]}}


@pytest.mark.parametrize("kind", ensembles.KINDS)
def test_se_in_exact_mode_has_a_preset_only_for_its_rows(tmp_path, capsys, kind):
    cfg = _write_config(tmp_path, ensemble={"kind": kind, "n": 64, **KIND_FIELDS.get(kind, {})},
                        amp={"nonlinearities": ["identity"] * 2, "T": 2,
                             "mode": "exact_treelike"})
    code = run_cli("se", "--config", cfg, "--out", str(tmp_path / "k.json"))
    if kind in EXACT_SE_KINDS:
        assert code == 0
    else:
        assert code == 2
        assert "no SE preset for treelike mode on %r" % kind in capsys.readouterr().err


@pytest.mark.parametrize("ensemble, twin", [
    ({"kind": "r_rom"}, {"kind": "punctured", "inner": "rom"}),
    ({"kind": "rom"}, {"kind": "orth_invariant"}),
])
def test_kinds_that_generate_the_same_matrices_get_the_same_limit_law(tmp_path, ensemble,
                                                                      twin):
    # traffic targets and the exact-mode SE kernel, apart from the config hash
    outputs = []
    for i, ens in enumerate((ensemble, twin)):
        (tmp_path / str(i)).mkdir()
        cfg = _write_config(tmp_path / str(i), ensemble=dict(ens, n=64), trials=3,
                            diagrams=["cycle2", "cycle4", "theta", "star3"],
                            amp={"nonlinearities": ["identity"] * 3, "T": 3,
                                 "mode": "exact_treelike"})
        out = tmp_path / str(i) / "out"
        assert run_cli("traffic", "--config", cfg) == 0
        code = run_cli("se", "--config", cfg, "--out", str(out / "k.json"))
        kernel = json.loads((out / "k.json").read_text()) if code == 0 else {}
        kernel.pop("config_hash", None)
        outputs.append(((out / "traffic.csv").read_text().split("\n", 1)[1], code, kernel))
    assert outputs[0] == outputs[1]
    rows = list(csv.DictReader(outputs[0][0].splitlines()))
    assert [r["target"] for r in rows if r["diagram"] == "cycle4"] == ["1.0", "-1.0"]
    assert outputs[0][1] == (0 if ensemble["kind"] == "rom" else 2)


def test_cactus_targets_cover_cycles_longer_than_eight():
    # a 10-cycle's targets are m_10 and kappa_10 of the limit law: Cat(5) and 0
    # for the semicircle, 1 and (-1)^4 Cat(4) for the Rademacher law
    ten = cycle_diagram(10)
    assert _analytic_targets(ensembles.EnsembleSpec("goe", 64), ten) == (42.0, 0.0)
    assert _analytic_targets(ensembles.EnsembleSpec("rom", 64), ten) == (1.0, 14.0)


def test_gen_and_configs_reject_haar_orthogonal(tmp_path, monkeypatch, capsys):
    # the kind is gone: a Haar draw is only a building block of the conjugated kinds
    calls = _record_generated_kinds(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--kind", "haar_orthogonal", "--n", "8")
    assert exc.value.code == 2
    cfg = _write_config(tmp_path, ensemble={"kind": "haar_orthogonal", "n": 64})
    for command in ("amp", "traffic", "cactus-audit", "se"):
        assert run_cli(command, "--config", cfg) == 2, command
        assert "unknown ensemble kind 'haar_orthogonal'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("ensemble, field", [
    ({"kind": "goe", "n": 64, "entry_law": "rademacher"}, "entry_law"),
    ({"kind": "goe", "n": 64, "q": 2}, "q"),
    ({"kind": "community", "n": 64, "q": 2, "sigma": [1, 1, 1, 1]}, "sigma"),
    ({"kind": "punctured", "n": 64, "inner": "goe", "eigenvalues": "uniform"},
     "eigenvalues"),
    ({"kind": "community", "n": 64, "q": 2, "inner": "wigner"}, "inner"),
    ({"kind": "goe", "n": 0}, "n"),
    ({"kind": "wigner", "n": 64, "entry_law": "bogus"}, "entry_law"),
    ({"kind": "orth_invariant", "n": 64, "eigenvalues": "bogus"}, "eigenvalues"),
])
def test_ensemble_fields_the_kind_does_not_read_are_usage_errors(tmp_path, capsys,
                                                                 ensemble, field):
    cfg = _write_config(tmp_path, ensemble=ensemble)
    for argv in (["amp", "--no-save-traces"], ["se", "--out", str(tmp_path / "k.json")],
                 ["traffic"]):
        assert run_cli(*argv, "--config", cfg) == 2, argv
        assert "ensemble field %r" % field in capsys.readouterr().err, argv


@pytest.mark.parametrize("ensemble, mode", [
    ({"kind": "community", "n": 8, "q": -2}, "exact_treelike"),
    ({"kind": "block_goe", "n": 8, "q": -2, "sigma": [1.0, 0.5, 0.5, 1.0]}, "block_goe"),
    ({"kind": "block_goe", "n": 8, "q": -2, "sigma": [1.0, 0.5, 0.5, 1.0]},
     "exact_treelike"),
    ({"kind": "community", "n": 8, "q": 0}, "exact_treelike"),
    ({"kind": "community", "n": 8, "q": 3}, "exact_treelike"),
])
def test_block_kinds_need_a_positive_q_dividing_n(tmp_path, monkeypatch, capsys,
                                                  ensemble, mode):
    calls = _record_generated_kinds(monkeypatch)
    message = "ensemble field 'q' must be a positive divisor of n, not %d" % ensemble["q"]
    cfg = _write_config(tmp_path, ensemble=ensemble, amp={
        "nonlinearities": ["identity"] * 2, "T": 2, "mode": mode})
    for argv in (["amp", "--no-save-traces"], ["se", "--out", str(tmp_path / "k.json")]):
        assert run_cli(*argv, "--config", cfg) == 2, argv
        assert message in capsys.readouterr().err, argv
    gen = ["gen", "--kind", ensemble["kind"], "--n", "8", "--q", str(ensemble["q"]),
           "--out", str(tmp_path / "m.tamp")]
    if "sigma" in ensemble:
        gen += ["--sigma", ",".join(map(str, ensemble["sigma"]))]
    assert run_cli(*gen) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "m.tamp").exists()


@pytest.mark.parametrize("sigma", [None, [1.0], [1.0, 0.5, 0.5, 1.0, 0.0]])
def test_block_goe_without_q_squared_sigma_names_the_key(tmp_path, capsys, sigma):
    ensemble = {"kind": "block_goe", "n": 64, "q": 2}
    if sigma is not None:
        ensemble["sigma"] = sigma
    cfg = _write_config(tmp_path, ensemble=ensemble, amp={
        "nonlinearities": ["identity"] * 2, "T": 2, "mode": "block_goe"})
    for argv in (["amp", "--no-save-traces"], ["se", "--out", str(tmp_path / "k.json")]):
        assert run_cli(*argv, "--config", cfg) == 2, argv
        assert "block_goe needs sigma with q*q = 4 entries" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("amp", "T", 2.7), ("amp", "T", "2"), ("ensemble", "n", 64.9),
    ("ensemble", "n", True), ("ensemble", "q", 2.0), ("ensemble", "q", "2"),
    (None, "master_seed", 1.5), (None, "master_seed", False),
    (None, "dimension_sweep", [32, "64"]), (None, "dimension_sweep", [32.0]),
])
def test_integer_config_fields_reject_other_types(tmp_path, capsys, section, key, value):
    cfg = json.loads(open(_write_config(tmp_path)).read())
    (cfg if section is None else cfg[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="config key %r.* must be an integer" % key):
        load_config(str(path))
    for command in ("traffic", "amp", "se"):
        assert run_cli(command, "--config", str(path)) == 2
        assert repr(key) in capsys.readouterr().err


def test_compare_on_a_kernel_that_does_not_fit_is_usage_error(tmp_path, capsys):
    # a T = 3 mixture kernel against T = 4 moments without blocks
    kernel = tmp_path / "k.json"
    assert run_cli("se", "--config", str(ROOT / "configs" / "blockgoe_q2.json"),
                   "--out", str(kernel)) == 0
    moments = ROOT / "benchmark" / "refs" / "amp_goe" / "seed0" / "moments.csv"
    assert run_cli("compare", "--kernel", str(kernel), "--moments", str(moments),
                   "--out", str(tmp_path / "v.csv")) == 2
    assert "x1*x4 of group all is outside the kernel's T = 3" in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()


# (workload, output sub-directory, config) of the benchmark's AMP pipelines
BENCHMARK_PIPELINES = [
    ("amp_goe", "", "configs/goe_identity.json"),
    ("amp_fourier", "hadamard", "configs/hadamard_punctured.json"),
    ("amp_fourier", "dst", "configs/dst_punctured.json"),
    ("amp_treelike", "", "benchmark/amp_treelike.json"),
]


@pytest.mark.parametrize("workload, sub, config", BENCHMARK_PIPELINES)
def test_se_and_compare_reproduce_benchmark_references(tmp_path, workload, sub, config):
    refs = ROOT / "benchmark" / "refs" / workload
    kernel = tmp_path / "kernel.json"
    assert run_cli("se", "--config", str(ROOT / config), "--out", str(kernel)) == 0
    assert kernel.read_bytes() == (refs / "seed0" / sub / "kernel.json").read_bytes()
    prefix = sub + "/" if sub else ""
    for seed in range(11):
        ref = refs / ("seed%d" % seed) / sub
        verdict = tmp_path / ("verdict%d.csv" % seed)
        code = run_cli("compare", "--kernel", str(ref / "kernel.json"),
                       "--moments", str(ref / "moments.csv"), "--out", str(verdict))
        codes = json.loads((refs / ("seed%d" % seed) / "exit_codes.json").read_text())
        assert code == codes[prefix + "compare"], seed
        assert verdict.read_bytes() == (ref / "verdict.csv").read_bytes(), seed
