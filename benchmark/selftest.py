"""Self-tests of the benchmark itself.  Run from the root of the checkout:

    python3 benchmark/selftest.py        (or: python3 -m pytest benchmark/selftest.py)

They check that tracing leaves every output byte-identical, that the span
wrappers restore every binding they patch, that a corrupted reference is
caught, and that BENCHMARK.json names exactly the metrics the runs print.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import checks
import run
import tracer
import workloads


def _tmpdir():
    os.makedirs(run.TMP_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_DIR)


def _small_configs(tmp):
    """Each workload's pipelines on small matrices and two trials."""
    small = {}
    for workload, pipelines in workloads.PIPELINES.items():
        small[workload] = []
        for sub, path in pipelines:
            with open(path) as fh:
                cfg = json.load(fh)
            cfg["ensemble"]["n"] = 64
            cfg["trials"] = 2
            if "dimension_sweep" in cfg:
                cfg["dimension_sweep"] = [16, 32]
            out = os.path.join(tmp, "%s-%s.json" % (workload, sub or "main"))
            with open(out, "w") as fh:
                json.dump(cfg, fh)
            small[workload].append((sub, out))
    return small


def test_traced_outputs_are_byte_identical():
    tmp = _tmpdir()
    saved = dict(workloads.PIPELINES)
    try:
        workloads.PIPELINES.update(_small_configs(tmp))
        deadline = time.monotonic() + 120
        for workload in workloads.NAMES:
            digests = []
            for trace in (False, True):
                tag = "%s-%d" % (workload, trace)
                out, spec = run.pipeline_spec(workload, 3, tmp, tag, trace=trace)
                result = run.run_child(spec, tmp, tag, deadline)
                assert all(c["code"] in (0, 1) for c in result["calls"]), result["calls"]
                digests.append(checks.digest(out))
            assert result["restored"] and result["spans"], workload
            assert digests[0] == digests[1], workload
    finally:
        workloads.PIPELINES.clear()
        workloads.PIPELINES.update(saved)
        shutil.rmtree(tmp, ignore_errors=True)


def _bindings():
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if name == "trafficamp" or name.startswith("trafficamp.")
            for attr, obj in vars(mod).items() if callable(obj)}


def test_wrappers_restore_every_binding():
    if "src" not in sys.path:
        sys.path.insert(0, "src")
    import trafficamp.cli  # noqa: F401  (loads every layer)
    before = _bindings()
    patched = tracer.install(tracer.Tracer())
    try:
        names = {(mod.__name__, attr) for mod, attr, _ in patched}
        for binding in [("trafficamp.graphpoly", "quotient"), ("trafficamp.amp", "quotient"),
                        ("trafficamp.amp", "set_partitions"),
                        ("trafficamp.cli", "cactus_traffic_value"),
                        ("trafficamp.graphpoly", "eval_w"), ("trafficamp.ensembles", "generate"),
                        ("trafficamp", "eval_w")]:
            assert binding in names, binding
        assert all(_bindings()[key] is not before[key] for key in names)
    finally:
        tracer.uninstall(patched)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.all_restored(patched)


def _reference_case(workload, seed):
    ref = workloads.reference_dir(workload, seed)
    assert ref is not None, "no references for %s seed %d" % (workload, seed)
    with open(os.path.join(ref, "exit_codes.json")) as fh:
        codes = json.load(fh)
    calls = workloads.calls(workload, seed, "unused")
    results = [{"label": c["label"], "code": codes[c["label"]], "error": None}
               for c in calls]
    return ref, calls, results


def _nudge(path):
    """Scale the last nonzero number of a CSV or JSON file by 1 + 1e-9."""
    if path.endswith(".json"):
        with open(path) as fh:
            obj = json.load(fh)
        flat = obj["gammas"][0]
        i = max(k for k, x in enumerate(flat) if x)
        flat[i] *= 1 + 1e-9
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return
    rows = checks._csv_cells(path)
    row = rows[-1]
    c = max(k for k, x in enumerate(row) if checks._number(x))
    row[c] = repr(float(row[c]) * (1 + 1e-9))
    with open(path, "w") as fh:
        fh.write("".join(",".join(r) + "\n" for r in rows))


def test_corrupted_reference_is_caught():
    tmp = _tmpdir()
    try:
        for workload, name in (("traffic_goe", "traffic.csv"),
                               ("amp_goe", "moments.csv"), ("amp_goe", "kernel.json")):
            seed = workloads.DEFAULT_SEED
            ref, calls, results = _reference_case(workload, seed)
            out = os.path.join(tmp, workload + "-out")
            bad = os.path.join(tmp, workload + "-bad")
            for path in (out, bad):
                shutil.rmtree(path, ignore_errors=True)
                shutil.copytree(ref, path)
            if workload.startswith("amp"):  # the trial count reads moments.json
                with open(os.path.join(out, "moments.json"), "w") as fh:
                    json.dump({"divergences": []}, fh)
            # the outputs are the references themselves, so nothing fails ...
            clean = checks.check_run(workload, out, calls, results, ref)
            assert clean.failed == 0, clean.problems
            # ... until one number in a reference moves by 1e-9, relative
            _nudge(os.path.join(bad, name))
            tally = checks.check_run(workload, out, calls, results, bad)
            assert tally.failed / tally.attempted > 0, (workload, name)
            assert any(name in p for p in tally.problems), tally.problems
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_benchmark_json_names_every_metric():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]} == set(
        tracer.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("PASS", name)
