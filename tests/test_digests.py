"""The output manifest of tools/digests.py covers every file the presets write."""

import importlib.util
import json
import os

import pytest

from trafficamp.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "digests", os.path.join(ROOT, "tools", "digests.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


digests = _tool()
with open(digests.MANIFEST) as _fh:
    MANIFEST = json.load(_fh)


def test_manifest_has_every_config_and_thread_count():
    assert set(MANIFEST["runs"]) == {digests.run_key(c, t) for c in digests.CONFIGS
                                     for t in digests.THREADS}
    for run in MANIFEST["runs"].values():
        assert set(run["exit"]) == {"amp", "se", "compare", "traffic", "cactus-audit"}
        for digest in run["files"].values():
            assert len(digest) == 64
    # every output has the same bytes at --threads 1 and 2
    for config in digests.CONFIGS:
        runs = [MANIFEST["runs"][digests.run_key(config, t)] for t in digests.THREADS]
        assert all(r == runs[0] for r in runs)


@pytest.mark.parametrize("config", digests.CONFIGS)
def test_manifest_names_every_file_a_preset_writes(tmp_path, config):
    # the preset at a small n writes the files it writes at full size
    with open(os.path.join(ROOT, config)) as fh:
        cfg = json.load(fh)
    cfg["ensemble"]["n"] = 64
    if "dimension_sweep" in cfg:
        cfg["dimension_sweep"] = [32, 64]
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for _, argv in digests.commands(str(path), str(out), 1):
        main(argv)
    written = {os.path.relpath(os.path.join(d, nm), out)
               for d, _, names in os.walk(out) for nm in names}
    named = MANIFEST["runs"][digests.run_key(config, 1)]["files"]
    assert written and written <= set(named), sorted(written - set(named))


def test_check_names_the_first_differing_cell_and_key(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("# config-hash: abc\nn,diagram,mean\n64,cycle2,1.0\n64,cycle4,2.0\n")
    old = digests.cells(str(csv))
    csv.write_text("# config-hash: abc\nn,diagram,mean\n64,cycle2,1.0\n64,cycle4,2.5\n")
    assert (digests.first_difference(str(csv), old, digests.cells(str(csv)))
            == "line 4, column mean ('2.5' here)")
    # a quoted cell holding commas, as an inline diagram literal is written
    literal = '"diagram{v=2; roots=[]; edges=[(0,1),(0,1)]}"'
    csv.write_text("# config-hash: abc\nn,diagram,mean\n64,%s,1.0\n" % literal)
    old = digests.cells(str(csv))
    csv.write_text("# config-hash: abc\nn,diagram,mean\n64,%s,1.5\n" % literal)
    assert (digests.first_difference(str(csv), old, digests.cells(str(csv)))
            == "line 3, column mean ('1.5' here)")
    js = tmp_path / "k.json"
    js.write_text(json.dumps({"T": 2, "gamma": [[1.0, 0.5], [0.5, 1.0]], "moments": [
        {"group": "all", "mean": 1.0}]}))
    old = digests.cells(str(js))
    js.write_text(json.dumps({"T": 2, "gamma": [[1.0, 0.5], [0.5, 1.0]], "moments": [
        {"group": "all", "mean": 1.5}]}))
    assert digests.first_difference(str(js), old, digests.cells(str(js))) == "key moments[0].mean"
