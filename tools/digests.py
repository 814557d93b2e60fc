"""Digests of every output the CLI writes for the preset configs.

Usage, from the root of a checkout:

    python3 tools/digests.py           # run everything, write tools/digests.json
    python3 tools/digests.py --check   # run everything, compare with it

For each config in CONFIGS (the six presets and the benchmark's exact-mode
config) and each --threads value in THREADS, it runs amp, se, compare, traffic
and cactus-audit, each in a fresh interpreter with one BLAS thread, into a
temporary directory.  The manifest holds the exit code of each command and the
sha256 of each file written, and for each CSV or JSON output a short hash of
every cell or leaf, so that --check can name the first CSV cell or JSON key
that differs.  Outputs are deterministic for a fixed seed only on one platform:
--check reports "platform differs" when numpy, its BLAS or the CPU is not the
one the manifest was written on.  --check exits 0 when every exit code and file
matches, 1 when one does not.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tools", "digests.json")
CONFIGS = ("configs/goe_identity.json", "configs/rom_cubic.json",
           "configs/hadamard_punctured.json", "configs/dst_punctured.json",
           "configs/blockgoe_q2.json", "configs/community_q4.json",
           "benchmark/amp_treelike.json")
THREADS = (1, 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CELL_HASH = 8  # hex digits kept per cell or leaf


def commands(config, out, threads):
    """(name, CLI argv) of each command run on `config`, writing under `out`."""
    glob = ["--threads", str(threads)]
    return [("amp", ["amp", "--config", config, "--out", os.path.join(out, "amp")] + glob),
            ("se", ["se", "--config", config, "--out", os.path.join(out, "kernel.json")] + glob),
            ("compare", ["compare", "--kernel", os.path.join(out, "kernel.json"),
                         "--moments", os.path.join(out, "amp", "moments.csv"),
                         "--out", os.path.join(out, "verdict.csv")] + glob),
            ("traffic", ["traffic", "--config", config,
                         "--out", os.path.join(out, "traffic")] + glob),
            ("cactus-audit", ["cactus-audit", "--config", config,
                              "--out", os.path.join(out, "cactus-audit")] + glob)]


def run_key(config, threads):
    return "%s --threads %d" % (os.path.splitext(os.path.basename(config))[0], threads)


def platform_info():
    """What the output bytes may depend on besides the source: numpy, its BLAS
    and the CPU (the BLAS and numpy pick kernels by CPU features)."""
    import numpy as np
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    simd = config.get("SIMD Extensions", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "cpu": cpu, "simd": sorted(simd.get("found", []))}


def _short(text):
    return hashlib.sha256(text.encode()).hexdigest()[:CELL_HASH]


def cells(path):
    """Per-cell hashes of a CSV (one string per row) or per-leaf hashes of a
    JSON file (key path -> hash); None for any other file."""
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            return [" ".join(_short(c) for c in row) for row in csv.reader(fh)]
    if path.endswith(".json"):
        with open(path) as fh:
            leaves = {}
            _flatten(json.load(fh), "", leaves)
        return leaves
    return None


def _flatten(obj, prefix, leaves):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, "%s.%s" % (prefix, k) if prefix else str(k), leaves)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, v in enumerate(obj):
            _flatten(v, "%s[%d]" % (prefix, i), leaves)
    else:
        leaves[prefix] = _short(json.dumps(obj))


def run_all(work, configs=CONFIGS, threads=THREADS):
    """Run every command; returns (runs, cells) in the manifest's layout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    env.update({var: "1" for var in BLAS_VARS})
    runs, details = {}, {}
    for config in configs:
        for t in threads:
            key = run_key(config, t)
            out = os.path.join(work, key.replace(" ", "_"))
            os.makedirs(out)
            codes = {}
            for name, argv in commands(os.path.join(ROOT, config), out, t):
                proc = subprocess.run([sys.executable, "-m", "trafficamp.cli"] + argv,
                                      env=env, cwd=ROOT, capture_output=True, text=True)
                codes[name] = proc.returncode
            files = {}
            for dirpath, _, names in os.walk(out):
                for nm in names:
                    path = os.path.join(dirpath, nm)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    files[os.path.relpath(path, out)] = digest
                    detail = cells(path)
                    if detail is not None:
                        details[digest] = detail
            runs[key] = {"exit": codes, "files": dict(sorted(files.items()))}
            print("%s: exit codes %s, %d files" % (key, codes, len(files)), flush=True)
    return runs, details


def first_difference(path, old, new):
    """Where the CSV or JSON file at `path`, with cells `new`, first differs
    from the manifest's cells `old`."""
    if isinstance(old, dict):
        key = next(k for k in list(old) + list(new) if old.get(k) != new.get(k))
        return "key %s" % key
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    header = next((cols for cols in lines if not cols[0].startswith("#")), [])
    for i in range(max(len(old), len(new))):
        a = old[i].split() if i < len(old) else []
        b = new[i].split() if i < len(new) else []
        if a != b:
            col = next(j for j in range(max(len(a), len(b))) if a[j:j + 1] != b[j:j + 1])
            here = lines[i][col] if i < len(lines) and col < len(lines[i]) else None
            return "line %d, column %s (%r here)" % (
                i + 1, header[col] if col < len(header) else col + 1, here)
    return "no cell"


def check(manifest, runs, details, work):
    """Lines naming each difference between the manifest and this run."""
    problems = []
    for key, want in manifest["runs"].items():
        got = runs.get(key)
        if got is None:
            problems.append("%s: not run" % key)
            continue
        for name, code in want["exit"].items():
            if got["exit"].get(name) != code:
                problems.append("%s: %s exited %s, manifest has %s"
                                % (key, name, got["exit"].get(name), code))
        for path in sorted(set(want["files"]) | set(got["files"])):
            a, b = want["files"].get(path), got["files"].get(path)
            if a == b:
                continue
            if a is None or b is None:
                problems.append("%s: %s %s" % (key, path, "not in the manifest"
                                               if a is None else "not written"))
                continue
            old, new = manifest["cells"].get(a), details.get(b)
            where = ("differs at " + first_difference(
                os.path.join(work, key.replace(" ", "_"), path), old, new)
                if old is not None and new is not None else "differs")
            problems.append("%s: %s %s" % (key, path, where))
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--check", action="store_true",
                   help="compare with the manifest instead of writing it")
    p.add_argument("--manifest", default=MANIFEST)
    p.add_argument("--keep", default=None,
                   help="directory to run in and keep (default: a temporary one)")
    args = p.parse_args(argv)
    work = args.keep or tempfile.mkdtemp(prefix="digests-")
    try:
        runs, details = run_all(work)
        here = platform_info()
        if not args.check:
            with open(args.manifest, "w") as fh:
                json.dump({"platform": here, "runs": runs, "cells": dict(sorted(details.items()))},
                          fh, indent=1)
                fh.write("\n")
            print("wrote %s" % args.manifest)
            return 0
        with open(args.manifest) as fh:
            manifest = json.load(fh)
        problems = check(manifest, runs, details, work)
        for line in problems:
            print(line)
        if manifest["platform"] != here:
            print("platform differs: %s" % ", ".join(
                "%s %r here, %r in the manifest" % (k, here.get(k), manifest["platform"].get(k))
                for k in sorted(set(here) | set(manifest["platform"]))
                if here.get(k) != manifest["platform"].get(k)))
        print("%d differences" % len(problems) if problems else "all outputs identical")
        return 1 if problems else 0
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
