"""The benchmark's workloads: which CLI calls each one makes, on which configs,
and which of their outputs are checked against stored references.

Paths are relative to the root of the checkout the benchmark runs in.
"""

import json
import os

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
TREELIKE_CONFIG = os.path.join(BENCH_DIR, "amp_treelike.json")

DEFAULT_SEED = 1
THREADS = "1"  # the CLI's --threads, fixed for every call

# per-file relative tolerance of the reference check (the ROADMAP gates)
AMP_FILES = {"moments.csv": 1e-10, "kernel.json": 1e-10, "verdict.csv": 1e-10}
TRAFFIC_FILES = {"traffic.csv": 1e-12, "cactus_audit.csv": 1e-12,
                 "delocalization.csv": 1e-12}

# exit codes accepted where no reference exists; compare's 1 is a FAIL
# verdict of the z-gate, reported as it is rather than counted as a failure
ACCEPTED_CODES = {"amp": (0,), "se": (0,), "compare": (0, 1),
                  "traffic": (0,), "cactus-audit": (0,)}

# (sub-directory of the outputs, config) per pipeline
PIPELINES = {
    "amp_goe": [("", "configs/goe_identity.json")],
    "amp_fourier": [("hadamard", "configs/hadamard_punctured.json"),
                    ("dst", "configs/dst_punctured.json")],
    "traffic_goe": [("", "configs/goe_identity.json")],
    "amp_treelike": [("", TREELIKE_CONFIG)],
}
NAMES = tuple(PIPELINES)


def configs(workload):
    return [cfg for _, cfg in PIPELINES[workload]]


def _per_trial_matrices(cfg_path, command):
    """Matrices one per-trial command carries through (all trials, all sizes)."""
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    trials = int(cfg.get("trials", 1))
    if command == "amp":
        return trials
    return trials * len(cfg.get("dimension_sweep") or [cfg["ensemble"]["n"]])


def calls(workload, seed, out):
    """The CLI calls of one pipeline run, in order.

    Each call is a dict: label, command, argv (for trafficamp.cli.main), the
    output sub-directory it writes, and the matrices it carries through when
    it is a per-trial command (else 0).
    """
    seed = str(seed)
    result = []
    for sub, cfg in PIPELINES[workload]:
        o = os.path.join(out, sub) if sub else out
        prefix = sub + "/" if sub else ""
        common = ["--threads", THREADS]
        if workload == "traffic_goe":
            for command in ("traffic", "cactus-audit"):
                result.append({
                    "label": prefix + command, "command": command, "sub": sub,
                    "argv": [command, "--config", cfg, "--seed", seed, "--out", o]
                    + common,
                    "matrices": _per_trial_matrices(cfg, command)})
            continue
        kernel = os.path.join(o, "kernel.json")
        result += [
            {"label": prefix + "amp", "command": "amp", "sub": sub,
             "argv": ["amp", "--config", cfg, "--seed", seed, "--out", o] + common,
             "matrices": _per_trial_matrices(cfg, "amp")},
            {"label": prefix + "se", "command": "se", "sub": sub,
             "argv": ["se", "--config", cfg, "--out", kernel] + common,
             "matrices": 0},
            {"label": prefix + "compare", "command": "compare", "sub": sub,
             "argv": ["compare", "--kernel", kernel,
                      "--moments", os.path.join(o, "moments.csv"),
                      "--out", os.path.join(o, "verdict.csv")] + common,
             "matrices": 0},
        ]
    return result


def reference_files(workload):
    """(output sub-directory, {file: relative tolerance}) per pipeline."""
    files = TRAFFIC_FILES if workload == "traffic_goe" else AMP_FILES
    return [(sub, files) for sub, _ in PIPELINES[workload]]


def reference_dir(workload, seed):
    path = os.path.join(REFS_DIR, workload, "seed%d" % seed)
    return path if os.path.isdir(path) else None
