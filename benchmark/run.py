"""Benchmark of the trafficamp CLI pipelines.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload amp_goe --seed 1 --seconds 25 --trace 0

With --trace 0 it runs the workload's pipeline again and again, each time in
a fresh interpreter, for about --seconds (at least once), and prints the
end-to-end metrics.  With --trace 1 it runs the pipeline once untraced and
once traced and prints the per-layer metrics.  Every run's outputs are
checked (see checks.py); the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the run
goes to .bench_results/.  --write-refs stores the outputs of one run as the
references for its seed instead.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracer
import workloads

END_TO_END = ("setup_s", "wall_s", "trials_per_s", "cpu_s", "peak_rss_mb")
SETUP_BATCH = 3   # set-up-only children before each pipeline and after the last
BLAS_THREADS = 1  # one thread: steadier on a shared host, and no BLAS spin in cpu_s
TIME_LIMIT_S = 160        # start no child after this; the run must end by 180 s
RESULTS_DIR = ".bench_results"
TMP_DIR = ".bench_tmp"


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(spec, tmp, tag, deadline):
    """Run one child interpreter; returns its result with cpu_s and peak_rss_mb."""
    spec = dict(spec, result_path=os.path.join(tmp, tag + ".result.json"),
                spans_path=os.path.join(tmp, tag + ".spans.json"))
    spec_path = os.path.join(tmp, tag + ".spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(tmp, tag + ".log")
    with open(log_path, "w") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(workloads.BENCH_DIR, "child.py"),
             spec_path, repr(spawn)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env())
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise ChildFailed("%s: out of time" % tag)
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - spawn
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed("%s: child exit %d\n%s" % (tag, proc.returncode, tail))
    with open(spec["result_path"]) as fh:
        result = json.load(fh)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["elapsed_s"] = elapsed
    if spec["trace"]:
        with open(spec["spans_path"]) as fh:
            result["spans"] = json.load(fh)
    return result


def pipeline_spec(workload, seed, tmp, tag, trace=False, setup_only=False):
    """A set-up-only spec loads the configs and makes no CLI call."""
    out = os.path.join(tmp, tag + ".out")
    calls = [] if setup_only else workloads.calls(workload, seed, out)
    return out, {"configs": workloads.configs(workload), "trace": trace,
                 "calls": calls}


def trials_per_s(calls, result):
    matrices = sum(c["matrices"] for c in calls)
    seconds = sum(r["seconds"] for c, r in zip(calls, result["calls"]) if c["matrices"])
    return matrices / seconds


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)
                       + glob.glob("configs/*.json") + [workloads.TREELIKE_CONFIG]):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(".git"):  # a plain copy of the tree: no commit to name
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args, result):
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "git_commit": git_commit(),
            "source_sha256": source_digest(), "versions": result["versions"],
            "nproc": nproc(), "blas_threads_set": BLAS_THREADS,
            "blas_threads_live": result["blas_threads"],
            "cli_threads": int(workloads.THREADS)}


def measure(args, tmp, deadline):
    """--trace 0: repeated untraced pipelines; returns (metrics, reps, extras).

    Set-up-only children run in small batches before each pipeline and after
    the last, so the set-up samples span the whole run.  Another pipeline
    starts while at most half of it would run past --seconds.
    """
    setups, reps = [], []

    def setup_batch():
        for _ in range(SETUP_BATCH):
            tag = "setup%d" % len(setups)
            _, spec = pipeline_spec(args.workload, args.seed, tmp, tag, setup_only=True)
            setups.append(run_child(spec, tmp, tag, deadline)["setup_s"])

    begin = time.monotonic()
    while True:
        setup_batch()
        tag = "rep%d" % len(reps)
        out, spec = pipeline_spec(args.workload, args.seed, tmp, tag)
        result = run_child(spec, tmp, tag, deadline)
        result["out"], result["calls_spec"] = out, spec["calls"]
        reps.append(result)
        setups.append(result["setup_s"])
        longest = max(r["elapsed_s"] for r in reps)
        now = time.monotonic()
        if now - begin + longest / 2 > args.seconds or now + 2 * longest > deadline:
            break
    setup_batch()
    med = statistics.median
    metrics = {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(r["wall_s"] for r in reps), "s"),
        "trials_per_s": (med(trials_per_s(r["calls_spec"], r) for r in reps), "1/s"),
        "cpu_s": (med(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return metrics, reps, {"setup_samples": setups}


def traced(args, tmp, deadline):
    """--trace 1: one untraced and one traced pipeline; returns the same triple."""
    reps = []
    for tag, trace in (("plain", False), ("traced", True)):
        out, spec = pipeline_spec(args.workload, args.seed, tmp, tag, trace=trace)
        result = run_child(spec, tmp, tag, deadline)
        result["out"], result["calls_spec"] = out, spec["calls"]
        reps.append(result)
    plain, tr = reps
    return None, reps, {"restored": tr["restored"], "spans": tr.pop("spans"),
                        "wall_s": {"untraced": plain["wall_s"], "traced": tr["wall_s"]}}


def write_refs(args, tmp, deadline):
    """Run the pipeline once and store its outputs as this seed's references."""
    out, spec = pipeline_spec(args.workload, args.seed, tmp, "ref")
    rep = run_child(spec, tmp, "ref", deadline)
    tally = checks.check_run(args.workload, out, spec["calls"], rep["calls"])
    if tally.failed:
        print("\n".join(tally.problems), file=sys.stderr)
        return 1
    ref = os.path.join(workloads.REFS_DIR, args.workload, "seed%d" % args.seed)
    shutil.rmtree(ref, ignore_errors=True)
    for sub, files in workloads.reference_files(args.workload):
        os.makedirs(os.path.join(ref, sub), exist_ok=True)
        for name in files:
            shutil.copyfile(os.path.join(out, sub, name),
                            os.path.join(ref, sub, name))
    with open(os.path.join(ref, "exit_codes.json"), "w") as fh:
        json.dump({r["label"]: r["code"] for r in rep["calls"]}, fh, indent=1)
        fh.write("\n")
    print("wrote references to %s" % ref)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-refs", action="store_true",
                   help="store this seed's outputs as references (one pipeline run)")
    args = p.parse_args(argv)

    missing = [path for path in ["src/trafficamp/cli.py"] + workloads.configs(args.workload)
               if not os.path.isfile(path)]
    if missing:
        print("error: run from the root of a trafficamp checkout; missing %s"
              % ", ".join(missing), file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=TMP_DIR)
    try:
        if args.write_refs:
            return write_refs(args, tmp, deadline)
        run = traced if args.trace else measure
        metrics, reps, extras = run(args, tmp, deadline)

        ref_dir = workloads.reference_dir(args.workload, args.seed)
        tally = checks.Tally()
        digests = []
        for rep in reps:
            tally.add(checks.check_run(args.workload, rep["out"], rep["calls_spec"],
                                       rep["calls"], ref_dir))
            digests.append(checks.digest(rep["out"]))
        for d in digests[1:]:
            tally.check(d == digests[0], "output digest differs between runs")
        if args.trace:
            tally.check(extras["restored"], "tracer left a patched binding behind")
            wall = extras["wall_s"]
            metrics = tracer.layer_metrics(extras.pop("spans"), wall["traced"],
                                           wall["untraced"],
                                           tally.failed / tally.attempted)
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    verdicts = checks.verdicts(reps[0]["calls_spec"], reps[0]["calls"])
    record = run_record(args, reps[0])
    record.update({
        "references": ref_dir, "output_digest": digests[0], "verdicts": verdicts,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "samples": len(reps),
        "per_run": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                        "elapsed_s", "calls")} for r in reps],
        "metrics": metrics, "elapsed_s": time.monotonic() - started, **extras})
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d-%s.json" % (
        args.workload, args.seed, args.trace, time.strftime("%Y%m%dT%H%M%S")))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in tally.problems:
        print("FAILED %s" % problem, file=sys.stderr)
    print("output digest %s (%s, seed %d); verdicts %s; record %s"
          % (digests[0], "reference" if ref_dir else "no reference", args.seed,
             json.dumps(verdicts, sort_keys=True), path))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
