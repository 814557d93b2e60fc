"""Correctness checks of one pipeline run's outputs.

Every check is an operation that is attempted and may fail: each CLI call
(its exit code), each AMP trial (divergence), each output file (finite
numbers), each reference file (agreement within its relative tolerance), and
the output digest (the same in every run of one benchmark invocation).
"""

import hashlib
import json
import math
import os

import workloads


def digest(out_dir):
    """sha256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _csv_cells(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def nonfinite(path):
    """Count of non-finite numbers in a CSV or JSON output file."""
    if path.endswith(".json"):
        with open(path) as fh:
            values = list(_numbers(json.load(fh)))
    else:
        values = [x for row in _csv_cells(path) for x in map(_number, row)
                  if x is not None]
    return sum(1 for x in values if not math.isfinite(x))


def _close(a, b, rtol):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _json_mismatches(a, b, rtol, where):
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return ["%s: keys differ" % where]
        return [m for k in sorted(a) for m in _json_mismatches(a[k], b[k], rtol,
                                                               "%s.%s" % (where, k))]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return ["%s: length %d != %d" % (where, len(a), len(b))]
        return [m for i, (x, y) in enumerate(zip(a, b))
                for m in _json_mismatches(x, y, rtol, "%s[%d]" % (where, i))]
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return [] if _close(float(a), float(b), rtol) else ["%s: %r != %r" % (where, a, b)]
    return [] if a == b else ["%s: %r != %r" % (where, a, b)]


def mismatches(out_path, ref_path, rtol):
    """Differences of an output file from its reference, as messages."""
    if ref_path.endswith(".json"):
        with open(out_path) as fh, open(ref_path) as gh:
            return _json_mismatches(json.load(fh), json.load(gh), rtol, "")
    got, want = _csv_cells(out_path), _csv_cells(ref_path)
    if len(got) != len(want):
        return ["%d rows != %d" % (len(got), len(want))]
    out = []
    for r, (row, ref) in enumerate(zip(got, want)):
        if len(row) != len(ref):
            out.append("row %d: %d cells != %d" % (r, len(row), len(ref)))
            continue
        for c, (x, y) in enumerate(zip(row, ref)):
            fx, fy = _number(x), _number(y)
            same = (_close(fx, fy, rtol) if fx is not None and fy is not None
                    else x == y)
            if not same:
                out.append("row %d col %d: %s != %s" % (r, c, x, y))
    return out


class Tally:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def check_run(workload, out_dir, calls, call_results, ref_dir=None):
    """Tally of one pipeline run.

    calls is workloads.calls(...) for the run and call_results the child's
    per-call records; ref_dir holds reference outputs for this seed, if any.
    """
    tally = Tally()
    expected = {}
    if ref_dir is not None:
        with open(os.path.join(ref_dir, "exit_codes.json")) as fh:
            expected = {k: (v,) for k, v in json.load(fh).items()}
    for call, res in zip(calls, call_results):
        codes = expected.get(call["label"], workloads.ACCEPTED_CODES[call["command"]])
        tally.check(res["error"] is None and res["code"] in codes,
                    "%s: exit %r (expected %s)%s" % (
                        call["label"], res["code"], "/".join(map(str, codes)),
                        "; " + res["error"] if res["error"] else ""))
        if call["command"] == "amp":
            moments = os.path.join(out_dir, call["sub"], "moments.json")
            diverged = call["matrices"]
            if os.path.exists(moments):
                with open(moments) as fh:
                    diverged = len(json.load(fh)["divergences"])
            for t in range(call["matrices"]):
                tally.check(t >= diverged, "%s: trial diverged" % call["label"])
    tally.check(len(call_results) == len(calls), "pipeline stopped early")

    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            if name.endswith((".csv", ".json")):
                path = os.path.join(root, name)
                bad = nonfinite(path)
                tally.check(bad == 0, "%s: %d non-finite values"
                            % (os.path.relpath(path, out_dir), bad))

    if ref_dir is not None:
        for sub, files in workloads.reference_files(workload):
            for name, rtol in sorted(files.items()):
                out_path = os.path.join(out_dir, sub, name)
                ref_path = os.path.join(ref_dir, sub, name)
                diffs = (mismatches(out_path, ref_path, rtol)
                         if os.path.exists(out_path) else ["missing"])
                tally.check(not diffs, "%s: %s" % (
                    os.path.join(sub, name), "; ".join(diffs[:3])))
    return tally


def verdicts(calls, call_results):
    """The z-gate verdict of each compare call: PASS, FAIL or its exit code."""
    return {call["label"]: {0: "PASS", 1: "FAIL"}.get(res["code"], str(res["code"]))
            for call, res in zip(calls, call_results) if call["command"] == "compare"}
