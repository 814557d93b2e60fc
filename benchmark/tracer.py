"""Span tracing of trafficamp from outside the package, and the per-layer
metrics derived from the spans.

install() wraps every public function of each layer module in a span
recorder and rebinds every name under which the package refers to it: the
module attribute and each copy made by ``from ... import`` (for example
``graphpoly.quotient``, ``amp.set_partitions`` or ``cli.cactus_traffic_value``).
uninstall() puts the originals back.  A span is [name, start, end, parent,
info]: parent is the index of the enclosing span (-1 at top level) and info
holds counts computed from the call's arguments, or the exception it raised.
Self time is a span's duration minus the durations of its child spans.
"""

import functools
import hashlib
import importlib
import inspect
import sys
import time
import types

import numpy as np

LAYERS = ("ensembles", "graphpoly", "diagrams", "amp", "state_evolution",
          "gaussian", "freeprob", "matrixio", "cli")
# the CLI entry points and commands are the unattributed remainder, not a layer
CLI_ENTRY_POINTS = ("main", "build_parser")
FINGERPRINT_STRIDE = 31


def fingerprint(a):
    """Identity of a matrix's contents from a strided sample of its entries."""
    a = np.asarray(a)
    sample = np.ascontiguousarray(a.reshape(-1)[::FINGERPRINT_STRIDE])
    return "%s:%s" % (a.shape, hashlib.blake2b(sample.tobytes(), digest_size=8)
                      .hexdigest())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _probe_generate(args, kwargs, out):
    return {"n": out.values.shape[0], "fp": fingerprint(out.values)}


def _probe_eval_w(args, kwargs, out):
    d, labels = args[0], _arg(args, kwargs, 1, "labels")
    if not d.edge_count:
        return {"edges": 0, "labels": []}
    arrays = [labels] if isinstance(labels, np.ndarray) else list(labels)
    return {"edges": d.edge_count, "labels": [fingerprint(a) for a in arrays]}


def _probe_write_matrix(args, kwargs, out):
    m = np.asarray(_arg(args, kwargs, 1, "m"))
    return {"bytes": 24 + 8 * m.size}  # TAMP0001 header plus float64 payload


def _probe_amp_run(args, kwargs, out):
    cfg = _arg(args, kwargs, 1, "cfg")
    # one A @ f per step; block GOE adds (A*A) @ f' from the second step
    return {"matvecs": cfg.T + (cfg.T - 1 if cfg.mode == "block_goe" else 0)}


PROBES = {"ensembles.generate": _probe_generate,
          "graphpoly.eval_w": _probe_eval_w,
          "matrixio.write_matrix": _probe_write_matrix,
          "amp.run": _probe_amp_run}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        # a generator's body would run outside its span, so drain it inside
        drain = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if drain:
                    out = iter(list(out))
            except BaseException as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, out)
            return out

        return traced


def _targets():
    """(span name, function) for every public function of every layer."""
    for layer in LAYERS:
        mod = importlib.import_module("trafficamp." + layer)
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not (layer == "cli" and (attr in CLI_ENTRY_POINTS
                                                 or attr.startswith("cmd_")))):
                yield layer + "." + attr, obj


def install(tracer):
    """Wrap the layers' functions; returns the (module, attr, original) list."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn, PROBES.get(name)))
                for name, fn in _targets()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "trafficamp" and not modname.startswith("trafficamp."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))
    return patched


def uninstall(patched):
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


def all_restored(patched):
    return all(getattr(mod, attr) is original for mod, attr, original in patched)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better); every traced run reports all of them, in this order
PER_LAYER = [
    ("ensembles.generate.calls", "count", "lower"),
    ("ensembles.generate.self_s", "s", "lower"),
    ("ensembles.puncture.calls", "count", "lower"),
    ("ensembles.puncture.self_s", "s", "lower"),
    ("ensembles.bytes_built", "B", "lower"),
    ("ensembles.distinct_ratio", "ratio", "higher"),
    ("ensembles.audit.self_s", "s", "lower"),
    ("ensembles.self_share", "ratio", "lower"),
    ("graphpoly.eval_w.calls", "count", "lower"),
    ("graphpoly.eval_w.self_s", "s", "lower"),
    ("graphpoly.eval_z.calls", "count", "lower"),
    ("graphpoly.eval_z.self_s", "s", "lower"),
    ("graphpoly.eval_w_per_eval_z", "ratio", "lower"),
    ("graphpoly.labels_validated", "count", "lower"),
    ("graphpoly.distinct_labels_ratio", "ratio", "higher"),
    ("graphpoly.open_cactus.self_s", "s", "lower"),
    ("diagrams.quotient.calls", "count", "lower"),
    ("diagrams.quotient.self_s", "s", "lower"),
    ("diagrams.z_to_w_coefficients.self_s", "s", "lower"),
    ("diagrams.classify.self_s", "s", "lower"),
    ("graphpoly_diagrams.self_share", "ratio", "lower"),
    ("amp.run.calls", "count", "lower"),
    ("amp.run.self_s", "s", "lower"),
    ("amp.onsager_b.calls", "count", "lower"),
    ("amp.onsager_b.self_s", "s", "lower"),
    ("amp.onsager_b.incl_share", "ratio", "lower"),
    ("amp.empirical_state.self_s", "s", "lower"),
    ("amp.matvecs", "count", "lower"),
    ("amp.divergences", "count", "lower"),
    ("state_evolution.se.self_s", "s", "lower"),
    ("gaussian.poly_expectation.calls", "count", "lower"),
    ("gaussian.poly_expectation.self_s", "s", "lower"),
    ("state_evolution.aggregate.self_s", "s", "lower"),
    ("state_evolution.compare.self_s", "s", "lower"),
    ("freeprob.targets.calls", "count", "lower"),
    ("freeprob.targets.self_s", "s", "lower"),
    ("matrixio.write_matrix.calls", "count", "lower"),
    ("matrixio.write_matrix.bytes", "B", "lower"),
    ("matrixio.write_matrix.self_s", "s", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("fail_ratio", "ratio", "lower"),
]

SE_KERNELS = ("state_evolution.se_orthogonal", "state_evolution.se_punctured",
              "state_evolution.se_block_goe", "state_evolution.se_community")
TARGETS = ("freeprob.diagonal_from_spectral", "freeprob.cactus_traffic_value")


def layer_metrics(spans, traced_wall, untraced_wall, fail_ratio):
    """Per-layer metric values (in PER_LAYER order) from one traced run."""
    durations = [end - start for _, start, end, _, _ in spans]
    self_time = list(durations)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_time[span[3]] -= durations[i]
    # parents are recorded before their children, so one pass marks nesting
    in_eval_z = [False] * len(spans)
    in_onsager = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            in_eval_z[i] = in_eval_z[parent] or spans[parent][0] == "graphpoly.eval_z"
            in_onsager[i] = in_onsager[parent] or spans[parent][0] == "amp.onsager_b"

    calls, self_s = {}, {}
    for i, span in enumerate(spans):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + self_time[i]

    def infos(name):
        return [s[4] or {} for s in spans if s[0] == name]

    def layer_self(*layers):
        return sum(t for name, t in self_s.items() if name.split(".")[0] in layers)

    def ratio(a, b):
        return a / b if b else 0.0

    generated = infos("ensembles.generate")
    evals = infos("graphpoly.eval_w")
    labels_validated = sum(info.get("edges", 0) for info in evals)
    distinct_labels = {fp for info in evals for fp in info.get("labels", ())}
    onsager_incl = sum(durations[i] for i, s in enumerate(spans)
                       if s[0] == "amp.onsager_b" and not in_onsager[i])
    written = infos("matrixio.write_matrix")

    values = {
        "ensembles.generate.calls": calls.get("ensembles.generate", 0),
        "ensembles.generate.self_s": self_s.get("ensembles.generate", 0.0),
        "ensembles.puncture.calls": calls.get("ensembles.puncture", 0),
        "ensembles.puncture.self_s": self_s.get("ensembles.puncture", 0.0),
        "ensembles.bytes_built": sum(8 * g["n"] ** 2 for g in generated if "n" in g),
        "ensembles.distinct_ratio": ratio(len({g["fp"] for g in generated if "fp" in g}),
                                          len(generated)),
        "ensembles.audit.self_s": (self_s.get("ensembles.delocalization_audit", 0.0)
                                   + self_s.get("ensembles.operator_norm", 0.0)),
        "ensembles.self_share": ratio(layer_self("ensembles"), traced_wall),
        "graphpoly.eval_w.calls": calls.get("graphpoly.eval_w", 0),
        "graphpoly.eval_w.self_s": self_s.get("graphpoly.eval_w", 0.0),
        "graphpoly.eval_z.calls": calls.get("graphpoly.eval_z", 0),
        "graphpoly.eval_z.self_s": self_s.get("graphpoly.eval_z", 0.0),
        "graphpoly.eval_w_per_eval_z": ratio(
            sum(1 for i, s in enumerate(spans)
                if s[0] == "graphpoly.eval_w" and in_eval_z[i]),
            calls.get("graphpoly.eval_z", 0)),
        "graphpoly.labels_validated": labels_validated,
        "graphpoly.distinct_labels_ratio": ratio(len(distinct_labels), labels_validated),
        "graphpoly.open_cactus.self_s": self_s.get("graphpoly.eval_open_cactus_matrix", 0.0),
        "diagrams.quotient.calls": calls.get("diagrams.quotient", 0),
        "diagrams.quotient.self_s": self_s.get("diagrams.quotient", 0.0),
        "diagrams.z_to_w_coefficients.self_s": self_s.get("diagrams.z_to_w_coefficients", 0.0),
        "diagrams.classify.self_s": self_s.get("diagrams.classify", 0.0),
        "graphpoly_diagrams.self_share": ratio(layer_self("graphpoly", "diagrams"),
                                               traced_wall),
        "amp.run.calls": calls.get("amp.run", 0),
        "amp.run.self_s": self_s.get("amp.run", 0.0),
        "amp.onsager_b.calls": calls.get("amp.onsager_b", 0),
        "amp.onsager_b.self_s": self_s.get("amp.onsager_b", 0.0),
        "amp.onsager_b.incl_share": ratio(onsager_incl, traced_wall),
        "amp.empirical_state.self_s": self_s.get("amp.empirical_state", 0.0),
        "amp.matvecs": sum(info.get("matvecs", 0) for info in infos("amp.run")),
        "amp.divergences": sum(1 for info in infos("amp.run")
                               if info.get("raised") == "DivergenceError"),
        "state_evolution.se.self_s": sum(self_s.get(k, 0.0) for k in SE_KERNELS),
        "gaussian.poly_expectation.calls": calls.get("gaussian.poly_expectation", 0),
        "gaussian.poly_expectation.self_s": self_s.get("gaussian.poly_expectation", 0.0),
        "state_evolution.aggregate.self_s": self_s.get("state_evolution.aggregate_reports",
                                                       0.0),
        "state_evolution.compare.self_s": self_s.get("state_evolution.compare_empirical",
                                                     0.0),
        "freeprob.targets.calls": sum(calls.get(k, 0) for k in TARGETS),
        "freeprob.targets.self_s": sum(self_s.get(k, 0.0) for k in TARGETS),
        "matrixio.write_matrix.calls": len(written),
        "matrixio.write_matrix.bytes": sum(w.get("bytes", 0) for w in written),
        "matrixio.write_matrix.self_s": self_s.get("matrixio.write_matrix", 0.0),
        "cli.write_csv.self_s": self_s.get("cli.write_csv", 0.0),
        "cli.unattributed_s": traced_wall - sum(self_time),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
        "trace.spans": len(spans),
        "fail_ratio": fail_ratio,
    }
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
