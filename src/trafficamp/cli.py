"""Experiment runner: matrix generation, traffic estimation, cactus audits,
AMP runs, state-evolution prediction, and empirical-vs-analytic comparison.

Exit codes: 0 success/pass, 1 comparison fail, 2 usage error, 3 budget error,
4 divergence-only failures (AMP trials, or the state-evolution recursion).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys

import numpy as np

from . import amp as amp_mod
from . import ensembles, freeprob, graphpoly, matrixio, state_evolution as se_mod
from .diagrams import Diagram, classify, named_diagram
from .freeprob import CumulantTable, cactus_traffic_value, named_table
from .gaussian import named_polynomial

AUDIT_OPEN_CACTUSES = {
    "open_path2": Diagram(3, ((0, 1), (1, 2)), (0, 2)),
    "open_path1": Diagram(2, ((0, 1),), (0, 1)),
    "open_triangle": Diagram(4, ((0, 1), (1, 2), (2, 3), (3, 1)), (0, 1)),
}


def config_hash(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_csv(path, header, rows, cfg_obj):
    with open(path, "w") as fh:
        fh.write("# config-hash: %s\n" % config_hash(cfg_obj))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def _cell(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# accepted config keys, per section (None: the top level)
CONFIG_KEYS = {
    None: ("ensemble", "diagrams", "amp", "trials", "dimension_sweep",
           "output_dir", "master_seed", "eval_budget", "open_cactuses"),
    "ensemble": ("kind", "n", "seed", "entry_law", "inner", "q", "sigma",
                 "eigenvalues"),
    "amp": ("nonlinearities", "T", "mode", "kappa", "init"),
}


def load_config(path):
    """Read a JSON config; a key outside CONFIG_KEYS, or a `trials` that is
    not an integer >= 1, is a ValueError that names the key."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config %s is not a JSON object" % path)
    for section, allowed in CONFIG_KEYS.items():
        obj = cfg if section is None else cfg.get(section)
        for key in obj if isinstance(obj, dict) else ():
            if key not in allowed:
                where = "the top level" if section is None else "section %r" % section
                raise ValueError("unknown config key %r in %s of %s"
                                 % (key, where, path))
    trials = cfg.get("trials", 1)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError("config key 'trials' must be an integer >= 1, not %r, in %s"
                         % (trials, path))
    return cfg


def _ensemble_from_config(cfg, n=None, seed=None):
    spec = dict(cfg["ensemble"])
    if n is not None:
        spec["n"] = n
    if seed is not None:
        spec["seed"] = seed
    return ensembles.EnsembleSpec.from_json(spec)


def _resolve_kappa(spec):
    if isinstance(spec, str):
        return named_table(spec)
    return CumulantTable.from_json(spec)


def _amp_config_from(cfg, seed):
    a = dict(cfg["amp"])
    kappa = _resolve_kappa(a["kappa"]) if "kappa" in a else None
    return amp_mod.AMPConfig(
        nonlinearities=tuple(named_polynomial(p) for p in a["nonlinearities"]),
        T=int(a["T"]), mode=a.get("mode", "scalar_kappa"), kappa=kappa,
        init=a.get("init", "ones"), seed=seed)


DETERMINISTIC_KINDS = ("hadamard", "dst", "dct")


def _is_deterministic(spec):
    if spec.kind in DETERMINISTIC_KINDS:
        return True
    return spec.kind == "punctured" and spec.inner in DETERMINISTIC_KINDS


def _generate_trial(spec, master_seed, trial):
    if _is_deterministic(spec):
        return ensembles.generate(spec).values
    seeded = ensembles.EnsembleSpec.from_json({**spec.to_json(), "seed": master_seed})
    return ensembles.generate(seeded, stream=trial).values


def _run_trials(fn, trials, threads):
    """[fn(0), ..., fn(trials - 1)], on `threads` worker threads when > 1."""
    if not threads or threads <= 1:
        return [fn(t) for t in range(trials)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(trials)))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args):
    spec = ensembles.EnsembleSpec(
        kind=args.kind, n=args.n, seed=args.seed if args.seed is not None else 0,
        entry_law=args.entry_law, inner=args.inner, q=args.q,
        sigma=tuple(float(x) for x in args.sigma.split(",")) if args.sigma else None,
        eigenvalues=args.eigenvalues)
    gm = ensembles.generate(spec)
    out = args.out or ("%s_%d.tamp" % (spec.kind, spec.n))
    matrixio.write_matrix(out, gm.values)
    with open(out + ".json", "w") as fh:
        json.dump(gm.spec.to_json(), fh, indent=2)
    msg = "wrote %s (%d x %d)" % (out, spec.n, spec.n)
    if spec.kind in ("hadamard", "dst", "dct", "rom"):
        msg += "; max |H^2 - I| = %.2e" % _orthogonality_error(gm.values)
    print(msg)
    return 0


def _orthogonality_error(h):
    """max |H^2 - I| over the entries, from one product and no other n x n
    array."""
    p = h @ h
    p[np.diag_indices(len(p))] -= 1.0
    return float(np.max(np.abs(p, out=p)))


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------

def _analytic_targets(spec, d):
    """(w_target, z_target) in the n -> infty limit, or None when no claim."""
    kind = spec.kind
    if kind in ("goe", "wigner"):
        kappa, moments = named_table("goe"), named_table("semicircle")
    elif kind in ("rom",):
        kappa, moments = named_table("rom"), named_table("rademacher")
    elif kind == "r_rom" or (kind == "punctured" and spec.inner in DETERMINISTIC_KINDS):
        kappa, moments = named_table("rom"), named_table("rademacher")
    elif kind in DETERMINISTIC_KINDS:
        # unpunctured Fourier-type matrices: diagonal distribution exists on
        # cactuses, but bridged diagrams may diverge; only cactus targets
        kappa, moments = named_table("rom"), named_table("rademacher")
    else:
        return None, None
    cls = classify(d)
    if cls.cactus:
        try:
            w = freeprob.diagonal_from_spectral(d, moments)
            z = cactus_traffic_value(d, kappa)
            return w, z
        except IndexError:
            return None, None
    if cls.two_edge_connected:
        return None, 0.0
    return None, None


def cmd_traffic(args):
    cfg = load_config(args.config)
    master_seed = args.seed if args.seed is not None else cfg.get("master_seed", 0)
    trials = int(cfg.get("trials", 1))
    diagrams_ = [(name, named_diagram(name)) for name in cfg["diagrams"]]
    sweep = cfg.get("dimension_sweep") or [cfg["ensemble"]["n"]]
    outdir = args.out or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)

    rows = []
    series = {}
    budget = float(cfg.get("eval_budget", 0)) or None
    keys = [(name, basis) for name, _ in diagrams_ for basis in ("w", "z")]
    requests = [(d, basis) for _, d in diagrams_ for basis in ("w", "z")]
    for n in sweep:
        spec = _ensemble_from_config(cfg, n=n)
        eff_trials = 1 if _is_deterministic(spec) else trials

        def one(trial):
            m = _generate_trial(spec, master_seed, trial)
            vals = graphpoly.eval_catalog(requests, m, budget=budget)
            return {key: v / n for key, v in zip(keys, vals)}

        results = _run_trials(one, eff_trials, args.threads)
        for name, d in diagrams_:
            wt, zt = _analytic_targets(spec, d)
            for basis, target in (("w", wt), ("z", zt)):
                vals = np.array([r[(name, basis)] for r in results])
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else ""
                rows.append((n, name, basis, mean, se,
                             "" if target is None else target))
                series.setdefault((name, basis), []).append((n, mean))

    write_csv(os.path.join(outdir, "traffic.csv"),
              ["n", "diagram", "basis", "mean", "se", "target"], rows, cfg)
    write_csv(os.path.join(outdir, "traffic_exponents.csv"),
              ["diagram", "basis", "exponent"], _fit_exponents(series), cfg)
    print("wrote %s (%d rows)" % (os.path.join(outdir, "traffic.csv"), len(rows)))
    return 0


def _fit_exponents(series):
    """(diagram, basis, slope) of the log-log fit of |mean| against n, per
    (diagram, basis) series with at least two means above 1e-14 in size."""
    exps = []
    for (name, basis), pts in sorted(series.items()):
        pts = [(n, v) for n, v in pts if abs(v) > 1e-14]
        if len(pts) >= 2:
            ls = np.log([p[0] for p in pts])
            lv = np.log([abs(p[1]) for p in pts])
            exps.append((name, basis, float(np.polyfit(ls, lv, 1)[0])))
    return exps


# ---------------------------------------------------------------------------
# cactus-audit
# ---------------------------------------------------------------------------

def cmd_cactus_audit(args):
    cfg = load_config(args.config)
    master_seed = args.seed if args.seed is not None else cfg.get("master_seed", 0)
    trials = int(cfg.get("trials", 1))
    diagrams_ = [(name, named_diagram(name)) for name in cfg["diagrams"]]
    open_names = cfg.get("open_cactuses", list(AUDIT_OPEN_CACTUSES))
    open_set = [(nm, AUDIT_OPEN_CACTUSES[nm] if nm in AUDIT_OPEN_CACTUSES
                 else named_diagram(nm)) for nm in open_names]
    sweep = cfg.get("dimension_sweep") or [cfg["ensemble"]["n"]]
    outdir = args.out or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    budget = float(cfg.get("eval_budget", 0)) or None

    rows, audit_rows = [], []
    series = {}
    requests = []
    for _, d in diagrams_:
        cls = classify(d)
        requests.append((d, "z" if (cls.two_edge_connected and not cls.cactus) else "w"))
    for n in sweep:
        spec = _ensemble_from_config(cfg, n=n)
        eff_trials = 1 if _is_deterministic(spec) else trials

        def one(trial):
            m = _generate_trial(spec, master_seed, trial)
            vals = graphpoly.eval_catalog(requests, m, budget=budget)
            rep = ensembles.delocalization_audit(m, [d for _, d in open_set],
                                                 budget=budget)
            return [v / n for v in vals], rep

        results = _run_trials(one, eff_trials, args.threads)
        for i, (name, _) in enumerate(diagrams_):
            basis = requests[i][1]
            vals = np.array([r[0][i] for r in results])
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else ""
            rows.append((n, name, basis, mean, se))
            series.setdefault((name, basis), []).append((n, mean))
        rep = results[0][1]
        for (nm, _), dd in zip(open_set, rep["diagrams"]):
            audit_rows.append((n, nm, rep["norm"], dd["max_offdiag"],
                               dd["centered_vec_norm"]))

    write_csv(os.path.join(outdir, "cactus_audit.csv"),
              ["n", "diagram", "basis", "mean", "se"], rows, cfg)
    write_csv(os.path.join(outdir, "cactus_audit_exponents.csv"),
              ["diagram", "basis", "exponent"], _fit_exponents(series), cfg)
    write_csv(os.path.join(outdir, "delocalization.csv"),
              ["n", "open_cactus", "norm", "max_offdiag", "centered_vec_norm"],
              audit_rows, cfg)
    print("wrote %s" % os.path.join(outdir, "cactus_audit.csv"))
    return 0


# ---------------------------------------------------------------------------
# amp
# ---------------------------------------------------------------------------

def _block_label_vector(cfg, n):
    spec = cfg["ensemble"]
    if spec["kind"] == "block_goe":
        return ensembles.block_labels(n, int(spec["q"])), "block"
    if spec["kind"] == "community":
        q = int(spec["q"])
        lab = np.zeros(n, dtype=int)
        lab[: n // q] = 1  # distinguished block carries kernel index 1
        return lab, "community"
    return None, None


def cmd_amp(args):
    cfg = load_config(args.config)
    master_seed = args.seed if args.seed is not None else cfg.get("master_seed", 0)
    trials = int(cfg.get("trials", 1))
    outdir = args.out or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    spec = _ensemble_from_config(cfg)
    labels, _ = _block_label_vector(cfg, spec.n)
    fixed = None
    if _is_deterministic(spec):
        # built once for all trials; read-only, so a runner that writes into
        # it raises instead of altering the matrix of later trials
        fixed = ensembles.generate(spec).values
        fixed.flags.writeable = False
    # trials on the shared matrix run in lockstep, in contiguous blocks of at most
    # 32 split between the threads; a trial with its own matrix is a block of one
    size = min(32, -(-trials // max(1, args.threads))) if fixed is not None else 1
    blocks = [range(b, min(b + size, trials)) for b in range(0, trials, size)]

    def one(block):
        m = fixed if fixed is not None else _generate_trial(spec, master_seed, block[0])
        cfgs = amp_mod.TrialBlock(
            _amp_config_from(cfg, seed=master_seed + 1000003 * (t + 1)) for t in block)
        # only the iterates are kept; the Onsager vectors are dropped here
        return [res if isinstance(res, amp_mod.DivergenceError) else
                (res.iterates, amp_mod.empirical_state(res, block_labels=labels))
                for res in amp_mod.run(m, cfgs, block)]

    results = [res for out in _run_trials(lambda i: one(blocks[i]), len(blocks),
                                          args.threads) for res in out]
    states, divergences = [], []
    for trial, res in enumerate(results):
        if isinstance(res, amp_mod.DivergenceError):
            divergences.append((trial, res.t, res.i))
            continue
        states.append(res[1])
        if not args.no_save_traces:
            matrixio.write_matrix(os.path.join(outdir, "trace_%03d.tamp" % trial), res[0])
    if not states:
        print("all %d trials diverged" % trials, file=sys.stderr)
        return 4

    report = se_mod.aggregate_reports(states)
    rows = _report_rows(report)
    write_csv(os.path.join(outdir, "moments.csv"),
              ["group", "kind", "a", "b", "mean", "se"], rows, cfg)
    with open(os.path.join(outdir, "moments.json"), "w") as fh:
        json.dump({"config_hash": config_hash(cfg), "trials": trials,
                   "divergences": [list(d) for d in divergences],
                   "moments": [{"group": g, "kind": k, "a": a, "b": b,
                                "mean": m, "se": s}
                               for g, k, a, b, m, s in rows]}, fh, indent=2)
    print("wrote %s (%d trials, %d diverged)"
          % (os.path.join(outdir, "moments.csv"), trials, len(divergences)))
    return 4 if divergences else 0


def _report_rows(report):
    groups = [("all", report)] + [("block%d" % r, sub) for r, sub
                                  in sorted(report.get("blocks", {}).items())]
    return [(group, kind, a, b, mean, se) for group, sub in groups
            for kind in ("second", "power")
            for (a, b), (mean, se) in sorted(sub[kind].items())]


def read_moments_csv(path):
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


# ---------------------------------------------------------------------------
# se
# ---------------------------------------------------------------------------

def build_kernel(cfg):
    a = cfg["amp"]
    fs = [named_polynomial(p) for p in a["nonlinearities"]]
    T = int(a["T"])
    mode = a.get("mode", "scalar_kappa")
    if mode == "scalar_kappa":
        return se_mod.se_orthogonal(fs, _resolve_kappa(a["kappa"]), T)
    if mode == "punctured_kappa":
        return se_mod.se_punctured(fs, _resolve_kappa(a["kappa"]), T)
    if mode == "block_goe":
        spec = cfg["ensemble"]
        q = int(spec["q"])
        sigma = np.array(spec["sigma"], dtype=np.float64).reshape(q, q)
        return se_mod.se_block_goe(fs, sigma, q, T)
    if mode == "exact_treelike":
        spec = cfg["ensemble"]
        if spec["kind"] == "community":
            q = int(spec["q"])
            kin = ensembles.community_kappa_table(q, spec.get("inner", "rom"),
                                                  length=max(8, 2 * T))
            return se_mod.se_community(fs, kin, q, T)
        if spec["kind"] in ("goe", "wigner"):
            return se_mod.se_orthogonal(fs, named_table("goe", 2 * T), T)
        if spec["kind"] == "rom":
            return se_mod.se_orthogonal(fs, named_table("rom", 2 * T), T)
        raise ValueError("no SE preset for treelike mode on %r" % spec["kind"])
    raise ValueError("no SE variant for mode %r" % mode)


def cmd_se(args):
    cfg = load_config(args.config)
    kernel = build_kernel(cfg)
    out = args.out or os.path.join(cfg.get("output_dir", "."), "kernel.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"config_hash": config_hash(cfg), **kernel.to_json()}, fh, indent=2)
    print("wrote %s (variant=%s, T=%d)" % (out, kernel.variant, kernel.T))
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args):
    with open(args.kernel) as fh:
        kobj = json.load(fh)
    kernel = se_mod.SEKernel.from_json(kobj)
    report = read_moments_csv(args.moments)
    rows, passed = se_mod.compare_empirical(kernel, report, threshold=args.threshold)
    out = args.out or "verdict.csv"
    write_csv(out, ["group", "stat", "s", "t", "empirical", "predicted", "z"],
              [(r["group"], r["stat"], r["s"], r["t"], r["empirical"],
                r["predicted"], r["z"]) for r in rows], kobj)
    worst = max(rows, key=lambda r: r["z"]) if rows else None
    print("compared %d statistics; %s (worst z = %.2f at %s)"
          % (len(rows), "PASS" if passed else "FAIL",
             worst["z"] if worst else 0.0, worst["stat"] if worst else "-"))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_globals(sp):
    # global flags accepted before or after the subcommand name
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="override master seed")
    sp.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--out", default=argparse.SUPPRESS,
                    help="output file or directory")


def build_parser():
    p = argparse.ArgumentParser(prog="trafficamp",
                                description="Graph-polynomial traffic, AMP, and "
                                            "state-evolution experiments")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None, help="output file or directory")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a matrix into TAMP0001 format")
    g.add_argument("--kind", required=True, choices=ensembles.KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--entry-law", default="normal")
    g.add_argument("--inner", default=None)
    g.add_argument("--q", type=int, default=None)
    g.add_argument("--sigma", default=None, help="row-major comma list")
    g.add_argument("--eigenvalues", default=None)
    _add_globals(g)
    g.set_defaults(fn=cmd_gen)

    for name, fn in (("traffic", cmd_traffic), ("cactus-audit", cmd_cactus_audit)):
        s = sub.add_parser(name)
        s.add_argument("--config", required=True)
        _add_globals(s)
        s.set_defaults(fn=fn)

    s = sub.add_parser("amp", help="run AMP trials and aggregate moments")
    s.add_argument("--config", required=True)
    s.add_argument("--no-save-traces", action="store_true",
                   help="skip writing per-trial iterate matrices")
    _add_globals(s)
    s.set_defaults(fn=cmd_amp)

    s = sub.add_parser("se", help="emit the state-evolution kernel for a config")
    s.add_argument("--config", required=True)
    _add_globals(s)
    s.set_defaults(fn=cmd_se)

    s = sub.add_parser("compare", help="z-score moments against a kernel")
    s.add_argument("--kernel", required=True)
    s.add_argument("--moments", required=True)
    s.add_argument("--threshold", type=float, default=4.0)
    _add_globals(s)
    s.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except graphpoly.BudgetError as exc:
        print("budget error: %s" % exc, file=sys.stderr)
        return 3
    except se_mod.SEDivergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
