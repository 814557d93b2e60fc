"""Experiment runner: matrix generation, traffic estimation, cactus audits,
AMP runs, state-evolution prediction, and empirical-vs-analytic comparison.

Exit codes: 0 success/pass, 1 comparison fail, 2 usage error, 3 budget error,
4 divergence-only failures (AMP trials, or the state-evolution recursion).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import os
import sys
import threading

import numpy as np

from . import amp as amp_mod
from . import ensembles, freeprob, graphpoly, matrixio, state_evolution as se_mod
from .diagrams import Diagram, check_open_cactus, classify, named_diagram
from .freeprob import CumulantTable, cactus_traffic_value, named_table

AUDIT_OPEN_CACTUSES = {
    "open_path2": Diagram(3, ((0, 1), (1, 2)), (0, 2)),
    "open_path1": Diagram(2, ((0, 1),), (0, 1)),
    "open_triangle": Diagram(4, ((0, 1), (1, 2), (2, 3), (3, 1)), (0, 1)),
}


def config_hash(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_csv(path, header, rows, cfg_obj):
    """A config-hash comment line, then the header and rows; a cell holding a
    comma (an inline diagram literal) or a quote is quoted."""
    with open(path, "w", newline="") as fh:
        fh.write("# config-hash: %s\n" % config_hash(cfg_obj))
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_cell(x) for x in row] for row in rows)


def _cell(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# the JSON type of each accepted config key, per section (None: the top level):
# int, float (any number), str or dict; [t] is a list of t, and (t, u) is t or u
CONFIG_KEYS = {
    None: {"ensemble": dict, "diagrams": [str], "amp": dict, "trials": int,
           "dimension_sweep": [int], "output_dir": str, "master_seed": int,
           "eval_budget": float, "open_cactuses": [str]},
    "ensemble": {"kind": str, "n": int, "entry_law": str, "inner": str, "q": int,
                 "sigma": [float], "eigenvalues": str},
    "amp": {"nonlinearities": [(str, [float])], "T": int, "mode": str,
            "kappa": (str, dict), "init": str},
}

_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), dict: ("an object", "objects")}


def _type_name(t, plural=False):
    if isinstance(t, tuple):
        return " or ".join(_type_name(u, plural) for u in t)
    if isinstance(t, list):
        return ("lists of " if plural else "a list of ") + _type_name(t[0], True)
    return _TYPE_NAMES[t][plural]


def _has_type(value, t):
    if isinstance(t, tuple):
        return any(_has_type(value, u) for u in t)
    if isinstance(t, list):
        return isinstance(value, list) and all(_has_type(v, t[0]) for v in value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if t is float else t)


def load_config(path):
    """Read a JSON config; a key outside CONFIG_KEYS, a value (or list entry) not
    of the key's JSON type (a bool is not a number), a `trials` below 1, or a
    repeated `dimension_sweep` entry, is a ValueError that names the key."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config %s is not a JSON object" % path)
    for section, types in CONFIG_KEYS.items():
        obj = cfg if section is None else cfg.get(section)
        place = "the top level" if section is None else "section %r" % section
        for key, value in obj.items() if isinstance(obj, dict) else ():
            if key not in types:
                raise ValueError("unknown config key %r in %s of %s" % (key, place, path))
            t, values, entry = types[key], [value], ""
            if isinstance(t, list) and isinstance(value, list):  # name the bad entry
                t, values, entry = t[0], value, " entry"
            for v in values:
                if not _has_type(v, t) or key == "trials" and v < 1:
                    raise ValueError("config key %r%s%s must be %s%s, not %r, in %s" % (
                        key, entry, "" if section is None else " in " + place,
                        _type_name(t), " >= 1" if key == "trials" else "", v, path))
    if len(set(sweep := cfg.get("dimension_sweep", []))) < len(sweep):
        raise ValueError("config key 'dimension_sweep' repeats an entry: %r in %s" % (sweep, path))
    return cfg


def _ensemble_from_config(cfg, n=None):
    spec = dict(cfg["ensemble"])
    if n is not None:
        spec["n"] = n
    return ensembles.EnsembleSpec.from_json(spec)


def _amp_config_from(cfg):
    """The AMPConfig of cfg's amp section, whose kappa table, if any, reaches order
    2T, all that its SE kernel reads.  A named table is built to max(8, 2T)."""
    a = dict(cfg["amp"])
    kappa = a.get("kappa")
    if isinstance(kappa, str):  # of order at most 2 len(fs): a T past len(fs) is rejected
        kappa = named_table(kappa, max(8, 2 * min(len(a["nonlinearities"]), int(a["T"]))))
    elif kappa is not None:
        for key in kappa:
            if key not in ("tag", "values"):
                raise ValueError("config key 'kappa' in section 'amp' has unknown key %r" % key)
        try:
            kappa = CumulantTable.from_json(kappa)
        except KeyError as exc:
            raise ValueError("config key 'kappa' in section 'amp' has no key %s" % exc)
    acfg = amp_mod.AMPConfig(
        nonlinearities=tuple(a["nonlinearities"]), T=int(a["T"]),
        mode=a.get("mode", "scalar_kappa"), kappa=kappa, init=a.get("init", "ones"))
    if kappa is not None and len(kappa) < 2 * acfg.T:
        raise ValueError("kappa table must cover order 2T")
    return acfg


def _law(spec):
    """(kind, punctured, law) of spec: its kind, with the aliases r_rom (punctured
    rom) and orth_invariant with Rademacher eigenvalues (rom) resolved and a
    puncturing unwrapped; whether it is punctured; and the named_table names
    (cumulants, moments) of its n -> infty limit law, or None when it has none."""
    punctured = spec.kind in ("punctured", "r_rom")
    kind = {"punctured": spec.inner, "r_rom": "rom"}.get(spec.kind, spec.kind)
    if kind == "orth_invariant" and spec.eigenvalues in (None, "rademacher"):
        kind = "rom"
    if kind == "rom" or kind in ensembles.DETERMINISTIC:
        return kind, punctured, ("rom", "rademacher")
    if kind in ("goe", "wigner") and not punctured:
        return kind, punctured, ("goe", "semicircle")
    return kind, punctured, None


def _is_deterministic(spec):
    return _law(spec)[0] in ensembles.DETERMINISTIC


def _generate_trial(spec, master_seed, trial, local):
    """The trial's matrix, generated over local.m, the calling thread's buffer."""
    local.m = ensembles.generate(dataclasses.replace(spec, seed=master_seed), trial,
                                 getattr(local, "m", None)).values
    return local.m


def _setup(args):
    """(config, master seed, trials, output directory) of amp, traffic and cactus-audit."""
    cfg = load_config(args.config)
    master_seed = args.seed if args.seed is not None else cfg.get("master_seed", 0)
    outdir = args.out or cfg.get("output_dir", ".")
    os.makedirs(outdir, exist_ok=True)
    return cfg, master_seed, int(cfg.get("trials", 1)), outdir


def _blocks(spec, trials, threads):
    """The trial blocks of _trials: min(32, ceil(trials / threads)) trials each on
    a deterministic kind's shared matrix, one trial each otherwise."""
    size = min(32, -(-trials // threads)) if _is_deterministic(spec) else 1
    return [range(b, min(b + size, trials)) for b in range(0, trials, size)]


def _trials(spec, master_seed, trials, threads, work):
    """One result per trial: work(m, block) gives those of the trials in `block`,
    a range from _blocks, on their matrix m.  A deterministic kind is built once
    and shared read-only (a work that writes into it raises); any other trial is
    generated over its worker thread's buffer.  Blocks run on `threads` worker
    threads."""
    fixed = None
    if _is_deterministic(spec):
        fixed = ensembles.generate(spec).values
        fixed.flags.writeable = False
    blocks = _blocks(spec, trials, threads)
    local = threading.local()  # one n x n buffer per worker thread

    def one(block):
        m = fixed if fixed is not None else _generate_trial(spec, master_seed, block[0], local)
        return work(m, block)

    if threads == 1:
        return [res for block in blocks for res in one(block)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return [res for out in pool.map(one, blocks) for res in out]


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
    _, punctured, law = _law(spec)
    if not punctured and law == ("rom", "rademacher"):  # an orthogonal H
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
    """(w_target, z_target) in the n -> infty limit of spec's law, or None when
    no claim.  For unpunctured Fourier-type matrices the diagonal distribution
    exists on cactuses, but bridged diagrams may diverge."""
    law = _law(spec)[2]
    if law is None:
        return None, None
    kappa, moments = (named_table(name, max(1, d.edge_count)) for name in law)
    cls = classify(d)
    return (freeprob.diagonal_from_spectral(d, moments) if cls.cactus else None,
            cactus_traffic_value(d, kappa) if cls.two_edge_connected else None)


def _sweep(args, requests):
    """The config, output directory, per-n results and exponent rows of traffic or
    cactus-audit.  requests(cfg) gives the (name, diagram, basis) requests, each
    evaluated divided by n on every trial's matrix, and an audit(m, budget) or
    None, run on trial 0's.  Per n: (n, spec, [(name, d, basis, mean, se)], audit)."""
    cfg, master_seed, trials, outdir = _setup(args)
    reqs, audit = requests(cfg)
    for name, d, _ in reqs:
        if d.roots:
            raise ValueError("diagram %r has roots; 'diagrams' takes closed diagrams only" % name)
    budget = float(cfg.get("eval_budget", 0)) or None
    catalog = [(d, basis) for _, d, basis in reqs]

    def work(m, block):  # blocks of one; a deterministic kind runs one trial
        vals = [v / len(m) for v in graphpoly.eval_catalog(catalog, m, budget=budget)]
        return [(vals, audit(m, budget) if audit and block[0] == 0 else None)]

    per_n, series = [], {}
    for n in cfg.get("dimension_sweep") or [cfg["ensemble"]["n"]]:
        spec = _ensemble_from_config(cfg, n=n)
        results = _trials(spec, master_seed, 1 if _is_deterministic(spec) else trials,
                          args.threads, work)
        stats = []
        for i, (name, d, basis) in enumerate(reqs):
            vals = np.array([r[0][i] for r in results])
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else ""
            stats.append((name, d, basis, mean, se))
            series.setdefault((name, basis), []).append((n, mean))
        per_n.append((n, spec, stats, results[0][1]))
    return cfg, outdir, per_n, _fit_exponents(series)


def cmd_traffic(args):
    cfg, outdir, per_n, exponents = _sweep(args, lambda cfg: (
        [(nm, named_diagram(nm), basis) for nm in cfg["diagrams"] for basis in "wz"],
        None))
    rows = []
    for n, spec, stats, _ in per_n:
        for name, d, basis, mean, se in stats:
            if basis == "w":  # each diagram's w request comes first
                targets = dict(zip("wz", _analytic_targets(spec, d)))
            target = targets[basis]
            rows.append((n, name, basis, mean, se, "" if target is None else target))

    write_csv(os.path.join(outdir, "traffic.csv"),
              ["n", "diagram", "basis", "mean", "se", "target"], rows, cfg)
    write_csv(os.path.join(outdir, "traffic_exponents.csv"),
              ["diagram", "basis", "exponent"], exponents, cfg)
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

def _audit_request(name):
    # the z basis for 2-edge-connected diagrams that are not cactuses
    d = named_diagram(name)
    cls = classify(d)
    return name, d, "z" if (cls.two_edge_connected and not cls.cactus) else "w"


def _delocalization_audit(cfg):
    """The delocalization rows of a matrix, for cfg's open cactuses."""
    names = cfg.get("open_cactuses", list(AUDIT_OPEN_CACTUSES))
    opens = [AUDIT_OPEN_CACTUSES[nm] if nm in AUDIT_OPEN_CACTUSES else named_diagram(nm)
             for nm in names]
    for d in opens:
        check_open_cactus(d)

    def rows(m, budget):
        rep = ensembles.delocalization_audit(m, opens, budget=budget)
        return [(nm, rep["norm"], dd["max_offdiag"], dd["centered_vec_norm"])
                for nm, dd in zip(names, rep["diagrams"])]
    return rows


def cmd_cactus_audit(args):
    cfg, outdir, per_n, exponents = _sweep(args, lambda cfg: (
        [_audit_request(name) for name in cfg["diagrams"]], _delocalization_audit(cfg)))
    write_csv(os.path.join(outdir, "cactus_audit.csv"),
              ["n", "diagram", "basis", "mean", "se"],
              [(n, name, basis, mean, se) for n, _, stats, _ in per_n
               for name, _, basis, mean, se in stats], cfg)
    write_csv(os.path.join(outdir, "cactus_audit_exponents.csv"),
              ["diagram", "basis", "exponent"], exponents, cfg)
    write_csv(os.path.join(outdir, "delocalization.csv"),
              ["n", "open_cactus", "norm", "max_offdiag", "centered_vec_norm"],
              [(n,) + row for n, _, _, rows in per_n for row in rows], cfg)
    print("wrote %s" % os.path.join(outdir, "cactus_audit.csv"))
    return 0


# ---------------------------------------------------------------------------
# amp
# ---------------------------------------------------------------------------

def _block_label_vector(spec):
    if spec.kind == "block_goe":
        return ensembles.block_labels(spec.n, spec.q)
    if spec.kind == "community":
        lab = np.zeros(spec.n, dtype=int)
        lab[: spec.n // spec.q] = 1  # distinguished block carries kernel index 1
        return lab
    return None


def cmd_amp(args):
    cfg, master_seed, trials, outdir = _setup(args)
    acfg = _amp_config_from(cfg)  # checked before any matrix is built
    spec = _ensemble_from_config(cfg)
    if acfg.mode == "exact_treelike":  # before any matrix is built
        if acfg.init == "ones" and _is_deterministic(spec):
            # nothing is drawn from the seed: the trials would be copies of one
            raise ValueError("exact_treelike mode from the ones start on %r: every trial "
                             "repeats one trial" % spec.kind)
        # the memory bound, for the trials that can run at once (each has its
        # own matrix, so each is a block of one)
        amp_mod._exact_program(spec.n, acfg, min(args.threads, trials))
    labels = _block_label_vector(spec)

    def work(m, block):  # in lockstep; trial t is keyed (its seed, stream t)
        keys = [(master_seed + 1000003 * (t + 1), t) for t in block]
        return [res if isinstance(res, amp_mod.DivergenceError) else
                (res, amp_mod.empirical_state(res, block_labels=labels))
                for res in amp_mod.run(m, acfg, keys)]

    results = _trials(spec, master_seed, trials, args.threads, work)
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

    rows = [key + stat for key, stat in se_mod.aggregate_reports(states).items()]
    header = ["group", "kind", "a", "b", "mean", "se"]
    write_csv(os.path.join(outdir, "moments.csv"), header, rows, cfg)
    with open(os.path.join(outdir, "moments.json"), "w") as fh:
        json.dump({"config_hash": config_hash(cfg), "trials": trials,
                   "divergences": [list(d) for d in divergences],
                   "moments": [dict(zip(header, row)) for row in rows]}, fh, indent=2)
    print("wrote %s (%d trials, %d diverged)"
          % (os.path.join(outdir, "moments.csv"), trials, len(divergences)))
    return 4 if divergences else 0


def read_moments_csv(path):
    """moments.csv as aggregate_reports gave it: (group, kind, a, b) -> (mean, se)."""
    report = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith(("#", "group,")):
                group, kind, a, b, mean, se = line.split(",")
                if kind not in ("second", "power"):
                    raise KeyError(kind)
                group = group if group == "all" else "block%d" % int(group.replace("block", ""))
                report[group, kind, int(a), int(b)] = (float(mean), float(se) if se else 0.0)
    return report


# ---------------------------------------------------------------------------
# se
# ---------------------------------------------------------------------------

def build_kernel(cfg):
    """The SE kernel of cfg's AMP run, from the AMPConfig and EnsembleSpec that
    `amp` reads, so `se` rejects every config that `amp` rejects."""
    acfg, spec = _amp_config_from(cfg), _ensemble_from_config(cfg)
    fs, T = acfg.nonlinearities, acfg.T
    if acfg.mode == "scalar_kappa":
        return se_mod.se_orthogonal(fs, acfg.kappa, T, acfg.init)
    if acfg.mode == "punctured_kappa":
        return se_mod.se_punctured(fs, acfg.kappa, T)
    if spec.kind == "block_goe":  # block_goe or exact_treelike mode
        return se_mod.se_block_goe(fs, spec.sigma_matrix(), spec.q, T, acfg.init)
    if acfg.mode == "block_goe":
        raise ValueError("no SE preset for block_goe mode on %r" % spec.kind)
    if spec.kind == "community":  # exact_treelike from here on
        kin = ensembles.community_kappa_table(spec.q, spec.inner or "rom",
                                              length=max(8, 2 * T))
        return se_mod.se_community(fs, kin, spec.q, T)
    kind, punctured, law = _law(spec)
    if law and not punctured and kind not in ensembles.DETERMINISTIC:
        return se_mod.se_orthogonal(fs, named_table(law[0], 2 * T), T)
    raise ValueError("no SE preset for treelike mode on %r" % spec.kind)


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
    worst = max(rows, key=lambda r: r["z"])
    print("compared %d statistics; %s (worst z = %.2f at %s)"
          % (len(rows), "PASS" if passed else "FAIL", worst["z"], worst["stat"]))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _threshold(text):
    value = float(text)
    if not 0 < value < float("inf"):  # nan fails both
        raise argparse.ArgumentTypeError("must be a positive finite number, not %r" % text)
    return value


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
    s.add_argument("--threshold", type=_threshold, default=4.0,
                   help="largest z that passes (a positive finite number)")
    _add_globals(s)
    s.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("argument --threads: must be at least 1, not %d" % args.threads)
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
