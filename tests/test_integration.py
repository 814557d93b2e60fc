"""Cross-module checks: open-cactus values on Fourier-type matrices,
bridged-diagram decay under puncturing, and the community-model AMP pipeline."""

import numpy as np

from trafficamp import graphpoly as gp
from trafficamp.amp import AMPConfig, empirical_state, run
from trafficamp.diagrams import CATALOG, Diagram
from trafficamp.ensembles import (EnsembleSpec, community_kappa_table,
                                  generate, puncture)
from trafficamp.state_evolution import (aggregate_reports, compare_empirical,
                                        se_community)


def test_hadamard_open_cactus_values():
    # all-even hanging cycles leave the open-cactus matrix at a power of the
    # input: identity for even base paths, the matrix itself for odd ones
    h = generate(EnsembleSpec("hadamard", 128)).values
    base2 = Diagram(5, ((0, 1), (1, 2), (1, 3), (3, 1), (2, 4), (4, 2)), (0, 2))
    w = gp.eval_w(base2, h, budget=float("inf"))
    assert np.allclose(w, np.eye(128), atol=1e-10)
    base1 = Diagram(4, ((0, 1), (0, 2), (2, 0), (1, 3), (3, 1)), (0, 1))
    w = gp.eval_w(base1, h, budget=float("inf"))
    assert np.allclose(w, h, atol=1e-10)
    # an odd hanging cycle suppresses the norm
    tri = Diagram(4, ((0, 1), (1, 2), (2, 3), (3, 1)), (0, 1))
    w = gp.eval_w(tri, h, budget=float("inf"))
    assert np.linalg.norm(w, 2) < 3.0 / np.sqrt(128)


def test_punctured_bridged_decay():
    # leafless bridged diagrams decay like n^(-1/2) after puncturing, while
    # leafy ones vanish identically (the punctured matrix kills the ones
    # vector outright)
    vals = []
    ns = [64, 256, 1024]
    for n in ns:
        a = puncture(generate(EnsembleSpec("hadamard", n)).values)
        assert abs(gp.eval_w(CATALOG["star3"], a, budget=float("inf"))) < 1e-18
        vals.append(abs(gp.eval_w(CATALOG["dumbbell"], a,
                                  budget=float("inf"))) / n)
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    assert slope <= -0.3, (vals, slope)


def test_community_pipeline_matches_mixture_kernels():
    # treelike AMP on the community model against the two-kernel mixture
    q, n, T, seeds = 4, 256, 3, 12
    fs = ["identity", "identity", "identity"]
    cfg = AMPConfig(nonlinearities=fs, T=T, mode="exact_treelike")
    inside = np.zeros(n, dtype=int)
    inside[: n // q] = 1
    states = []
    for s in range(seeds):
        m = generate(EnsembleSpec("community", n, seed=600 + s, q=q,
                                  inner="rom")).values
        tr = run(m, cfg)
        states.append(empirical_state(tr, block_labels=inside, max_power=2))
    rep = aggregate_reports(states)
    kernel = se_community(fs, community_kappa_table(q, "rom", length=2 * T), q, T)
    rows, ok = compare_empirical(kernel, rep, threshold=4.0)
    worst = max(rows, key=lambda r: r["z"])
    assert ok, (worst["group"], worst["stat"], worst["z"])
