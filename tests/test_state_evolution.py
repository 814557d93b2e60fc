import numpy as np
import pytest

from trafficamp.amp import AMPTrace, empirical_state
from trafficamp.ensembles import community_kappa_table
from trafficamp.freeprob import CumulantTable, named_table
from trafficamp.state_evolution import (SEDivergenceError, SEKernel,
                                        aggregate_reports,
                                        compare_empirical,
                                        gaussian_power_moment, se_block_goe,
                                        se_community, se_orthogonal,
                                        se_punctured)


def test_goe_identity_kernel():
    k = se_orthogonal(["identity"] * 3, named_table("goe"), 3)
    assert np.allclose(k.gamma, np.eye(3), atol=1e-12)


def test_single_step_kernel():
    kt = CumulantTable((0.0, 2.5), "cumulants")
    k = se_orthogonal(["identity"], kt, 1)
    assert abs(k.gamma[0, 0] - 2.5) < 1e-12


def test_rom_identity_degenerates():
    # on a symmetric orthogonal model with f = x the second iterate vanishes
    k = se_orthogonal(["identity"] * 2, named_table("rom"), 2)
    assert abs(k.gamma[1, 1]) < 1e-12
    k3 = se_orthogonal(["identity"] * 3, named_table("rom", 8), 3)
    assert abs(k3.gamma[2, 2] - 1.0) < 1e-12
    assert abs(k3.gamma[0, 2] + 1.0) < 1e-12  # x_3 = -x_1 in the limit


def test_punctured_kernel_values():
    k = se_punctured(["identity"] + ["cube_hermite"] * 3, named_table("rom"), 4)
    diag = np.diag(k.gamma)
    assert abs(diag[0] - 1.0) < 1e-12
    assert abs(diag[1] - 6.0) < 1e-12
    assert abs(diag[2] - 1296.0) < 1e-9
    k1 = se_punctured(["identity"], named_table("rom"), 1)
    assert abs(k1.gamma[0, 0] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        se_punctured(["cube_hermite"], named_table("rom"), 1)


def test_punctured_equals_orthogonal_when_centered():
    # all f_t centered under the running kernel: identical recursions except
    # the deterministic first coordinate, which matches f_0(1) = 1 vs Fbar_0 = 1
    fs = ["identity", "cube_hermite", "cube_hermite"]
    kp = se_punctured(fs, named_table("rom"), 3)
    ko = se_orthogonal(fs, named_table("rom"), 3)
    assert np.allclose(kp.gamma, ko.gamma, atol=1e-9)


def test_block_q1_equals_orthogonal():
    for fs in (["identity"] * 4,
               ["identity", "square_centered", "cube_hermite", "identity"]):
        kb = se_block_goe(fs, [[1.0]], 1, 4)
        ko = se_orthogonal(fs, named_table("goe"), 4)
        assert np.allclose(kb.gammas[0], ko.gamma, atol=1e-12)


def test_block_decoupled():
    k = se_block_goe(["identity"] * 3, np.eye(2), 2, 3)
    assert len(k.gammas) == 2 and k.weights == (0.5, 0.5)
    # each block runs a GOE chain with matrix-scale kappa_2 = 1/q
    assert np.allclose(np.diag(k.gammas[0]), [0.5, 0.25, 0.125], atol=1e-12)
    assert np.allclose(k.gammas[0], k.gammas[1])


def test_block_offdiagonal_sigma():
    k = se_block_goe(["identity"] * 2, [[0.0, 1.0], [1.0, 0.0]], 2, 2)
    # variance of x_1 = sum_c sigma[r,c]/q = 1/2 under either block
    assert abs(k.gammas[0][0, 0] - 0.5) < 1e-12


def test_community_kernels():
    q = 4
    goe_inner = CumulantTable(tuple(1.0 / q if i == 1 else 0.0 for i in range(8)),
                              "cumulants")
    k = se_community(["identity"] * 3, goe_inner, q, 3)
    assert k.weights == (0.75, 0.25)
    assert np.allclose(k.gammas[0], k.gammas[1], atol=1e-12)
    kin = community_kappa_table(q, "rom")
    k2 = se_community(["identity"] * 3, kin, q, 3)
    assert abs(k2.gammas[1][1, 1] - (1.0 - 1.0 / q ** 2)) < 1e-12
    with pytest.raises(ValueError):
        se_community(["identity"], named_table("rom"), 4, 1)  # kappa_2 != 1/q


def test_kernel_properties():
    k = se_punctured(["identity"] + ["cube_hermite"] * 2, named_table("rom"), 3)
    g = k.gamma
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g).min() > -1e-9 * abs(g).max()
    with pytest.raises(ValueError):
        SEKernel((np.array([[1.0, 2.0], [2.0, 1.0]]),), (1.0,), "orthogonal", 2)


def test_kernel_json_roundtrip():
    k = se_block_goe(["identity"] * 2, [[1.0, 0.5], [0.5, 1.0]], 2, 2)
    back = SEKernel.from_json(k.to_json())
    for a, b in zip(k.gammas, back.gammas):
        assert np.allclose(a, b)
    assert back.weights == k.weights


def test_gaussian_power_moment():
    assert gaussian_power_moment(2.0, 4) == 12.0
    assert gaussian_power_moment(3.0, 3) == 0.0
    assert gaussian_power_moment(1.0, 6) == 15.0


def test_compare_calibration():
    rng = np.random.default_rng(0)
    gam = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.5], [0.0, 0.5, 1.5]])
    chol = np.linalg.cholesky(gam)
    states = []
    for _ in range(20):
        x = chol @ rng.standard_normal((3, 50000))
        tr = AMPTrace(np.ones(50000), x, {}, "synthetic")
        states.append(empirical_state(tr, max_power=4))
    rep = aggregate_reports(states)
    kern = SEKernel((gam,), (1.0,), "orthogonal", 3)
    rows, ok = compare_empirical(kern, rep, threshold=4.0)
    assert ok
    # a shifted kernel must fail
    bad = SEKernel((gam + np.eye(3),), (1.0,), "orthogonal", 3)
    _, ok_bad = compare_empirical(bad, rep, threshold=4.0)
    assert not ok_bad


def test_recursion_well_founded():
    # entries depend only on strictly smaller indices: growing T never
    # changes already-computed entries
    fs = ["identity", "cube_hermite", "square_centered", "identity"]
    k4 = se_orthogonal(fs, named_table("rom"), 4)
    k2 = se_orthogonal(fs[:2], named_table("rom", 4), 2)
    assert np.allclose(k4.gamma[:2, :2], k2.gamma, atol=1e-12)
    p4 = se_punctured(fs, named_table("rom"), 4)
    p3 = se_punctured(fs[:3], named_table("rom", 6), 3)
    assert np.allclose(p4.gamma[:3, :3], p3.gamma, atol=1e-12)


def test_aggregate_reports_block():
    rng = np.random.default_rng(1)
    states = []
    for _ in range(4):
        x = rng.standard_normal((2, 100))
        tr = AMPTrace(np.ones(100), x, {}, "synthetic")
        states.append(empirical_state(tr, block_labels=[0] * 50 + [1] * 50,
                                      max_power=2))
    rep = aggregate_reports(states)
    assert set(rep["blocks"]) == {0, 1}
    mean, se = rep["blocks"][0]["second"][(1, 1)]
    assert se > 0


def test_se_divergence_names_first_nonfinite_step():
    fs = ["identity"] + ["cube_hermite"] * 7
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SEDivergenceError, match="t=8") as exc:
            se_orthogonal(fs, named_table("rom", 16), 8)
        assert exc.value.t == 8
        # one step earlier the kernel is still finite
        assert np.isfinite(se_orthogonal(fs, named_table("rom", 14), 7).gamma).all()


@pytest.mark.parametrize("variant, t", [("punctured", 8), ("community", 7)])
def test_se_divergence_in_other_variants(variant, t):
    fs = ["identity"] + ["cube_hermite"] * 7
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SEDivergenceError) as exc:
            if variant == "punctured":
                se_punctured(fs, named_table("rom", 16), 8)
            else:
                se_community(fs, community_kappa_table(4, "rom", length=16), 4, 8)
    assert exc.value.t == t
