import json
import tracemalloc

import numpy as np
import pytest

from trafficamp import ensembles
from trafficamp.diagrams import Diagram
from trafficamp.ensembles import (EnsembleSpec, block_labels,
                                  community_kappa_table, delocalization_audit,
                                  dst_matrix, generate,
                                  hadamard_matrix, operator_norm, puncture,
                                  stream_rng)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("hadamard", 12)      # not a power of two
    with pytest.raises(ValueError):
        EnsembleSpec("block_goe", 10, q=3, sigma=(1,) * 9)  # q does not divide n
    with pytest.raises(ValueError):
        EnsembleSpec("block_goe", 12, q=2, sigma=(1, 2, 3, 4))  # asymmetric
    with pytest.raises(ValueError):
        EnsembleSpec("nope", 4)
    spec = EnsembleSpec("block_goe", 12, q=2, sigma=(1, 0.5, 0.5, 1))
    back = EnsembleSpec.from_json(spec.to_json())
    assert back == spec


@pytest.mark.parametrize("fields, unread", [
    (dict(kind="goe", entry_law="rademacher"), "entry_law"),
    (dict(kind="hadamard", inner="dst"), "inner"),
    (dict(kind="rom", q=2), "q"),
    (dict(kind="community", q=2, sigma=(1.0,) * 4), "sigma"),
    (dict(kind="wigner", eigenvalues="uniform"), "eigenvalues"),
    (dict(kind="punctured", inner="goe", entry_law="rademacher"), "entry_law"),
    (dict(kind="punctured", inner="community", q=2, sigma=(1.0,) * 4), "sigma"),
])
def test_spec_rejects_fields_its_kind_does_not_read(fields, unread):
    with pytest.raises(ValueError, match="ensemble field %r is set to" % unread):
        EnsembleSpec(n=8, **fields)


def test_hadamard():
    h2 = generate(EnsembleSpec("hadamard", 2)).values
    assert np.allclose(h2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    h = generate(EnsembleSpec("hadamard", 64)).values
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(h @ h - np.eye(64))) < 1e-9
    assert np.max(np.abs(h)) <= 1 / np.sqrt(64) + 1e-12


def test_dst_dct():
    for kind in ("dst", "dct"):
        for n in (16, 50):
            h = generate(EnsembleSpec(kind, n)).values
            assert np.array_equal(h, h.T)
            assert np.max(np.abs(h @ h - np.eye(n))) < 1e-9
            assert np.max(np.abs(h)) <= np.sqrt(2.0 / n) + 1e-12


def test_rom_eigenvalues():
    m = generate(EnsembleSpec("rom", 256, seed=1)).values
    ev = np.linalg.eigvalsh(m)
    assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-8
    assert np.array_equal(m, m.T)


def test_goe_moments():
    n = 1024
    m = generate(EnsembleSpec("goe", n, seed=2)).values
    off = m[np.triu_indices(n, 1)]
    assert abs(off.var() * n - 1.0) < 0.02
    assert abs(np.diag(m).var() * n - 2.0) < 0.3
    assert np.array_equal(m, m.T)


def test_wigner_rademacher():
    n = 512
    m = generate(EnsembleSpec("wigner", n, seed=3, entry_law="rademacher")).values
    vals = np.unique(np.abs(m[np.triu_indices(n, 1)]))
    assert np.allclose(vals, 1.0 / np.sqrt(n))
    tr2 = np.trace(m @ m) / n
    assert abs(tr2 - 1.0) < 0.1


def test_reproducibility():
    spec = EnsembleSpec("goe", 64, seed=7)
    a = generate(spec, stream=3).values
    b = generate(spec, stream=3).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generate(spec, stream=4).values)
    assert not np.array_equal(
        a, generate(EnsembleSpec("goe", 64, seed=8), stream=3).values)


def test_puncture():
    n = 64
    proj = np.eye(n) - np.ones((n, n)) / n
    assert np.allclose(puncture(np.eye(n)), proj, atol=1e-12)
    assert np.allclose(puncture(proj), proj, atol=1e-12)  # idempotent
    assert np.allclose(puncture(np.ones((n, n))), 0.0, atol=1e-10)
    m = generate(EnsembleSpec("goe", n, seed=2)).values
    assert np.allclose(puncture(m), proj @ m @ proj, atol=1e-12)
    assert np.max(np.abs(puncture(m) @ np.ones(n))) < 1e-10 * np.sqrt(n)
    with pytest.raises(ValueError):
        puncture(np.zeros((3, 4)))


def test_punctured_forwards_block_fields_to_its_inner_kind():
    for inner in (dict(inner="block_goe", q=2, sigma=(1.0, 0.5, 0.5, 1.0)),
                  dict(inner="community", q=2)):
        got = generate(EnsembleSpec("punctured", 8, 1, **inner), stream=3).values
        fields = dict(inner, kind=inner.pop("inner"))
        want = puncture(generate(EnsembleSpec(n=8, seed=1, **fields), stream=3).values)
        assert got.tobytes() == want.tobytes(), fields


def test_puncture_hadamard_two_path():
    n = 1024
    h = generate(EnsembleSpec("hadamard", n)).values
    a = puncture(h)
    ones = np.ones(n)
    w_h = ones @ (h @ (h @ ones))
    w_a = ones @ (a @ (a @ ones))
    assert abs((w_h - w_a) / n - 1.0) < 0.05


def test_block_goe():
    n, q = 128, 2
    sigma = (1.0, 0.5, 0.5, 1.0)
    m = generate(EnsembleSpec("block_goe", n, seed=3, q=q, sigma=sigma)).values
    assert np.array_equal(m, m.T)
    b = n // q
    blk = m[:b, b:]
    assert np.array_equal(blk, blk.T)  # symmetric blocks variant
    assert list(block_labels(6, 3)) == [0, 0, 1, 1, 2, 2]


def test_community():
    n, q = 128, 4
    m = generate(EnsembleSpec("community", n, seed=4, q=q, inner="rom")).values
    assert np.array_equal(m, m.T)
    b = n // q
    ev = np.linalg.eigvalsh(m[:b, :b] * np.sqrt(q))
    assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-8
    kt = community_kappa_table(q, "rom")
    assert abs(kt[2] - 1.0 / q) < 1e-12
    assert kt[4] == -1.0 / q ** 2


def test_orth_invariant():
    m = generate(EnsembleSpec("orth_invariant", 128, seed=5,
                              eigenvalues="rademacher")).values
    ev = np.linalg.eigvalsh(m)
    assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-8


def test_haar_smoke():
    n = 64
    vals = [ensembles._haar(stream_rng(s), n)[0, 0] ** 2 for s in range(200)]
    mean, se = np.mean(vals), np.std(vals) / np.sqrt(len(vals))
    assert abs(mean - 1.0 / n) < 3 * se + 1e-12


def test_operator_norm():
    rng = stream_rng(0, 1)
    a = rng.standard_normal((64, 64))
    a = (a + a.T) / 2
    assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-6


def test_delocalization_audit():
    oc2 = Diagram(3, ((0, 1), (1, 2)), (0, 2))
    octri = Diagram(4, ((0, 1), (1, 2), (2, 3), (3, 1)), (0, 1))
    h = generate(EnsembleSpec("hadamard", 64)).values
    rep = delocalization_audit(h, [oc2, octri])
    assert rep["diagrams"][0]["max_offdiag"] < 1e-10  # H^2 = I
    assert rep["diagrams"][1]["max_offdiag"] > 0
    vals = []
    for n in (64, 256, 1024):
        h = generate(EnsembleSpec("hadamard", n)).values
        vals.append(delocalization_audit(h, [octri])["diagrams"][0]["max_offdiag"])
    assert vals[0] > vals[1] > vals[2]
    rep = delocalization_audit(np.eye(32), [octri])
    assert rep["diagrams"][0]["max_offdiag"] < 1e-12


# ---------------------------------------------------------------------------
# byte-identity oracles: the scatter-based fills, the out-of-place
# deterministic builders and the out-of-place puncture formula that the
# in-place versions replace
# ---------------------------------------------------------------------------

def _oracle_hadamard(n):
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]]) / np.sqrt(2.0)
    return h


def _oracle_dst(n):
    i = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(i, i) / (n + 1))


def _oracle_dct(n):
    i = np.arange(1, n + 1) - 0.5
    return np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(i, i) / n)


_ORACLE_DETERMINISTIC = {"hadamard": _oracle_hadamard, "dst": _oracle_dst,
                         "dct": _oracle_dct}


def _oracle_symmetrize_from_upper(rng, n, off_std, diag_std):
    a = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    a[iu] = rng.standard_normal(len(iu[0])) * off_std
    a = a + a.T
    a[np.diag_indices(n)] = rng.standard_normal(n) * diag_std
    return a


def _oracle_wigner(rng, n, entry_law):
    if entry_law == "normal":
        draw = lambda size: rng.standard_normal(size)
    else:
        draw = lambda size: rng.integers(0, 2, size=size) * 2.0 - 1.0
    a = np.zeros((n, n))
    iu = np.triu_indices(n)
    a[iu] = draw(len(iu[0])) / np.sqrt(n)
    return np.triu(a, 1) + a.T


def _oracle_puncture(m):
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    col = m.sum(axis=1) / n
    tot = col.sum() / n
    out = m - col[:, None] - col[None, :] + tot
    return (out + out.T) / 2.0


def _oracle_rom(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))
    q = q[0] * np.sign(np.diag(q[1]))[None, :]
    d = rng.integers(0, 2, size=n) * 2.0 - 1.0
    m = (q * d[None, :]) @ q.T
    return (m + m.T) / 2.0


def _oracle_block_goe(rng, n, q, sigma):
    m = np.zeros((n, n))
    b = n // q
    for r in range(q):
        for c in range(r, q):
            blk = _oracle_symmetrize_from_upper(rng, b, np.sqrt(sigma[r, c] / n),
                                                np.sqrt(2.0 * sigma[r, c] / n))
            m[r * b:(r + 1) * b, c * b:(c + 1) * b] = blk
            if c != r:
                m[c * b:(c + 1) * b, r * b:(r + 1) * b] = blk
    return m


def _oracle_community(rng, n, q, inner):
    m = np.zeros((n, n))
    b = n // q
    scale = 1.0 / np.sqrt(q)
    if inner == "rom":
        blk = _oracle_rom(rng, b) * scale
    else:
        blk = _oracle_symmetrize_from_upper(rng, b, np.sqrt(1.0 / b),
                                            np.sqrt(2.0 / b)) * scale
    m[:b, :b] = blk
    for r in range(q):
        for c in range(r, q):
            if r == 0 and c == 0:
                continue
            blk = _oracle_symmetrize_from_upper(rng, b, np.sqrt(1.0 / n),
                                                np.sqrt(2.0 / n))
            m[r * b:(r + 1) * b, c * b:(c + 1) * b] = blk
            if c != r:
                m[c * b:(c + 1) * b, r * b:(r + 1) * b] = blk
    return m


def _oracle(spec, stream):
    rng = stream_rng(spec.seed, stream)
    n = spec.n
    if spec.kind == "goe":
        return _oracle_symmetrize_from_upper(rng, n, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    if spec.kind == "wigner":
        return _oracle_wigner(rng, n, spec.entry_law)
    if spec.kind == "rom":
        return _oracle_rom(rng, n)
    if spec.kind == "r_rom":
        return _oracle_puncture(_oracle_rom(rng, n))
    if spec.kind == "punctured":
        return _oracle_puncture(_ORACLE_DETERMINISTIC[spec.inner](n))
    if spec.kind == "block_goe":
        return _oracle_block_goe(rng, n, spec.q, spec.sigma_matrix())
    if spec.kind == "community":
        return _oracle_community(rng, n, spec.q, spec.inner)
    raise AssertionError(spec.kind)


ORACLE_NS = (1, 2, 63, 64, 65, 130)  # around the edges of the 64-wide tiles
# around the edges of _symmetrize's tiles (127, 128, 129, 257)
SYM_TILE_NS = tuple(ensembles._SYM_TILE + d for d in (-1, 0, 1, ensembles._SYM_TILE + 1))


def _smallest_factor(n):
    return next((q for q in range(2, n + 1) if n % q == 0), 1)


def _zero_sigma(q):
    # zero off-diagonal variances give -0.0 draws, which the old fill's
    # a + a.T turned into +0.0
    return tuple(1.0 if r == c else (0.0 if (r + c) % 2 else 0.5)
                 for r in range(q) for c in range(q))


def _oracle_specs(n):
    q = _smallest_factor(n)
    specs = [EnsembleSpec("goe", n, seed=5),
             EnsembleSpec("wigner", n, seed=6, entry_law="normal"),
             EnsembleSpec("wigner", n, seed=6, entry_law="rademacher"),
             EnsembleSpec("rom", n, seed=7),
             EnsembleSpec("r_rom", n, seed=7),
             EnsembleSpec("block_goe", n, seed=8, q=q, sigma=_zero_sigma(q)),
             EnsembleSpec("community", n, seed=9, q=q, inner="rom"),
             EnsembleSpec("community", n, seed=9, q=q, inner="goe"),
             EnsembleSpec("punctured", n, inner="dst"),
             EnsembleSpec("punctured", n, inner="dct")]
    if not n & (n - 1):
        specs.append(EnsembleSpec("punctured", n, inner="hadamard"))
    return specs


@pytest.mark.parametrize("n", (6, 64))
def test_spec_json_round_trip(n):
    for spec in _oracle_specs(n) + [
            EnsembleSpec("punctured", n, seed=4, inner="wigner", entry_law="rademacher")]:
        back = EnsembleSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert back == spec
        assert generate(back).values.tobytes() == generate(spec).values.tobytes(), spec


@pytest.mark.parametrize("n", ORACLE_NS + SYM_TILE_NS)
def test_generate_matches_scatter_oracles_bytewise(n):
    # at n = 130 the first 64-row strip of a symmetric fill takes two fill calls
    assert ensembles._STAGE_BYTES // (8 * 130) < 64
    specs = _oracle_specs(n)
    if n in SYM_TILE_NS:  # the kinds that go through the puncture's tile loop
        specs = [spec for spec in specs if spec.kind in ("r_rom", "punctured")]
    for spec in specs:
        got = generate(spec, stream=2).values
        want = _oracle(spec, 2)
        assert got.tobytes() == want.tobytes(), spec


@pytest.mark.parametrize("n", ORACLE_NS)
def test_generate_writes_into_out(n):
    for spec in _oracle_specs(n):
        want = generate(spec, stream=2).values.tobytes()
        for out in (np.full((n, n), np.nan),
                    np.full((n + 2, n + 3), np.nan)[1:-1, 2:-1]):  # not contiguous
            assert generate(spec, stream=2, out=out).values is out, spec
            assert out.tobytes() == want, spec


@pytest.mark.parametrize("n", ORACLE_NS + SYM_TILE_NS)
def test_puncture_matches_oracle_and_keeps_input(n):
    rng = stream_rng(11, n)
    for m in (rng.standard_normal((n, n)),            # not symmetric
              hadamard_matrix(n) if n in (64, 128) else dst_matrix(n)):
        before = m.copy()
        got = puncture(m)
        assert got.tobytes() == _oracle_puncture(m).tobytes()
        assert m.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", (3,) + ORACLE_NS + SYM_TILE_NS)
def test_deterministic_builders_match_oracles_bytewise(n):
    for kind in ("dst", "dct"):
        want = _ORACLE_DETERMINISTIC[kind](n).tobytes()
        assert generate(EnsembleSpec(kind, n)).values.tobytes() == want, kind


def test_hadamard_matches_oracle_bytewise():
    for k in range(11):
        n = 2 ** k
        assert generate(EnsembleSpec("hadamard", n)).values.tobytes() \
            == _oracle_hadamard(n).tobytes(), n
    with pytest.raises(ValueError):
        hadamard_matrix(12)


# generation works in one n x n buffer: peak traced memory of one generate
# call at n = 512, in units of one n x n float64 matrix
PEAK_N = 512
PEAK_SPECS = (
    (1.3, dict(kind="goe")),
    (1.3, dict(kind="wigner", entry_law="normal")),
    # the integer draws of the upper triangle cannot go into the buffer
    (1.55, dict(kind="wigner", entry_law="rademacher")),
    (1.3, dict(kind="hadamard")),
    (1.3, dict(kind="dst")),
    (1.3, dict(kind="dct")),
    (1.3, dict(kind="punctured", inner="hadamard")),
    (1.3, dict(kind="punctured", inner="dst")),
    (1.3, dict(kind="punctured", inner="dct")),
    (1.3, dict(kind="punctured", inner="goe")),
    # blocks are filled in place
    (1.05, dict(kind="block_goe", q=2, sigma=(1.0, 0.5, 0.5, 1.0))),
    (1.1, dict(kind="community", q=2, inner="goe")),
)


def _ids(specs):
    return ["-".join(str(v) for k, v in f.items() if k != "sigma") for _, f in specs]


def _generate_peak(fields, out=None):
    """Peak traced memory of one generate call at n = PEAK_N, in units of 8n^2."""
    generate(EnsembleSpec(n=8, seed=1, **fields))  # one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = generate(EnsembleSpec(n=PEAK_N, seed=1, **fields), out=out).values
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert m.shape == (PEAK_N, PEAK_N)
    return peak / (8 * PEAK_N ** 2)


@pytest.mark.parametrize("bound,fields", PEAK_SPECS, ids=_ids(PEAK_SPECS))
def test_generate_peak_memory(bound, fields):
    assert _generate_peak(fields) <= bound


# with `out`, the symmetric fills keep only their staging buffer and the
# diagonal's draws; the other kinds' in-place ufuncs on strided views take
# numpy's iterator buffers (about 0.06 at this n)
OUT_PEAK_SPECS = ((0.05, dict(kind="goe")), (0.05, dict(kind="wigner", entry_law="normal")),
                  (0.05, dict(kind="block_goe", q=2, sigma=(1.0, 0.5, 0.5, 1.0))))


@pytest.mark.parametrize("bound,fields", OUT_PEAK_SPECS, ids=_ids(OUT_PEAK_SPECS))
def test_generate_into_out_peak_memory(bound, fields):
    assert _generate_peak(fields, out=np.full((PEAK_N, PEAK_N), np.nan)) <= bound


@pytest.mark.parametrize("n", (1, 64))
def test_successive_generates_share_no_memory(n):
    for spec in _oracle_specs(n) + [EnsembleSpec("hadamard", n),
                                    EnsembleSpec("dst", n), EnsembleSpec("dct", n),
                                    EnsembleSpec("orth_invariant", n, seed=3)]:
        a = generate(spec, stream=1).values
        b = generate(spec, stream=1).values
        assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(a, b), spec
