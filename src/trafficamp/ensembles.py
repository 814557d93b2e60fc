"""Matrix ensembles: GOE, Wigner, Haar-orthogonal, ROM, Fourier-type
deterministic matrices, their puncturings, and block models.

All generation is driven by a counter-based Philox stream keyed by
(seed, stream), so identical specs reproduce bit-identical matrices
regardless of generation order or thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from . import diagrams, graphpoly

KINDS = ("goe", "wigner", "haar_orthogonal", "rom", "r_rom", "hadamard",
         "dst", "dct", "punctured", "block_goe", "community", "orth_invariant")

# the fields beyond kind, n and seed that each kind reads; punctured also
# passes its fields on to its inner kind
READS = {"wigner": ("entry_law",), "punctured": ("inner",), "block_goe": ("q", "sigma"),
         "community": ("q", "inner"), "orth_invariant": ("eigenvalues",)}


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    seed: int = 0
    entry_law: str = "normal"          # wigner: normal | rademacher
    inner: str = None                  # punctured: inner kind; community: rom | goe
    q: int = None                      # block kinds
    sigma: tuple = None                # block_goe: q x q rows, flattened row-major
    eigenvalues: str = None            # orth_invariant: rademacher | semicircle | uniform

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown ensemble kind %r" % self.kind)
        reads = READS.get(self.kind, ()) + (READS.get(self.inner, ())
                                            if self.kind == "punctured" else ())
        for f in fields(self)[3:]:
            value = getattr(self, f.name)
            if f.name not in reads and value != f.default:
                raise ValueError("ensemble field %r is set to %r, but kind %r does "
                                 "not read it" % (f.name, value, self.kind))
        if self.n < 1:
            raise ValueError("ensemble field 'n' must be positive, not %r" % self.n)
        if self.kind == "hadamard" and self.n & (self.n - 1):
            raise ValueError("hadamard needs n a power of 2")
        if self.kind in ("block_goe", "community"):
            if not self.q or self.n % self.q:
                raise ValueError("block kinds need q dividing n")
        if self.kind == "community" and self.inner not in (None, "rom", "goe"):
            raise ValueError("ensemble field 'inner' must be 'rom' or 'goe', not %r" % self.inner)
        if self.entry_law not in ("normal", "rademacher"):
            raise ValueError("ensemble field 'entry_law' must be 'normal' or 'rademacher', "
                             "not %r" % self.entry_law)
        if self.eigenvalues not in (None, "rademacher", "semicircle", "uniform"):
            raise ValueError("ensemble field 'eigenvalues' must be 'rademacher', "
                             "'semicircle' or 'uniform', not %r" % self.eigenvalues)
        if self.kind == "block_goe":
            if self.sigma is None or np.size(self.sigma) != self.q * self.q:
                raise ValueError("block_goe needs sigma with q*q = %d entries"
                                 % (self.q * self.q))
            s = self.sigma_matrix()
            if not np.allclose(s, s.T) or np.any(s < 0):
                raise ValueError("sigma must be symmetric with nonnegative entries")
        if self.kind == "punctured" and (self.inner is None or self.inner == "punctured"):
            raise ValueError("punctured needs a non-punctured inner kind")

    def sigma_matrix(self):
        return np.asarray(self.sigma, dtype=np.float64).reshape(self.q, self.q)

    def to_json(self):
        out = {"kind": self.kind, "n": self.n, "seed": self.seed}
        if "wigner" in (self.kind, self.inner):
            out["entry_law"] = self.entry_law
        if self.inner is not None:
            out["inner"] = self.inner
        if self.q is not None:
            out["q"] = self.q
        if self.sigma is not None:
            out["sigma"] = list(self.sigma)
        if self.eigenvalues is not None:
            out["eigenvalues"] = self.eigenvalues
        return out

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(kind=obj["kind"], n=int(obj["n"]), seed=int(obj.get("seed", 0)),
                   entry_law=obj.get("entry_law", "normal"),
                   inner=obj.get("inner"), q=obj.get("q"),
                   sigma=tuple(obj["sigma"]) if "sigma" in obj else None,
                   eigenvalues=obj.get("eigenvalues"))


@dataclass(frozen=True)
class GeneratedMatrix:
    values: np.ndarray
    spec: EnsembleSpec


def stream_rng(seed, stream=0):
    """Philox generator keyed by (seed, stream): reproducible parallel draws."""
    key = np.array([np.uint64(seed & (2 ** 64 - 1)), np.uint64(stream & (2 ** 64 - 1))])
    return np.random.Generator(np.random.Philox(key=key))


def puncture(m):
    """Conjugate by the projection orthogonal to the all-ones vector.

    O(n^2) time with one n x n copy of the input, which is not modified; the
    result is centered and symmetrized in that copy.
    """
    out = np.array(m, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError("puncture needs a square matrix")
    return _puncture_in_place(out)


def _puncture_in_place(a):
    """puncture(a), computed in a's own buffer; returns a."""
    n = a.shape[0]
    col = a.sum(axis=1) / n
    _symmetrize(a, col, col.sum() / n)
    return a


# rows per strip of the symmetric fills and of _trig_matrix
_TILE = 64
# edge of _symmetrize's tiles; two such tiles are its only scratch memory
_SYM_TILE = 128
# bytes of draws that one fill call of _symmetric_fill stages
_STAGE_BYTES = 1 << 16


def _tiles(n, width=_TILE):
    return [(i, min(i + width, n)) for i in range(0, n, width)]


def _symmetrize(a, col=None, tot=0.0):
    """Replace square `a` by (b + b.T) / 2.0 in place, in one pass over pairs
    of mirror tiles, where b = a, or b = ((a - col[:, None]) - col[None, :]) + tot
    when col is given."""
    tiles = _tiles(a.shape[0], _SYM_TILE)
    u, v = np.empty((2, tiles[0][1], tiles[0][1]))
    for k, (i, e) in enumerate(tiles):
        for j, f in tiles[k:]:
            x, s, t = a[i:e, j:f], u[:e - i, :f - j], v[:f - j, :e - i]
            t[...] = a[j:f, i:e]  # t.T is read fast here; a[j:f, i:e].T is not
            if col is not None:
                x = np.subtract(x, col[i:e, None], out=s)
                x -= col[None, j:f]
                x += tot
                t -= col[j:f, None]
                t -= col[None, i:e]
                t += tot
            np.add(x, t.T, out=s)
            s /= 2.0
            a[i:e, j:f] = s
            a[j:f, i:e] = s.T


def _symmetric_fill(n, k, fill, out=None):
    """Symmetric n x n matrix whose upper triangle (diagonal included when
    k == 0, strict when k == 1) holds, in row-major order, the values that
    successive fill(z) calls write into 1-d arrays z; the diagonal is left
    unset when k == 1.

    Per strip of _TILE rows, each group of rows that fits in _STAGE_BYTES is
    drawn by one fill call into a staging buffer and copied into place, and
    the strip is then mirrored below the diagonal.  A stream's draws follow
    one another, so calls split at row boundaries draw the values of one call.
    """
    a = np.empty((n, n)) if out is None else out
    rows = max(1, min(_TILE, _STAGE_BYTES // (8 * n)))
    stage = np.empty(rows * n)
    for i, e in _tiles(n):
        for r in range(i, e, rows):
            s = min(r + rows, e)
            z = stage[:(s - r) * (2 * (n - k) - r - s + 1) // 2]
            fill(z)
            z += 0.0  # maps -0.0 to +0.0, as adding a zero lower triangle did
            for j in range(r, s):  # row j, and its mirror inside the strip
                a[j, j + k:] = z[:n - j - k]
                a[j + k:e, j] = z[:e - j - k]
                z = z[n - j - k:]
        a[e:, i:e] = a[i:e, e:].T
    return a


def _goe_fill(rng, n, off_std, diag_std, out=None):
    def fill(z):
        rng.standard_normal(out=z)
        z *= off_std
    a = _symmetric_fill(n, 1, fill, out)
    np.fill_diagonal(a, rng.standard_normal(n) * diag_std)
    return a


def _wigner_fill(rng, n, entry_law, out=None):
    if entry_law == "normal":
        def fill(z):
            rng.standard_normal(out=z)
            z /= np.sqrt(n)
    else:  # rademacher, the one other law that EnsembleSpec accepts
        def fill(z):
            np.multiply(rng.integers(0, 2, size=len(z)), 2.0, out=z)
            z -= 1.0
            z /= np.sqrt(n)
    return _symmetric_fill(n, 0, fill, out)


def _haar(rng, n, out=None):
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return np.multiply(q, np.sign(np.diag(r))[None, :], out=out)


def _conjugated(rng, n, eigenvalues, out=None):
    """Q diag(lam) Q^T for a Haar Q and sampled eigenvalues, symmetrized."""
    q = _haar(rng, n)
    lam = _eigen_sample(rng, n, eigenvalues)
    m = np.matmul(q * lam[None, :], q.T, out=out)
    _symmetrize(m)
    return m


def hadamard_matrix(n):
    """Sylvester-Walsh-Hadamard matrix scaled to be orthogonal; n a power of 2.

    Every entry is +-c with c = 1.0 divided by sqrt(2.0) once per doubling, so
    it is built by in-place doubling from h[0, 0] = c.  The top-right block is
    copied row by row: as one block its source and destination share address
    bounds, so numpy would stage it through a temporary copy.
    """
    if n < 1 or n & (n - 1):
        raise ValueError("hadamard needs n a power of 2")
    c = 1.0
    for _ in range(int(n).bit_length() - 1):
        c /= np.sqrt(2.0)
    h = np.empty((n, n))
    h[0, 0] = c
    s = 1
    while s < n:
        for r in range(s):
            h[r, s:2 * s] = h[r, :s]
        h[s:2 * s, :s] = h[:s, :s]
        np.negative(h[:s, :s], out=h[s:2 * s, s:2 * s])
        s *= 2
    return h


def _trig_matrix(x, div, trig, scale):
    """Symmetric matrix of entries ((((x_i * x_j) * pi) / div) -> trig) * scale,
    evaluated on and above the diagonal only: per strip of _TILE rows, on the
    columns from the strip's first row on, then mirrored below the diagonal."""
    a = np.empty((len(x), len(x)))
    for i, e in _tiles(len(x)):
        s = np.multiply(x[i:e, None], x[None, i:], out=a[i:e, i:])
        s *= np.pi
        s /= div
        trig(s, out=s)
        s *= scale
        a[e:, i:e] = a[i:e, e:].T
    return a


def dst_matrix(n):
    """sqrt(2/(n+1)) sin(pi i j/(n+1)), i, j = 1..n; sin on the upper triangle only."""
    return _trig_matrix(np.arange(1, n + 1, dtype=np.float64), n + 1, np.sin,
                        np.sqrt(2.0 / (n + 1)))


def dct_matrix(n):
    """sqrt(2/n) cos(pi (i-1/2)(j-1/2)/n), i, j = 1..n; cos on the upper triangle only."""
    return _trig_matrix(np.arange(1, n + 1) - 0.5, n, np.cos, np.sqrt(2.0 / n))


DETERMINISTIC = {"hadamard": hadamard_matrix, "dst": dst_matrix, "dct": dct_matrix}


def generate(spec, stream=0, out=None):
    """Sample (or construct) a matrix for the spec; deterministic in (spec, stream).
    Written over `out`, a row-major float64 n x n array or view, when given."""
    rng = stream_rng(spec.seed, stream)
    n = spec.n
    kind = spec.kind
    if kind == "goe":
        m = _goe_fill(rng, n, np.sqrt(1.0 / n), np.sqrt(2.0 / n), out)
    elif kind == "wigner":
        m = _wigner_fill(rng, n, spec.entry_law, out)
    elif kind == "haar_orthogonal":
        # raw Haar draw; orthogonal but not symmetric (building block for
        # rom / orth_invariant, which conjugate it into symmetric matrices)
        m = _haar(rng, n, out)
    elif kind == "rom":
        m = _conjugated(rng, n, "rademacher", out)
    elif kind in ("r_rom", "punctured"):
        inner = replace(spec, kind="rom" if kind == "r_rom" else spec.inner, inner=None)
        m = _puncture_in_place(generate(inner, stream, out).values)
    elif kind in DETERMINISTIC:  # built afresh, then copied into `out`
        m = DETERMINISTIC[kind](n)
        if out is not None:
            out[...] = m
            m = out
    elif kind == "block_goe":
        m = np.empty((n, n)) if out is None else out
        _goe_blocks(rng, m, spec.q, spec.sigma_matrix())
    elif kind == "community":
        m = _community(rng, n, spec.q, spec.inner or "rom", out)
    elif kind == "orth_invariant":
        m = _conjugated(rng, n, spec.eigenvalues or "rademacher", out)
    else:  # pragma: no cover
        raise AssertionError(kind)
    return GeneratedMatrix(m, spec)


def _eigen_sample(rng, n, name):
    if name == "rademacher":
        return rng.integers(0, 2, size=n) * 2.0 - 1.0
    if name == "uniform":
        return rng.uniform(-1.0, 1.0, size=n)
    # semicircle, the one other sampler that EnsembleSpec accepts: accept-reject
    # against the semicircle density on [-2, 2]
    out = np.empty(n)
    have = 0
    while have < n:
        x = rng.uniform(-2.0, 2.0, size=2 * (n - have))
        u = rng.uniform(0.0, 1.0, size=2 * (n - have))
        keep = x[u < np.sqrt(4.0 - x ** 2) / 2.0]
        take = min(len(keep), n - have)
        out[have:have + take] = keep[:take]
        have += take
    return out


def _goe_blocks(rng, m, q, sigma, skip_first=False):
    """Fill the q x q blocks of m on and above the block diagonal, in
    row-major order and in place, with GOE fills of entry variance
    sigma[r, c] / n; the blocks are themselves symmetric, so block (c, r)
    repeats block (r, c).  skip_first leaves block (0, 0) alone."""
    n = m.shape[0]
    b = n // q
    for r in range(q):
        for c in range(r, q):
            if skip_first and r == c == 0:
                continue
            blk = m[r * b:(r + 1) * b, c * b:(c + 1) * b]
            _goe_fill(rng, b, np.sqrt(sigma[r, c] / n),
                      np.sqrt(2.0 * sigma[r, c] / n), blk)
            if c != r:
                m[c * b:(c + 1) * b, r * b:(r + 1) * b] = blk


def _community(rng, n, q, inner, out=None):
    """One distinguished diagonal block with block-scale kappa_2 = 1/q, all
    other blocks GOE with entry variance 1/n."""
    m = np.empty((n, n)) if out is None else out
    b = n // q
    blk = m[:b, :b]
    if inner == "rom":
        _conjugated(rng, b, "rademacher", blk)
    else:  # goe, the one other inner kind that EnsembleSpec accepts
        _goe_fill(rng, b, np.sqrt(1.0 / b), np.sqrt(2.0 / b), blk)
    blk *= 1.0 / np.sqrt(q)
    _goe_blocks(rng, m, q, np.ones((q, q)), skip_first=True)
    return m


def block_labels(n, q):
    return np.repeat(np.arange(q), n // q)


def community_kappa_table(q, inner="rom", length=8):
    """Block-scale cumulant table of the community model's distinguished block."""
    from .freeprob import named_table, CumulantTable
    base = named_table(inner, length)
    vals = tuple(v / q ** (k / 2.0) for k, v in zip(range(1, length + 1), base.values))
    return CumulantTable(vals, "cumulants")


NORM_ITERS, NORM_TOL, NORM_SEED = 200, 1e-10, 0  # operator_norm's power iteration


def operator_norm(m):
    """Spectral norm by power iteration on the symmetric matrix."""
    rng = stream_rng(NORM_SEED, 987654321)
    v = rng.standard_normal(m.shape[0])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(NORM_ITERS):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
        if abs(norm - last) < NORM_TOL * max(1.0, norm):
            break
        last = norm
    return float(norm)


def delocalization_audit(m, diagram_set, budget=None):
    """Delocalization report for one matrix: spectral norm, max off-diagonal
    open-cactus entry per diagram, and the centered cactus-vector norms.

    Each entry of diagram_set must pass diagrams.check_open_cactus; all are
    checked before anything is evaluated.  Each matrix value is one eval_w
    call, so `budget` covers the whole diagram, base path included.  The
    diagrams are not batched into one eval_catalog call: that would hold all
    their n x n values at once, and for the three default open cactuses it
    raises the peak memory of a cactus-audit run by about 8%.
    """
    for d in diagram_set:
        diagrams.check_open_cactus(d)
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    report = {"n": n, "norm": operator_norm(m), "diagrams": []}
    for d in diagram_set:
        w = graphpoly.eval_w(d, m, budget=budget)
        off = w - np.diag(np.diag(w))
        maxoff = float(np.max(np.abs(off)))
        diag = np.diag(w).copy()
        centered = diag - diag.mean()
        report["diagrams"].append({
            "diagram": str(d),
            "max_offdiag": maxoff,
            "centered_vec_norm": float(np.linalg.norm(centered) / np.sqrt(n)),
        })
    return report
