"""Matrix persistence in the TAMP0001 binary format."""

import struct

import numpy as np

MAGIC = b"TAMP0001"


def write_matrix(path, m):
    m = np.ascontiguousarray(np.asarray(m, dtype="<f8"))
    if m.ndim != 2:
        raise ValueError("TAMP0001 stores 2-d arrays")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def read_matrix(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError("not a TAMP0001 file: %r" % magic)
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError("truncated TAMP0001 file")
    return data.reshape(rows, cols).astype(np.float64)
