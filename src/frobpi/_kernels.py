"""Dense row reduction mod p.

A vectorized numpy Gauss-Jordan elimination.  Reduced row echelon form is
unique, so the result agrees entry for entry with the sparse lane in
`linalg`.

No frobpi code path calls this module, and the package does not import it.
It stays only because `perfbench/worker.py` and `perfbench/tracer.py`
import it, and it is to be deleted together with those imports;
`tests/test_linalg.py` meanwhile uses it as an oracle for the sparse lane.
"""

from __future__ import annotations

import numpy as np


def rref_mod(a: np.ndarray, p: int):
    """Reduce a copy of the int64 matrix a mod p.

    Returns (rank, pivot columns as a list, reduced matrix).
    """
    a = np.array(a, dtype=np.int64, copy=True)
    if a.ndim != 2:
        raise ValueError("rref_mod expects a 2d array")
    a %= p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return r, pivots, a
