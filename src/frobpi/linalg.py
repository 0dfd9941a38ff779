"""Exact sparse linear algebra over the tagged fields.

Matrices are rows of {column: payload} dicts.  Row reduction always lands in
the fully reduced row echelon form, which is unique, so the two execution
lanes (generic sparse over any field, dense mod-p via the numpy kernel) are
interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .fields import Field, InvariantError, PrimeField

DENSE_MODP_MAX_CELLS = 4_000_000


class AmbientMismatchError(ValueError):
    """Subspace operation on spaces with different ambient dimension or field."""


class SparseMat:
    """Immutable sparse matrix; rows hold only nonzero payloads."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows, ncols: int):
        clean = []
        for r in rows:
            rr = {int(c): v for c, v in r.items() if not field.is_zero(v)}
            for c in rr:
                if not 0 <= c < ncols:
                    raise IndexError(f"column {c} outside 0..{ncols - 1}")
            clean.append(rr)
        self.field = field
        self.rows = tuple(clean)
        self.nrows = len(clean)
        self.ncols = ncols


def vec_apply(field: Field, vec: dict, rows) -> dict:
    """Row vector times matrix: sum of vec[i] * rows[i]."""
    out = {}
    for i, c in vec.items():
        row = rows[i]
        if not row:
            continue
        for j, v in row.items():
            t = c * v
            if j in out:
                out[j] = out[j] + t
            else:
                out[j] = t
    return field.post_reduce(out)


def vec_add(field: Field, a: dict, b: dict, coeff=None) -> dict:
    out = dict(a)
    for j, v in b.items():
        t = v if coeff is None else coeff * v
        if j in out:
            out[j] = out[j] + t
        else:
            out[j] = t
    return field.post_reduce(out)


def vec_scale(field: Field, a: dict, c) -> dict:
    return field.post_reduce({j: c * v for j, v in a.items()})


def vec_sub(field: Field, a: dict, b: dict) -> dict:
    out = dict(a)
    for j, v in b.items():
        if j in out:
            out[j] = out[j] - v
        else:
            out[j] = -v
    return field.post_reduce(out)


# ---------------------------------------------------------------------------
# row reduction


def _rref_generic(field: Field, rows):
    """Sparse elimination over any field.

    Pivot row choice: fewest nonzeros, then lowest leading column, then
    first entered.  The output is the canonical reduced form either way;
    the rule only controls fill-in along the way.
    """
    work = [w for w in (field.post_reduce(dict(r)) for r in rows) if w]
    done = []
    while work:
        best = min(range(len(work)), key=lambda i: (len(work[i]), min(work[i])))
        r = work.pop(best)
        c = min(r)
        inv = field.inv(r[c])
        if not field.is_zero(field.sub(inv, field.one)):
            r = {k: field.mul(v, inv) for k, v in r.items()}
        nxt = []
        for s in work:
            f = s.get(c)
            if f is not None:
                s = _axpy(field, s, f, r)
                if not s:
                    continue
            nxt.append(s)
        work = nxt
        done = [(pc, _axpy(field, pr, pr[c], r) if c in pr else pr) for pc, pr in done]
        done.append((c, r))
    done.sort()
    return [c for c, _ in done], [r for _, r in done]


def _axpy(field: Field, s: dict, f, r: dict) -> dict:
    """s - f*r with zero stripping."""
    out = dict(s)
    for k, v in r.items():
        t = f * v
        if k in out:
            out[k] = out[k] - t
        else:
            out[k] = -t
    return field.post_reduce(out)


def _rref_dense_modp(field: PrimeField, rows, ncols):
    p = field.p
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        for c, v in r.items():
            a[i, c] = v % p
    rank, pivots, red = _kernels.rref_mod(a, p)
    out = []
    for i in range(rank):
        nz = np.nonzero(red[i])[0]
        out.append({int(c): int(red[i, c]) for c in nz})
    return pivots, out


def rref_rows(field: Field, rows, ncols: int):
    """Canonical reduced row echelon form.  Returns (pivots, rows)."""
    if isinstance(field, PrimeField) and len(rows) * ncols <= DENSE_MODP_MAX_CELLS:
        return _rref_dense_modp(field, rows, ncols)
    return _rref_generic(field, rows)


@dataclass(frozen=True)
class Subspace:
    """Row space in canonical reduced form."""

    field: Field
    ambient: int
    pivots: tuple
    rows: tuple

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors):
        piv, rows = rref_rows(field, list(vectors), ambient)
        return cls(field, ambient, tuple(piv), tuple(rows))

    @property
    def dim(self):
        return len(self.pivots)

    def _check(self, other):
        if self.ambient != other.ambient or self.field.tag != other.field.tag:
            raise AmbientMismatchError(
                f"ambient {self.ambient}/{self.field.tag} vs {other.ambient}/{other.field.tag}"
            )

    def contains(self, vec: dict) -> bool:
        f = self.field
        v = f.post_reduce(dict(vec))
        for c, r in zip(self.pivots, self.rows):
            x = v.get(c)
            if x is not None:
                v = _axpy(f, v, x, r)
        return not v

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(self.field, self.ambient, list(self.rows) + list(other.rows))

    def equal(self, other: "Subspace") -> bool:
        self._check(other)
        if self.pivots != other.pivots:
            return False
        f = self.field
        for a, b in zip(self.rows, other.rows):
            if a.keys() != b.keys():
                return False
            for k in a:
                if not f.is_zero(f.sub(a[k], b[k])):
                    return False
        return True


def rref(m: SparseMat):
    """Rank and row space of m."""
    piv, rows = rref_rows(m.field, list(m.rows), m.ncols)
    return len(piv), Subspace(m.field, m.ncols, tuple(piv), tuple(rows))


def kernel(m: SparseMat) -> Subspace:
    """Right kernel {v : m v = 0} as a canonical subspace."""
    piv, rows = rref_rows(m.field, list(m.rows), m.ncols)
    f = m.field
    pivset = set(piv)
    basis = []
    for q in range(m.ncols):
        if q in pivset:
            continue
        v = {q: f.one}
        for p_, r in zip(piv, rows):
            x = r.get(q)
            if x is not None:
                v[p_] = f.neg(x)
        basis.append(v)
    out = Subspace.from_vectors(f, m.ncols, basis)
    if out.dim != m.ncols - len(piv):
        raise InvariantError(f"kernel of rank {len(piv)} in {m.ncols} columns has dim {out.dim}")
    return out


def left_kernel(field: Field, rows, ncols: int) -> Subspace:
    """{x : sum x_i rows_i = 0}, i.e. the kernel of the transpose."""
    t = [dict() for _ in range(ncols)]
    for i, r in enumerate(rows):
        for c, v in r.items():
            t[c][i] = v
    return kernel(SparseMat(field, t, len(rows)))


def subspace_ops(a: Subspace, b: Subspace, op: str):
    if op == "sum":
        return a.sum(b)
    if op == "contains":
        a._check(b)
        return all(a.contains(dict(r)) for r in b.rows)
    if op == "equal":
        return a.equal(b)
    raise ValueError(f"unknown subspace op {op!r}")


# ---------------------------------------------------------------------------
# truncated matrix power series


@dataclass(frozen=True)
class TruncSeriesMat:
    """Matrix power series sum_d M_d t^d truncated at t^order."""

    size: int
    order: int
    mats: tuple

    def coeff(self, d: int):
        return self.mats[d]


def series_inverse(c, D: int) -> TruncSeriesMat:
    """Coefficients of (I - t*C + t^2*I)^(-1) up to degree D, exactly over Q.

    The recurrence W_0 = I, W_1 = C, W_d = C W_{d-1} - W_{d-2} is the
    inversion of that quadratic matrix polynomial.
    """
    if isinstance(c, SparseMat):
        n = c.ncols
        if c.nrows != n:
            raise ValueError("series_inverse needs a square matrix")
        dense = [[c.rows[i].get(j, Fraction(0)) for j in range(n)] for i in range(n)]
    else:
        dense = [[Fraction(v) for v in row] for row in c]
        n = len(dense)
        if any(len(r) != n for r in dense):
            raise ValueError("series_inverse needs a square matrix")

    def matmul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]

    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    mats = [ident]
    if D >= 1:
        mats.append([row[:] for row in dense])
    for d in range(2, D + 1):
        w = matmul(dense, mats[d - 1])
        prev = mats[d - 2]
        for i in range(n):
            for j in range(n):
                w[i][j] -= prev[i][j]
        mats.append(w)
    frozen = tuple(tuple(tuple(r) for r in m) for m in mats)
    return TruncSeriesMat(n, D, frozen)
