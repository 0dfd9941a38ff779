"""Exact sparse linear algebra over the exact fields.

Matrices are rows of {column: payload} dicts.  Row reduction always lands in
the fully reduced row echelon form, which is unique.  Every field, F_p
included, goes through one sparse lane: the relation and centre matrices
are very sparse, and elimination that keeps them sparse beats a dense
reduction on them.

The lane reduces by leading terms, as Groebner-basis linear algebra does:
rows are taken sparsest first, each row's leading entry is cancelled
against the pivot rows kept so far until it leads at a new column, and the
kept rows are back-substituted in one pass at the end.  The matrices frobpi
reduces are nearly triangular already, so most rows are kept as they come.
A reduction works on the rows it is handed, in place: they must be reduced
and the caller's own, so a caller that holds shared or unreduced rows
hands it reduced copies, as Subspace.from_vectors does.
"""

from __future__ import annotations

import types
from dataclasses import dataclass

from .fields import Field, InvariantError


EMPTY_ROW = types.MappingProxyType({})
"""The one empty row: read-only, and stored wherever an operator row is zero."""


def vec_apply(field: Field, vec: dict, rows) -> dict:
    """Row vector times matrix: sum of vec[i] * rows[i].

    vec and every row must already be reduced (field.post_reduce(row) ==
    row), as every stored operator row is.  The result may be shared: an
    empty vector gives EMPTY_ROW, a single entry 1 * rows[i] gives rows[i]
    itself, and a zero sum gives EMPTY_ROW; only a nonzero sum is a new
    dict.  So no caller mutates a row it did not make.

    The sum is built in one dict, reduced mod p as it goes over F_p.  A
    product of two nonzero reduced payloads is nonzero and reduced, so only
    a column where two products meet can hold a zero, and the dict is
    filtered only when one of them cancelled.
    """
    if len(vec) <= 1:
        if not vec:
            return EMPTY_ROW
        ((i, c),) = vec.items()
        if c == field.one:
            return rows[i]
    p = field.p
    out = {}
    cancelled = False
    for i, c in vec.items():
        for j, v in rows[i].items():
            if j in out:
                t = out[j] + c * v if p is None else (out[j] + c * v) % p
                out[j] = t
                if not t:
                    cancelled = True
            else:
                out[j] = c * v if p is None else c * v % p
    if cancelled:
        out = {j: v for j, v in out.items() if v}
    return out or EMPTY_ROW


# ---------------------------------------------------------------------------
# row reduction


def _rref_generic(field: Field, rows, keep_from=0):
    """Sparse elimination over any field, by leading terms, sparsest row first.

    The rows, reduced in place (see the module docstring), are taken in
    order of nonzero count, fewest first; the sort is stable.  A row's
    leading entry is cancelled against the pivot row kept for that column
    until the row leads at a column that has none, or vanishes; it is then
    scaled to lead with one and kept as that column's pivot row.  The kept
    rows are back-substituted once, in descending pivot column order, each
    by the already reduced rows whose pivots it holds.  The output is the
    canonical reduced form whatever the order; the order only controls
    fill-in along the way.

    The relation and centre matrices are nearly in echelon form already:
    every build relation matrix of the benchmark argvs has pairwise
    distinct leading columns (t4 over Q to D = 41: 3,680 of 3,680 rows;
    bikwad over F_5 to D = 49: 5,280 of 5,280), the centre's augmented
    rows have 76 distinct leading columns per 100 rows, and rows carry 2-3
    nonzeros.  Most rows are kept as they come, and no pivot looks for the
    other rows that hold its column, so no column index or heap is kept.

    Only the rows with pivot column >= keep_from are back-substituted; only
    rows with a higher pivot reduce such a row, so these come out exactly as
    in the full reduction, and the pivots are the same.
    """
    reduced = {}
    for r in sorted(rows, key=len):
        while r:
            c = min(r)
            p = reduced.get(c)
            if p is None:
                if r[c] != field.one:
                    inv = field.inv(r[c])
                    r = {k: field.mul(v, inv) for k, v in r.items()}
                reduced[c] = r
                break
            _axpy_into(field, r, r[c], p)
    pivots = sorted(reduced)
    for c in reversed(pivots):
        if c < keep_from:
            break
        r = reduced[c]
        for k in [k for k in r if k != c and k in reduced]:
            _axpy_into(field, r, r[k], reduced[k])
    return pivots, [reduced[c] for c in pivots]


def _axpy_into(field: Field, s: dict, f, r: dict):
    """s -= f*r in place, for nonzero f and reduced s and r, touching only the columns of r.

    A column that cancels is deleted where it stands; a column new to s is
    appended, in r's order.
    """
    p = field.p
    for k, v in r.items():
        if k in s:
            t = s[k] - f * v if p is None else (s[k] - f * v) % p
            if t:
                s[k] = t
            else:
                del s[k]
        else:
            s[k] = -f * v if p is None else -f * v % p


def rref_rows(field: Field, rows, ncols: int):
    """Canonical reduced row echelon form of rows, reduced in place.  Returns (pivots, rows).

    ncols is the width of the matrix; the sparse lane does not need it.
    """
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
        piv, rows = rref_rows(field, [field.post_reduce(v) for v in vectors], ambient)
        return cls(field, ambient, tuple(piv), tuple(rows))

    @classmethod
    def full(cls, field: Field, ambient: int):
        """The whole space, spanned by the unit vectors."""
        units = tuple({i: field.one} for i in range(ambient))
        return cls(field, ambient, tuple(range(ambient)), units)

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, vec: dict) -> bool:
        f = self.field
        v = f.post_reduce(vec)
        for c, r in zip(self.pivots, self.rows):
            x = v.get(c)
            if x is not None:
                _axpy_into(f, v, x, r)
        return not v


def left_kernel(field: Field, rows, ncols: int, basis: Subspace | None = None) -> Subspace:
    """{sum x_i basis_i : sum x_i rows_i = 0}, as a canonical subspace.

    A row is idle when rows_i is {}: basis_i is then already in the answer,
    and it passes through unreduced.  One reduction of the augmented live
    rows [rows_i | basis_i] gives the rest: the reduced rows whose pivot
    lies past the first ncols columns are zero there, so their tails are
    the canonical basis of the live part's kernel, and only those rows are
    back-substituted.  With a canonical basis the two sets merge into the
    canonical answer as they stand: the tails are combinations of live basis
    rows, so they lead at live pivots and vanish at idle ones, and the idle
    rows vanish at live pivots.  Leading columns that collide, like a live
    reduction short of full rank, mean a dependent basis.  The basis
    defaults to the unit vectors, which gives the kernel of the transpose.
    """
    if basis is None:
        basis = Subspace.full(field, len(rows))
    idle, aug = [], []
    for r, v in zip(rows, basis.rows, strict=True):
        if r:
            aug.append({**r, **{ncols + j: x for j, x in v.items()}})
        else:
            idle.append(v)
    piv, red = _rref_generic(field, aug, keep_from=ncols)
    k = sum(c < ncols for c in piv)
    merged = {c - ncols: {j - ncols: x for j, x in r.items()} for c, r in zip(piv[k:], red[k:])}
    merged.update((min(v), v) for v in idle if v)
    if len(piv) != len(aug) or len(merged) != len(piv) - k + len(idle):
        raise InvariantError(f"{len(basis.rows)} basis rows are dependent over {len(aug)} live rows")
    pivots = tuple(sorted(merged))
    return Subspace(field, basis.ambient, pivots, tuple(merged[c] for c in pivots))
