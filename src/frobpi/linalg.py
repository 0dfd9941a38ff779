"""Exact sparse linear algebra over the exact fields.

Matrices are rows of {column: payload} dicts.  Row reduction always lands in
the fully reduced row echelon form, which is unique.  Every field, F_p
included, goes through one sparse lane: the relation and centre matrices
are very sparse, and elimination that keeps them sparse beats a dense
reduction on them.

The lane is a Markowitz-style sparse elimination: a heap of pivot keys
picks the next pivot row, a column index names the rows each pivot
changes, rows are eliminated in place, and the finished rows are
back-substituted in one pass at the end.  No pivot rescans every row.
"""

from __future__ import annotations

import heapq
import types
from collections import defaultdict
from dataclasses import dataclass

from .fields import Field, InvariantError


EMPTY_ROW = types.MappingProxyType({})
"""The one empty row: read-only, and stored wherever an operator row is zero."""


def vec_apply(field: Field, vec: dict, rows) -> dict:
    """Row vector times matrix: sum of vec[i] * rows[i].

    Every row must already be reduced (field.post_reduce(row) == row), as
    every stored operator row is.  The result may be shared: an empty vector
    gives EMPTY_ROW, a single entry 1 * rows[i] gives rows[i] itself, and a
    zero sum gives EMPTY_ROW; only a nonzero sum is a new dict.  So no caller
    mutates a row it did not make.
    """
    if len(vec) <= 1:
        if not vec:
            return EMPTY_ROW
        ((i, c),) = vec.items()
        if c == field.one:
            return rows[i]
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
    return field.post_reduce(out) or EMPTY_ROW


def vec_add(field: Field, a: dict, b: dict, coeff=None) -> dict:
    out = dict(a)
    for j, v in b.items():
        t = v if coeff is None else coeff * v
        if j in out:
            out[j] = out[j] + t
        else:
            out[j] = t
    return field.post_reduce(out)


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


def _rref_generic(field: Field, rows, keep_from=0):
    """Sparse elimination over any field.

    Pivot row choice: fewest nonzeros, then lowest leading column, then
    first entered.  The output is the canonical reduced form either way;
    the rule only controls fill-in along the way.

    Forward elimination keeps a heap of (nonzeros, leading column, input
    index) keys and an index from each column to the unfinished rows that
    hold it.  A pivot eliminates its column in place from the rows the index
    names, updates the index only for the entries it creates or cancels, and
    pushes a fresh key for each row whose key moved; a popped key that no
    longer matches its row is skipped.  The finished rows are then
    back-substituted once, in descending pivot column order, each by the
    already reduced rows whose pivots it holds.

    Only the rows with pivot column >= keep_from are back-substituted; only
    rows with a higher pivot reduce such a row, so these come out exactly as
    in the full reduction, and the pivots are the same.
    """
    work = [field.post_reduce(r) for r in rows]
    lead = [min(w) if w else None for w in work]
    heap = [(len(w), lead[i], i) for i, w in enumerate(work) if w]
    heapq.heapify(heap)
    cols = defaultdict(set)
    for i, w in enumerate(work):
        for k in w:
            cols[k].add(i)
    done = []
    while heap:
        n, c, i = heapq.heappop(heap)
        r = work[i]
        if r is None or len(r) != n or lead[i] != c:
            continue
        work[i] = None
        for k in r:
            cols[k].discard(i)
        if not field.is_zero(field.sub(r[c], field.one)):
            inv = field.inv(r[c])
            r = {k: field.mul(v, inv) for k, v in r.items()}
        done.append((c, r))
        for j in cols.pop(c):
            s = work[j]
            new, gone = _axpy_into(field, s, s[c], r)
            for k in new:
                cols[k].add(j)
            for k in gone:
                cols[k].discard(j)
            if s:
                if lead[j] == c:
                    lead[j] = min(s)
                heapq.heappush(heap, (len(s), lead[j], j))
    done.sort()
    reduced = dict(done)
    for c, r in reversed(done):
        if c < keep_from:
            break
        for k in [k for k in r if k != c and k in reduced]:
            _axpy_into(field, r, r[k], reduced[k])
    return [c for c, _ in done], [r for _, r in done]


def _axpy_into(field: Field, s: dict, f, r: dict):
    """s -= f*r in place, touching only the columns of r.

    Returns the columns it created and the columns it cancelled.
    """
    upd = {}
    for k, v in r.items():
        t = f * v
        upd[k] = s[k] - t if k in s else -t
    kept = field.post_reduce(upd)
    new, gone = [], []
    for k in upd:
        if k in kept:
            if k not in s:
                new.append(k)
            s[k] = kept[k]
        elif k in s:
            del s[k]
            gone.append(k)
    return new, gone


def rref_rows(field: Field, rows, ncols: int):
    """Canonical reduced row echelon form.  Returns (pivots, rows).

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
        piv, rows = rref_rows(field, list(vectors), ambient)
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
