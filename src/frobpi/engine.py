"""Graded construction of the generalized preprojective algebra of a pair.

Degree d is built as a quotient of the free extension of degree d-1 by one
letter: coordinates are (basis word of d-1) followed by e, or followed by
f and an S-basis slot.  Each basis word x of degree d-2 gives one
relation row: x f e when x ends on the R side, and x r otherwise, with
r = sum_q b'_q e f b_q the dual-basis relation (b'_q the basis dual to b_q
under the Frobenius form).  The right multiples x r b_j add nothing: the
Casimir element sum_q b'_q (x) b_q of a commutative Frobenius algebra
commutes with S, so x r b_j = (x b_j) r, a combination of the rows of
other words.  The rows therefore span exactly the new relations.  A word
x = x' f b_k has x b_q e = sum_s c^s_{k q} (x' f b_s) e, so the n products
(x' f b_s) e are formed once per parent x' and shared by its children,
and each row is summed reduced, in one dict.  Row reducing the rows
leaves a canonical word basis and the reduction map gives the right
multiplication operators by each letter.  Left multiplication by an
element, and so every product, folds through those operators, so one
code path serves every coefficient field.  The parent table is the
only record of the words: a left-multiplication row extends its parent
word's row, and the first letter of each word, which gives the
projections onto the two one-sided pieces, is kept beside it.

A degree is stored as what its reduction decided: the parents of its
words and the operators E and FB.  Every word letter L, that is a, a
slot j, e or f, has one right operator right_op(L, d) and one left
operator left_op(L, d) per degree; each is derived on first read, in
built and loaded builds alike, so the slots the centre does not cut by
are never derived.  A build reads the f rows, never a slot's, for its
next relations; a build loaded from the disk cache with its centres may
read neither.

Operator rows are stored once and shared, never copied: a slot's or f's
right row that equals an FB row is that row, a left-multiplication row
may be an E or FB row, every zero row is linalg.EMPTY_ROW, and the unit
row {k: 1} that a basis word k stores as the E or FB row of its own
coordinate is one read-only row per k, kept for the whole build and
reused in every degree.
A build loaded from saved operators shares its rows the same way.  So no
caller mutates a row it did not make.

Each build also keeps a centre memo, centers: degree -> Subspace, which
center.center_degree fills and reads, so each degree's centre is computed
at most once per build.  A build made or loaded through the disk cache
either arrives with its saved centres already in the memo, or carries in
on_centers_complete the store that center_degree calls once, when the memo
first holds every degree 0..D-1.
"""

from __future__ import annotations

import types

from .fields import Field
from .frobenius import FrobeniusPair
from .linalg import EMPTY_ROW, rref_rows, vec_apply

A_LETTER = -1
E_LETTER = -2
F_LETTER = -3


def letter_degree(L):
    """The degree of the word letter L: 1 for e and f, 0 for a and the slots."""
    return 1 if L == E_LETTER or L == F_LETTER else 0


class DegreeRangeError(ValueError):
    """Degree outside the built range."""


class PiElement:
    """Homogeneous element, stored on the canonical word basis."""

    __slots__ = ("graded", "d", "vec")

    def __init__(self, graded, d, vec):
        self.graded = graded
        self.d = d
        self.vec = graded.field.post_reduce(dict(vec))

    def is_zero(self):
        return not self.vec

    def _like(self, other):
        if self.graded is not other.graded or self.d != other.d:
            raise DegreeRangeError("elements live in different graded pieces")

    def __add__(self, other):
        self._like(other)
        f = self.graded.field
        return PiElement(self.graded, self.d, vec_apply(f, {0: f.one, 1: f.one}, [self.vec, other.vec]))

    def __sub__(self, other):
        self._like(other)
        f = self.graded.field
        return PiElement(self.graded, self.d, vec_apply(f, {0: f.one, 1: f.neg(f.one)}, [self.vec, other.vec]))

    def __neg__(self):
        f = self.graded.field
        return PiElement(self.graded, self.d, {k: f.neg(v) for k, v in self.vec.items()})

    def __mul__(self, other):
        if isinstance(other, PiElement):
            return self.graded.multiply(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, PiElement):
            return NotImplemented
        return self.graded is other.graded and self.d == other.d and self.vec == other.vec

    def __hash__(self):
        return hash((self.d, tuple(sorted(self.vec))))

    def __repr__(self):
        return f"Pi[{self.d}]({self.vec})"


class GradedAlgebra:
    """All graded pieces of the preprojective algebra up to degree D."""

    def __init__(self, pair: FrobeniusPair, D: int):
        if D < 0:
            raise ValueError("build degree must be at least 0")
        self._start(pair, D)
        self._r2_terms = self._relation_terms()
        for d in range(1, D + 1):
            self._build_degree(d)

    @classmethod
    def from_operators(cls, pair: FrobeniusPair, D: int, read):
        """Rebuild a saved build, reducing nothing.

        read(unit) yields the saved (parent, E, FB) of degrees 1..D, one
        degree at a time; unit(k) is the build's shared row {k: 1}, which
        read returns wherever it reads that row.
        """
        g = cls.__new__(cls)
        g._start(pair, D)
        for parent, e_rows, fb in read(g._unit):
            g._add_degree(parent, e_rows, fb)
        if len(g.parent) != D + 1:
            raise ValueError(f"{len(g.parent) - 1} saved degrees for build degree {D}")
        return g

    def _start(self, pair, D):
        """Degree 0 and the empty per-degree tables, shared by building and loading."""
        self.pair = pair
        self.field: Field = pair.field
        self.n = n = pair.n
        self.D = D
        self.is_r = [[True] + [False] * n]  # True when the word ends on the R side
        self.starts_a = [[True] + [False] * n]  # True when the word starts with a
        self.parent = [None]  # (i, 'e', None) or (i, 'f', m) for degree >= 1
        self.E = [None]  # E[d]: right append e, degree d-1 -> d
        self.FB = [None]  # FB[d][j]: right append f b_j
        # _right[L][d]: right_op(L, d), or None until it is read; E is stored, and b_i b_j is read off the table
        table = pair.algebra.table
        self._right = {A_LETTER: [None], F_LETTER: [None]}
        self._right |= {j: [[EMPTY_ROW] + [{1 + k: v for k, v in table[i][j].items()} or EMPTY_ROW for i in range(n)]]
                        for j in range(n)}
        self._left = {}  # _left[L]: degree -> left_op(L, d), the last two degrees computed
        self._units = []  # _units[k]: the read-only row {k: 1}, grown by _unit
        self.centers = {}  # degree -> centre Subspace; see center.center_degree
        self.on_centers_complete = None  # called with the build once centers holds 0..D-1

    # -- construction -------------------------------------------------------

    def _unit(self, k):
        """The build's shared read-only row {k: 1}."""
        units = self._units
        while len(units) <= k:
            units.append(types.MappingProxyType({len(units): self.field.one}))
        return units[k]

    def _relation_terms(self):
        """The dual-basis relation r: (q, m) -> coefficient of (b_q e)(f b_m) in r."""
        dual = self.pair.dual_right
        return {(q, m): c for q, row in enumerate(dual) for m, c in enumerate(row) if c}

    def dims(self):
        return [len(r) for r in self.is_r]

    def dim(self, d: int) -> int:
        if not 0 <= d <= self.D:
            raise DegreeRangeError(f"degree {d} outside 0..{self.D}")
        return len(self.is_r[d])

    def _build_degree(self, d):
        f, n = self.field, self.n
        prev_isr = self.is_r[d - 1]
        # column of x e, and of x f b_0 (x f b_m is m columns on), per word x of degree d-1
        ecol = [None] * len(prev_isr)
        fcol = [None] * len(prev_isr)
        coords = []
        for i, r in enumerate(prev_isr):
            if not r:
                ecol[i] = len(coords)
                coords.append((i, "e", None))
        for i, r in enumerate(prev_isr):
            if r:
                fcol[i] = len(coords)
                coords += ((i, "f", m) for m in range(n))
        ncols = len(coords)

        # one row per basis word x of degree d-2; see the module docstring
        rel = []
        if d >= 2:
            e_prev, f_prev, fb_x = self.E[d - 1], self.right_op(F_LETTER, d - 2), self.FB[d - 2]
            p, table, terms = f.p, self.pair.algebra.table, self._r2_terms
            parents = self.parent[d - 2] or [(None, "f", k) for k in range(-1, n)]  # degree 0: b_k
            P, last = e_prev[1:], None  # P[s] = x' f b_s e for the parent x' of x; b_s e at d = 2
            for x, isr in enumerate(self.is_r[d - 2]):
                if isr:
                    # x f e: f-append then e-append
                    rel.append({ecol[i]: c for i, c in f_prev[x].items()})
                    continue
                # x r, with x = x' f b_k: x b_q e = sum_s c^s_{k q} P[s]
                up, _, k = parents[x]
                if up != last:
                    P, last = [vec_apply(f, fb_x[s][up], e_prev) for s in range(n)], up
                row, cancelled, xb = {}, False, table[k]
                for (q, m), c in terms.items():
                    for s, cs in xb[q].items():
                        for w, cw in P[s].items():
                            col = fcol[w] + m
                            t = row[col] + c * cs * cw if col in row else c * cs * cw
                            row[col] = t = t if p is None else t % p
                            if not t:
                                cancelled = True
                rel.append({j: v for j, v in row.items() if v} if cancelled else row)

        pivots, rrows = rref_rows(f, rel, ncols)
        pivset = set(pivots)
        basis_at = {}
        parent = []
        red = [None] * ncols
        for col, coord in enumerate(coords):
            if col not in pivset:
                basis_at[col] = k = len(parent)
                red[col] = self._unit(k)
                parent.append(coord)
        for pc, r in zip(pivots, rrows):
            red[pc] = {basis_at[q]: f.neg(v) for q, v in r.items() if q != pc} or EMPTY_ROW

        e_rows = [EMPTY_ROW if c is None else red[c] for c in ecol]
        fb = [[EMPTY_ROW if c is None else red[c + j] for c in fcol] for j in range(n)]
        self._add_degree(parent, e_rows, fb)

    def _add_degree(self, parent, e_rows, fb):
        """Append the next degree, given its basis parents and its E and FB operators.

        A basis word is its parent word followed by e, or by f and an S slot.
        """
        prev_a = self.starts_a[-1]
        self.is_r.append([kind == "e" for _, kind, _ in parent])
        self.starts_a.append([prev_a[i] for i, _, _ in parent])
        self.parent.append(parent)
        self.E.append(e_rows)
        self.FB.append(fb)
        for rows in self._right.values():
            rows.append(None)

    def right_op(self, L, d):
        """Rows of x -> x L on degree d, for the word letter L; derived on first read and kept.

        L is A_LETTER, a slot j >= 0, E_LETTER or F_LETTER; e and f land in
        degree d + 1.  E is stored, and x a keeps the words that end on the R
        side.  A slot follows from FB, (x f b_m) b_j = sum_q c^q_{m j} x f b_q,
        and f is the unit-weighted FB, EMPTY_ROW where FB is; where the sum is
        one FB row with coefficient 1, the row is that FB row itself (see
        vec_apply).
        """
        self._check_letter(L, d)
        if L == E_LETTER:
            return self.E[d + 1]
        rows = self._right[L][d]
        if rows is None:
            f = self.field
            if L == A_LETTER:
                rows = [self._unit(i) if r else EMPTY_ROW for i, r in enumerate(self.is_r[d])]
            elif L == F_LETTER:
                unit, cols = self.pair.algebra.unit_vec(), zip(*self.FB[d + 1])  # cols[i][s] = i f b_s
                rows = [vec_apply(f, unit, col) if r else EMPTY_ROW for col, r in zip(cols, self.is_r[d])]
            else:
                table, cols = self.pair.algebra.table, list(zip(*self.FB[d]))
                rows = [
                    EMPTY_ROW if kind == "e" else vec_apply(f, table[m][L], cols[i])
                    for i, kind, m in self.parent[d]
                ]
            self._right[L][d] = rows
        return rows

    def left_op(self, L, d):
        """Rows of x -> L x on degree d, for the word letter L as in right_op.

        a x keeps the words that start with a.  Each other letter has its own
        memo, so a letter no caller asks for is never built; see _left_rows.
        """
        self._check_letter(L, d)
        if L == A_LETTER:
            return [self._unit(i) if a else EMPTY_ROW for i, a in enumerate(self.starts_a[d])]
        memo = self._left.setdefault(L, {})
        return self._left_rows(memo, d, letter_degree(L), lambda: self._fold(self.unit_element().vec, 0, (L,))[0])

    def _check_letter(self, L, d):
        """L is a word letter, and x L and L x lie in the build for x of degree d."""
        if not (L in self._right or L == E_LETTER):
            raise ValueError(f"bad letter {L}")
        top = self.D - letter_degree(L)
        if not 0 <= d <= top:
            raise DegreeRangeError(f"degree {d} outside 0..{top} for letter {L}")

    @property
    def B(self):
        """B[d][j] = right_op(j, d), every slot of every degree derived."""
        return [[self.right_op(j, d) for j in range(self.n)] for d in range(self.D + 1)]

    # -- elements and multiplication ---------------------------------------

    def zero(self, d: int) -> PiElement:
        return PiElement(self, d, {})

    def basis_element(self, d: int, i: int) -> PiElement:
        return PiElement(self, d, {i: self.field.one})

    def unit_element(self) -> PiElement:
        unit = self.pair.algebra.unit_vec()
        return PiElement(self, 0, {0: self.field.one, **{1 + j: c for j, c in unit.items()}})

    def _fold(self, vec, d, letters):
        """vec, of degree d, times each letter in turn, and the degree it lands in."""
        for L in letters:
            vec = vec_apply(self.field, vec, self.right_op(L, d))
            d += letter_degree(L)
        return vec, d

    def multiply(self, x: PiElement, y: PiElement) -> PiElement:
        if x.graded is not self or y.graded is not self:
            raise DegreeRangeError("elements from a different build")
        return PiElement(self, x.d + y.d, vec_apply(self.field, y.vec, self.left(x, y.d)))

    # -- words --------------------------------------------------------------

    def word(self, d: int, i: int):
        """The letters of basis word i of degree d, spelled out through the parent table."""
        letters = []
        for k in range(d, 0, -1):
            i, kind, m = self.parent[k][i]
            letters += (E_LETTER,) if kind == "e" else (m, F_LETTER)
        letters.append(A_LETTER if i == 0 else i - 1)
        return tuple(reversed(letters))

    # -- left multiplication ------------------------------------------------

    def _left_rows(self, memo, d, shift, gvec):
        """Left multiplication by one element of degree shift, on degree d.

        Degree 0 folds the element, given by gvec(), through the words; each
        later word extends its parent by one letter, so its row is the
        parent's row times that letter's operator one degree up, often that
        operator's own row.  The memo keeps the last two degrees computed,
        which serves the ascending calls of the centre; the recursion
        recomputes any other degree upward from the nearest kept degree
        below it, or from degree 0.
        """
        rows = memo.get(d)
        if rows is not None:
            return rows
        f = self.field
        if d == 0:
            rows = [self._fold(gvec(), shift, self.word(0, i))[0] for i in range(self.dim(0))]
        else:
            prev = self._left_rows(memo, d - 1, shift, gvec)
            E, FB = self.E[d + shift], self.FB[d + shift]
            rows = [
                vec_apply(f, prev[i], E if kind == "e" else FB[m]) if prev[i] else EMPTY_ROW
                for i, kind, m in self.parent[d]
            ]
        memo[d] = rows
        if len(memo) > 2:
            del memo[next(iter(memo))]  # the oldest degree computed
        return rows

    def left(self, x: PiElement, d: int):
        """Left multiplication rows for the element x, on degree d."""
        if not 0 <= d <= self.D - x.d:
            raise DegreeRangeError(f"degree {d} outside 0..{self.D - x.d} for a factor of degree {x.d}")
        return self._left_rows({}, d, x.d, lambda: x.vec)

    # -- one-sided pieces -----------------------------------------------------

    def split_dims(self, d: int):
        """Dimensions of the two one-sided pieces a Pi_d and 1_S Pi_d.

        Each relation row that _build_degree reduces is a left multiple x r of
        a basis word x, and the right operators keep a word's first letter.  So
        left multiplication by a keeps the words that start with a and kills
        the others, 1_S does the opposite, and the ranks are the two counts.
        """
        dim = self.dim(d)
        ra = sum(self.starts_a[d])
        return ra, dim - ra

    def resolution_sum(self, d: int):
        """Euler characteristic of the standard projective resolution in degree d.

        With h_d(R) and h_d(S) the dimensions of the two one-sided pieces,
        returns the pair of alternating sums
        h_{d-2}(R) - h_{d-1}(S) + h_d(R) - delta_{d,0} and
        h_{d-2}(S) - n h_{d-1}(R) + h_d(S) - n delta_{d,0}, which vanish
        when the resolution is exact.
        """
        n = self.n
        (r2, s2), (r1, s1), (r0, s0) = (self.split_dims(k) if k >= 0 else (0, 0) for k in (d - 2, d - 1, d))
        return (
            r2 - s1 + r0 - (1 if d == 0 else 0),
            s2 - n * r1 + s0 - (n if d == 0 else 0),
        )

    def resolution_identity_check(self, D: int) -> bool:
        """Both alternating sums of `resolution_sum` vanish in every degree up to D."""
        return all(self.resolution_sum(d) == (0, 0) for d in range(D + 1))


def build(pair: FrobeniusPair, D: int, cache_dir=None) -> GradedAlgebra:
    """Construct all graded pieces up to degree D, optionally disk-cached."""
    if cache_dir:
        from . import cache

        return cache.build_cached(pair, D, cache_dir)
    return GradedAlgebra(pair, D)
