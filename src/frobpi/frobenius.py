"""Commutative algebras by structure constants and Frobenius functionals.

Covers the rank-4 catalog over exact fields, the non-self-injective
rejects, the six one-parameter deformation families over Q(u), fiber
specialization, and a JSON interchange format.

The catalog is one table, and every algebra in it or among the families
that is a product of k[t]/(g) blocks is built by one builder from the
roots of each block's g: the split catalog types from blocks of zero roots,
families 2-6 (R[t]/(g) with R = Q[u] and a quartic g) from one block each,
and family 6c from the blocks (0, u), (0), (0).  The structure constants
come from multiplying out each g, and a fiber at u = c splits into local
factors read off the roots at c, so no polynomial in t is ever factored.

Every sparse sum in this layer, from a product of algebra elements to a
change of basis, is computed through linalg's vec_apply, on the same
reduced {index: coefficient} vectors as the engine's operators, and such
vectors are compared with ==.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .fields import (
    QQ,
    QU,
    Field,
    FieldMismatchError,
    InputError,
    InvariantError,
    MultiPoly,
    PrimeField,
    RatF,
    field_from_descriptor,
)
from .linalg import Subspace, rref_rows, vec_apply

class SingularGramError(ValueError):
    """The chosen functional has a degenerate Gram matrix."""


class AlgebraStructureError(ValueError):
    """Structure constants fail commutativity, associativity, or unit checks."""


class CommAlgebra:
    """Finite dimensional commutative algebra via structure constants.

    table[i][j] is the reduced sparse vector of b_i * b_j; the unit is stored as an
    explicit coefficient vector since natural bases (idempotents, block
    bases) rarely contain the identity as a basis element.
    """

    __slots__ = ("field", "names", "table", "unit", "_generating_slots")

    def __init__(self, field: Field, names, table, unit=None):
        n = len(names)
        if len(set(names)) != n:
            raise AlgebraStructureError("basis names must be distinct")
        self.field = field
        self.names = tuple(names)
        self.table = tuple(tuple(field.post_reduce(table[i][j]) for j in range(n)) for i in range(n))
        self.unit = tuple(self._find_unit()) if unit is None else tuple(unit)
        self._generating_slots = None
        self.check()

    @property
    def n(self):
        return len(self.names)

    def mul_vec(self, x: dict, y: dict) -> dict:
        """The product x y, as sum_j y_j (sum_i x_i table[j][i]).

        table[j][i] = b_j b_i = b_i b_j, as check() tests before its first
        product.  Both sums are linalg.vec_apply, so the result may be
        shared as vec_apply's is: a table entry itself (x or y a single
        basis vector), or linalg.EMPTY_ROW.  Callers never mutate it.
        """
        f, table = self.field, self.table
        return vec_apply(f, y, {j: vec_apply(f, x, table[j]) for j in y})

    def basis_vec(self, i: int) -> dict:
        return {i: self.field.one}

    def unit_vec(self) -> dict:
        return self.field.post_reduce(dict(enumerate(self.unit)))

    def generating_slots(self) -> tuple:
        """The fewest slots j whose b_j, with the unit, generate the algebra; computed once.

        A set of slots generates when the span of the unit, closed under
        multiplication by their b_j, is the whole algebra: that span is the
        span of the monomials in those b_j.  Sets are tried by size and, in
        each size, in slot order, so the first smallest set is returned.
        The set of all slots always generates.
        """
        if self._generating_slots is None:
            n = self.n
            unit = Subspace.from_vectors(self.field, n, [self.unit_vec()])
            self._generating_slots = next(
                slots
                for k in range(n + 1)
                for slots in combinations(range(n), k)
                if self._closure(unit, slots).dim == n
            )
        return self._generating_slots

    def _closure(self, span: Subspace, slots) -> Subspace:
        """span closed under multiplication by the b_j of slots.

        Only the products that left the span in the last step are
        multiplied again: the products of the rest lie in the span already.
        """
        f, table = self.field, self.table
        new = span.rows
        while True:
            new = [p for v in new for j in slots if not span.contains(p := vec_apply(f, v, table[j]))]
            if not new:
                return span
            span = Subspace.from_vectors(f, self.n, [*span.rows, *new])

    def _find_unit(self):
        # solve e * b_j = b_j for all j
        f = self.field
        n = self.n
        aug = []
        for j in range(n):
            for k in range(n):
                row = {i: self.table[i][j].get(k, f.zero) for i in range(n)}
                if j == k:
                    row[n] = f.neg(f.one)  # the right-hand side, b_j's coordinate k
                aug.append(row)
        piv, red = rref_rows(f, aug, n + 1)
        if n in piv:
            raise AlgebraStructureError("structure constants admit no unit")
        sol = [f.zero] * n
        for p, r in zip(piv, red):
            sol[p] = f.neg(r.get(n, f.zero))
        return sol

    def check(self):
        n = self.n
        for i in range(n):
            for j in range(i + 1, n):
                if self.table[i][j] != self.table[j][i]:
                    raise AlgebraStructureError(f"not commutative at ({i},{j})")
        e = self.unit_vec()
        for j in range(n):
            if self.mul_vec(e, self.basis_vec(j)) != self.basis_vec(j):
                raise AlgebraStructureError(f"unit fails on basis element {j}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mul_vec(self.table[i][j], self.basis_vec(k))
                    rhs = self.mul_vec(self.basis_vec(i), self.table[j][k])
                    if lhs != rhs:
                        raise AlgebraStructureError(f"not associative at ({i},{j},{k})")
        return True

    def map_scalars(self, field: Field, fn) -> "CommAlgebra":
        tab = [
            [{k: fn(v) for k, v in self.table[i][j].items()} for j in range(self.n)]
            for i in range(self.n)
        ]
        unit = [fn(c) for c in self.unit]
        return CommAlgebra(field, self.names, tab, unit=unit)

    def equal_constants(self, other: "CommAlgebra") -> bool:
        return self.field == other.field and self.table == other.table


# ---------------------------------------------------------------------------
# Frobenius structure


class FrobeniusPair:
    """Algebra with a functional whose Gram matrix is invertible.

    Dual bases are normalized as e_i = b_i and f_j = sum_q (G^-1)_{qj} b_q,
    so lam(e_i f_j) = delta_ij.
    """

    __slots__ = ("algebra", "lam", "gram", "dual_right")

    def __init__(self, algebra: CommAlgebra, lam):
        f = algebra.field
        n = algebra.n
        self.algebra = algebra
        self.lam = tuple(f.convert(c) for c in lam)
        self.gram = tuple(tuple(self.lam_apply(prod) for prod in row) for row in algebra.table)
        inv = _dense_inverse(f, self.gram)
        if inv is None:
            raise SingularGramError("functional has singular Gram matrix")
        self.dual_right = tuple(tuple(inv[q][j] for q in range(n)) for j in range(n))
        for i in range(n):
            for j in range(n):
                v = self.lam_apply(algebra.mul_vec(algebra.basis_vec(i), f.post_reduce(dict(enumerate(self.dual_right[j])))))
                if v != (f.one if i == j else f.zero):
                    raise SingularGramError("dual basis normalization failed")

    @property
    def field(self):
        return self.algebra.field

    @property
    def n(self):
        return self.algebra.n

    def lam_apply(self, vec: dict):
        f = self.field
        acc = f.zero
        for k, v in vec.items():
            acc = f.add(acc, f.mul(v, self.lam[k]))
        return acc


def _dense_inverse(f: Field, rows):
    """Inverse of a small dense matrix over f, or None when singular."""
    n = len(rows)
    aug = [{**dict(enumerate(row)), n + i: f.one} for i, row in enumerate(rows)]
    piv, red = rref_rows(f, aug, 2 * n)
    if len(piv) < n or list(piv[:n]) != list(range(n)):
        return None
    inv = [[red[i].get(n + j, f.zero) for j in range(n)] for i in range(n)]
    return inv


def make_frobenius(a: CommAlgebra, lam) -> FrobeniusPair:
    """Attach a functional; raises SingularGramError when degenerate."""
    return FrobeniusPair(a, lam)


def is_frobenius(a: CommAlgebra):
    """Decide whether any functional on a has invertible Gram matrix.

    Works with a generic functional: det of the Gram matrix in indeterminate
    coefficients is a polynomial, nonzero iff some functional over the
    algebraic closure works.  The witness is the first functional on which
    it does not vanish, among all of F_p^n when p <= 2n, else among the
    integer points with coordinates taken in the order 0, 1, -1, ..., n, -n,
    the first coordinate varying fastest.  That grid of side 2n + 1 holds a
    non-root of the degree-n determinant whenever it is nonzero.  Over a
    small F_p one exists too: the Frobenius property descends from the
    algebraic closure to the field, and on each local factor, now Gorenstein,
    any functional nonzero on the socle works.  So a nonzero determinant
    always has a witness, and the result is (False, None) or (True, witness);
    a search that finds none is an InvariantError.
    """
    f = a.field
    n = a.n
    if n > 6:
        raise ValueError("generic determinant limited to rank 6")
    gen = [MultiPoly.gen(f, n, k) for k in range(n)]
    zero = MultiPoly(f, n)
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k, v in a.table[i][j].items():
                acc = acc + gen[k].scale(v)
            row.append(acc)
        gram.append(row)
    det = _poly_det(gram, zero)
    if det.is_zero():
        return False, None
    if isinstance(f, PrimeField) and f.p <= 2 * n:
        vals = range(f.p)
    else:
        vals = [0, *(s * k for k in range(1, n + 1) for s in (1, -1))]
    for lam in product(vals, repeat=n):
        lam = lam[::-1]
        if not f.is_zero(det.eval([f.convert(c) for c in lam])):
            return True, lam
    raise InvariantError("the Gram determinant is nonzero but vanishes on every candidate functional")


def _poly_det(m, zero):
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = zero
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        t = m[0][j] * _poly_det(minor, zero)
        acc = acc + (t if j % 2 == 0 else -t)
    return acc


# ---------------------------------------------------------------------------
# catalog


def _table_from_pairs(field, n, entries):
    """entries: {(i,j): [(k, coeff), ...]} for i <= j, symmetrized."""
    tab = [[dict() for _ in range(n)] for _ in range(n)]
    for (i, j), pairs in entries.items():
        v = {k: field.convert(c) for k, c in pairs}
        tab[i][j] = dict(v)
        tab[j][i] = dict(v)
    return tab


def _local_algebra(field, names, products) -> CommAlgebra:
    """The algebra with unit b_0 and products {(i, j): [(k, coeff), ...]} for 1 <= i <= j.

    A product b_i b_j that is left out is zero.
    """
    n = len(names)
    entries = {(0, j): [(j, 1)] for j in range(n)} | products
    unit = [field.one] + [field.zero] * (n - 1)
    return CommAlgebra(field, names, _table_from_pairs(field, n, entries), unit=unit)


def _blocks_algebra(field, blocks, names) -> CommAlgebra:
    """The product of the k[t]/(g), g = prod (t - a) over the roots of each of blocks.

    It is written on the blocks' monomial bases 1, t, t^2, ..., concatenated,
    and each root is converted with field.convert.
    """
    f = field
    n = sum(map(len, blocks))
    tab = [[{} for _ in range(n)] for _ in range(n)]
    unit = [f.zero] * n
    off = 0
    for roots in blocks:
        m = len(roots)
        g = [f.one]  # ascending coefficients of the monic g
        for a in map(f.convert, roots):
            g = [f.sub(lo, f.mul(a, hi)) for lo, hi in zip([f.zero] + g, g + [f.zero])]
        # t^k mod g for k <= 2m - 2, by t^(k+1) = t * t^k with t^m replaced by t^m - g
        powers = [[f.one] + [f.zero] * (m - 1)]
        for _ in range(2 * m - 2):
            p = powers[-1]
            powers.append([f.sub(lo, f.mul(p[-1], c)) for lo, c in zip([f.zero] + p[:-1], g)])
        for i in range(m):
            for j in range(m):
                tab[off + i][off + j] = {off + k: c for k, c in enumerate(powers[i + j]) if not f.is_zero(c)}
        unit[off] = f.one
        off += m
    return CommAlgebra(f, names, tab, unit=unit)


def _truncated(names, *sizes):
    """The builder of the product of the k[t]/(t^m), m in sizes: blocks whose roots are all 0."""
    return lambda f: _blocks_algebra(f, [(0,) * m for m in sizes], names)


def _jet2_plus_k(f):
    """k[s,t]/(s,t)^2 + k on 1, s, t, c."""
    tab = _table_from_pairs(f, 4, {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (0, 2): [(2, 1)], (3, 3): [(3, 1)]})
    return CommAlgebra(f, ("1", "s", "t", "c"), tab, unit=(f.one, f.zero, f.zero, f.one))


_TOP = (0, 0, 0, 1)  # the functional dual to the last basis element
# name -> (builder of the algebra over a field, its functional, or None for a non-self-injective reject)
_CATALOG = {
    "split4": (_truncated(("e1", "e2", "e3", "e4"), 1, 1, 1, 1), (1, 1, 1, 1)),
    "dual-numbers-pair": (_truncated(("m", "t", "p", "q"), 2, 1, 1), (0, 1, 1, 1)),
    "two-dual-numbers": (_truncated(("m", "s", "n", "t"), 2, 2), (0, 1, 0, 1)),
    "t3-plus-k": (_truncated(("m", "t", "t2", "p"), 3, 1), (0, 0, 1, 1)),
    "t4": (_truncated(("1", "t", "t2", "t3"), 4), _TOP),
    # k[s,t]/(s^2, t^2)
    "bikwad": (lambda f: _local_algebra(f, ("1", "s", "t", "st"), {(1, 2): [(3, 1)]}), _TOP),
    "reject-jet2-plus-k": (_jet2_plus_k, None),
    # k[s,t]/(s^2, st, t^3)
    "reject-s2-st-t3": (lambda f: _local_algebra(f, ("1", "s", "t", "t2"), {(2, 2): [(3, 1)]}), None),
    # k[s,t,w]/(s,t,w)^2
    "reject-jet2-3vars": (lambda f: _local_algebra(f, ("1", "s", "t", "w"), {}), None),
    # k[s,t]/(s^2 + t^2, st) with q = s^2
    "reject-char2-pencil": (
        lambda f: _local_algebra(f, ("1", "s", "t", "q"), {(1, 1): [(3, 1)], (2, 2): [(3, -1)]}),
        None,
    ),
}
CATALOG_NAMES = tuple(name for name, (_, lam) in _CATALOG.items() if lam is not None)
REJECT_NAMES = tuple(name for name, (_, lam) in _CATALOG.items() if lam is None)


def catalog(name: str, field: Field = QQ):
    """Catalog entries return FrobeniusPair; reject names return CommAlgebra."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog name {name!r}")
    make, lam = _CATALOG[name]
    a = make(field)
    return a if lam is None else FrobeniusPair(a, lam)


# ---------------------------------------------------------------------------
# deformation families over Q(u)


@dataclass(frozen=True)
class DeformationFamily:
    n: int
    char2: bool
    algebra: CommAlgebra
    lam: tuple
    blocks: tuple | None  # per k[t]/(g) block, the roots of its g in Q(u); None for family 1
    special: str  # catalog name of the u = 0 fiber
    generic: str  # catalog name of the generic fiber
    generic_at: int | None  # the value of u at which the generic fiber is checked, if any


_U = RatF.gen()
_T4 = ("1", "t", "t2", "t3")
# (n, char2) -> (basis names, blocks of roots or None, functional, special fiber, generic fiber, generic_at)
_FAMILIES = {
    (1, False): (("1", "s", "t", "st"), None, _TOP, "bikwad", "t4", None),
    (2, False): (_T4, ((0, 0, _U, _U),), _TOP, "t4", "two-dual-numbers", 1),
    (3, False): (_T4, ((0, 0, 0, _U),), _TOP, "t4", "t3-plus-k", 1),
    (4, False): (_T4, ((1, 1, 0, _U),), _TOP, "two-dual-numbers", "dual-numbers-pair", 2),
    (5, False): (_T4, ((0, 0, 1, _U),), _TOP, "t3-plus-k", "dual-numbers-pair", 2),
    (6, False): (_T4, ((_U, -_U, 1, -1),), _TOP, "dual-numbers-pair", "split4", 3),
    # R[t]/(t(t-u)) + R + R
    (6, True): (("m", "t", "p", "q"), ((0, _U), (0,), (0,)), (0, 1, 1, 1), "dual-numbers-pair", "split4", None),
}


def deformation(n: int, char2: bool = False) -> DeformationFamily:
    """One-parameter families joining the catalog algebras.

    Family 1 degenerates the square presentation (t^2 = u s); families 2
    through 6 are R[t]/(g) for a quartic g with the listed roots, some of
    which move together at u = 0; the char2 flag replaces family 6 by
    R[t]/(t(t-u)) + R + R, which avoids the char-2 coincidence of the +-1
    roots.  An n outside 1..6, or char2 with another n, is an InputError.
    """
    if not 1 <= n <= 6:
        raise InputError("family number must be 1..6")
    if char2 and n != 6:
        raise InputError("char2 variant exists only for family 6")
    names, blocks, lam, special, generic, at = _FAMILIES[n, bool(char2)]
    if blocks is None:
        a = _local_algebra(QU, names, {(1, 2): [(3, 1)], (2, 2): [(1, _U)]})
    else:
        blocks = tuple(tuple(map(QU.convert, roots)) for roots in blocks)
        a = _blocks_algebra(QU, blocks, names)
    return DeformationFamily(n, bool(char2), a, tuple(map(QU.convert, lam)), blocks, special, generic, at)


def _specializer(src: Field, target: str, at):
    """The field named by target and the map that carries a scalar of src into it.

    From qu the map evaluates at u = at (0 when at is None); from q into F_p it reduces mod p.
    """
    tf = field_from_descriptor(target)
    if src.tag == "qu":
        if tf.tag != "q":
            raise FieldMismatchError(f"cannot specialize qu constants into {target}")
        c = Fraction(at if at is not None else 0)
        return QQ, lambda v: v.eval(c)
    if src.tag == "q" and isinstance(tf, PrimeField):
        return tf, tf.convert
    raise FieldMismatchError(f"no specialization from {src.tag} to {target}")


def specialize_algebra(a: CommAlgebra, target: str, at=None) -> CommAlgebra:
    """Entrywise scalar specialization of the structure constants."""
    return a.map_scalars(*_specializer(a.field, target, at))


def specialize_pair(p: FrobeniusPair, target: str, at=None) -> FrobeniusPair:
    """Specialize constants and functional together; Gram must stay invertible."""
    tf, fn = _specializer(p.field, target, at)
    return FrobeniusPair(p.algebra.map_scalars(tf, fn), [fn(v) for v in p.lam])


# ---------------------------------------------------------------------------
# identification of special fibers with catalog presentations


def block_presentation(fiber: CommAlgebra, blocks) -> CommAlgebra:
    """Rewrite a product of k[t]/(g) blocks on the block basis of its local factors.

    fiber is the product of the k[t]/(g), g = prod (t - a) over each of
    blocks' roots, on the blocks' concatenated monomial bases 1, t, t^2, ...,
    as _blocks_algebra builds it.  In a block, a root a of multiplicity m
    gives the local factor spanned by h_a (t-a)^r for r < m, where
    h_a = prod_{b != a} (t-b)^(m_b).  The unit's coordinates in the basis of
    all these vectors give the idempotent ehat_a of each local factor, and
    its basis is ehat_a, ehat_a (t-a), ..., ehat_a (t-a)^(m-1).  On it the
    structure constants are exactly those of a sum of k[t]/(t^m) blocks,
    which is what the comparison with the catalog verifies.  The local
    factors come in order of falling multiplicity, then block by block,
    then rising root.
    """
    f = fiber.field

    def times_lin(x, off, a, r=1):
        """x (t-a)^r, where t is the monomial t of the block at offset off."""
        for _ in range(r):
            x = fiber.mul_vec(x, f.post_reduce({off: f.neg(a), off + 1: f.one}))
        return x

    factors = []  # (m, off, a, h_a) for each local factor
    off = 0
    for roots in blocks:
        mult = sorted(Counter(roots).items(), key=lambda kv: (-kv[1], kv[0]))
        for a, m in mult:
            h = {off: f.one}  # the unit of the block
            for b, mb in mult:
                if b != a:
                    h = times_lin(h, off, b, mb)
            factors.append((m, off, a, h))
        off += len(roots)
    factors.sort(key=lambda fac: -fac[0])
    # spanning vectors of every local factor, factor after factor; a block with
    # one root has no t, and needs none: its only vector is its unit
    flat = [times_lin(h, off, a, r) for m, off, a, h in factors for r in range(m)]
    (coords,) = _in_basis(f, flat, [fiber.unit_vec()])
    basis, names, start = [], [], 0
    for bi, (m, off, a, _) in enumerate(factors):
        ehat = vec_apply(f, {k: c for k, c in coords.items() if start <= k < start + m}, flat)
        start += m
        for r in range(m):
            basis.append(times_lin(ehat, off, a, r))
            names.append(f"x{bi}_{r}")
    return _rebase(fiber, basis, names)


def _rebase(alg: CommAlgebra, basis, names) -> CommAlgebra:
    """alg rewritten on a new basis, given as vectors in its old one."""
    f = alg.field
    n = len(basis)
    prods = _in_basis(f, basis, [alg.mul_vec(x, y) for x in basis for y in basis])
    tab = [prods[i * n : (i + 1) * n] for i in range(n)]
    return CommAlgebra(f, tuple(names), tab)


def _in_basis(f: Field, basis, vecs):
    """The coordinates of each of vecs in basis, n vectors spanning f^n, as sparse vectors."""
    n = len(basis)
    inv = _dense_inverse(f, [[b.get(k, f.zero) for k in range(n)] for b in basis])
    if inv is None:
        raise InvariantError("block basis is degenerate")
    rows = [f.post_reduce(dict(enumerate(r))) for r in inv]
    return [vec_apply(f, v, rows) for v in vecs]


def fiber_matches_catalog(fam, at, target: str, fiber=None) -> bool:
    """Check the fiber of fam at u = at equals the catalog algebra target.

    fiber is that fiber over Q, specialize_algebra(fam.algebra, "q", at),
    when the caller has it already.  A family of k[t]/(g) blocks is
    compared on the block basis of its fiber's local factors.  Family 1
    (t^2 = u s) stays local: at u = 0 it is bikwad on its own basis, and at
    u = c != 0 the chain k[t]/t^4 on the basis 1, t, c s, c s t.
    """
    want = catalog(target).algebra
    if fiber is None:
        fiber = specialize_algebra(fam.algebra, "q", at)
    if fam.blocks is not None:
        c = Fraction(at)
        fiber = block_presentation(fiber, [[a.eval(c) for a in roots] for roots in fam.blocks])
    elif at:
        f, c = fiber.field, fiber.field.convert(at)
        fiber = _rebase(fiber, [{0: f.one}, {2: f.one}, {1: c}, {3: c}], want.names)
    return fiber.equal_constants(want)


def special_fiber_matches_catalog(n: int, char2: bool = False) -> bool:
    """Check the u = 0 fiber of a family equals its catalog presentation."""
    fam = deformation(n, char2)
    return fiber_matches_catalog(fam, 0, fam.special)


# ---------------------------------------------------------------------------
# JSON interchange


def _tri_order(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def algebra_to_json(obj) -> str:
    """Serialize a CommAlgebra or FrobeniusPair; scalars become strings.

    Structure constants are listed for i <= j in row major order, each as
    sorted [k, coeff] pairs with 0-based k.
    """
    if isinstance(obj, FrobeniusPair):
        a, lam = obj.algebra, obj.lam
    else:
        a, lam = obj, None
    f = a.field
    constants = []
    for i, j in _tri_order(a.n):
        row = [[k, f.fmt(v)] for k, v in sorted(a.table[i][j].items())]
        constants.append(row)
    doc = {"field": f.tag, "basis": list(a.names), "constants": constants}
    if lam is not None:
        doc["lambda"] = [f.fmt(c) for c in lam]
    return json.dumps(doc, indent=2) + "\n"


def _json_list(x, what: str, item) -> list:
    """x itself if it is a JSON array of entries of type item; ValueError otherwise."""
    if not isinstance(x, list) or not all(isinstance(y, item) for y in x):
        raise ValueError(f"{what} must be a list of {item.__name__}")
    return x


def algebra_from_json(text: str):
    """Parse the JSON form; returns (CommAlgebra, lam or None).

    The unit is rederived from the constants, so bases that do not contain
    the identity round-trip fine.  A document of the wrong shape raises
    ValueError, as does an unparseable scalar.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    if not isinstance(doc["field"], str):
        raise ValueError("field must be a string")
    f = field_from_descriptor(doc["field"])
    names = tuple(_json_list(doc["basis"], "basis", str))
    n = len(names)
    order = _tri_order(n)
    constants = _json_list(doc["constants"], "constants", list)
    if len(constants) != len(order):
        raise ValueError("constants list must have n(n+1)/2 entries")
    entries = {}
    for (i, j), row in zip(order, constants):
        what = f"constants of b_{i} b_{j}"
        row = _json_list(row, what, list)
        # a JSON boolean is a Python int, so the index type is tested exactly
        if any(len(e) != 2 or type(e[0]) is not int or type(e[1]) is not str for e in row):
            raise ValueError(f"{what} must be [index, scalar string] pairs")
        ks = [k for k, _ in row]
        if any(not 0 <= k < n for k in ks):
            raise ValueError(f"{what} name a basis index outside 0..{n - 1}")
        if len(set(ks)) != len(ks):
            raise ValueError(f"{what} name a basis index twice")
        entries[i, j] = [(k, f.parse(c)) for k, c in row]
    a = CommAlgebra(f, names, _table_from_pairs(f, n, entries))
    lam = None
    if "lambda" in doc:
        lam_doc = _json_list(doc["lambda"], "lambda", str)
        if len(lam_doc) != n:
            raise ValueError(f"lambda must have {n} entries, one per basis element")
        lam = tuple(f.parse(s) for s in lam_doc)
    return a, lam
