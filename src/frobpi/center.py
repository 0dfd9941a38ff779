"""Centers, and the spans of products that settle generation.

The algebra is generated by its word letters: the degree-0 idempotent a,
the S-basis slots b_j, and the two degree-1 letters e and f.  Commuting
with those forces commuting with everything, so the center in each degree
is the intersection of the per-letter commutator kernels.  Of the slots,
the centre cuts only by those of the fewest b_j that generate S with its
unit, since the cuts by the other slots follow from those (see
_center_degree).  Each cut applies the letter's right and left
operators to the rows z of the subspace cut so far, as z l - l z, never
to every word, and reduces only the rows the letter moves.  Each build
keeps the centres it has computed, so each degree is computed at most
once per build, and the disk cache stores and loads them with the build
(see center_degree and cache).

Spanning facts go through _left_span, the span of the products x y over a
list of elements x: the monomials in given generators against the center
(monomials_span_center), and x Pi_{d - deg x} against the whole of Pi_d
(products_span), which sigma_surjectivity_check asks of Z_4 Pi_3 and Pi_7.
"""

from __future__ import annotations

from .engine import A_LETTER, E_LETTER, F_LETTER, DegreeRangeError, GradedAlgebra, PiElement, letter_degree
from .linalg import Subspace, left_kernel, vec_apply


def _need_room(g: GradedAlgebra, d: int):
    if d + 1 > g.D:
        raise DegreeRangeError(f"center at degree {d} needs build degree {d + 1}")


def _commutator_ops(g: GradedAlgebra, d: int):
    """Per letter l, the rows of x -> x l and of x -> l x on degree d, with the target degree.

    The letters are a, the slots of generating_slots() (see
    _center_degree), e and f; a letter's rows are built only when the
    iteration reaches it.
    """
    _need_room(g, d)
    for L in (A_LETTER, *g.pair.algebra.generating_slots(), E_LETTER, F_LETTER):
        yield g.right_op(L, d), g.left_op(L, d), d + letter_degree(L)


def _commutators(f, vecs, right, left):
    """x l - l x for each x in vecs, given the rows of x -> x l and x -> l x; each summed as vec_apply sums."""
    p, out = f.p, []
    for x in vecs:
        row, cancelled = {}, False
        for ops, sign in ((right, 1), (left, -1)):
            for i, c in x.items():
                c = c if sign > 0 else -c
                for j, v in ops[i].items():
                    t = row[j] + c * v if j in row else c * v
                    row[j] = t = t if p is None else t % p
                    if not t:
                        cancelled = True
        out.append({j: v for j, v in row.items() if v} if cancelled else row)
    return out


def center_degree(g: GradedAlgebra, d: int) -> Subspace:
    """Degree-d center as a canonical subspace of the degree-d piece, computed once per build.

    The build's memo g.centers keeps every degree computed, or loaded from
    the disk cache.  The first time it holds every degree 0..D-1, the store
    the cache set in g.on_centers_complete, if any, is called: this is the
    one place centres are written.
    """
    _need_room(g, d)
    z = g.centers.get(d)
    if z is None:
        z = g.centers[d] = _center_degree(g, d)
        if len(g.centers) == g.D and g.on_centers_complete is not None:
            g.on_centers_complete(g)
    return z


def _center_degree(g: GradedAlgebra, d: int) -> Subspace:
    """The computation behind center_degree.

    The commutator with a is diagonal: its kernel is spanned by the words
    that start with a exactly when they end on the R side, so the cut
    starts from those coordinates and reduces nothing.  In odd degrees no
    word does, and the center is zero.  Then each other letter l is applied
    to the subspace's rows z alone, as z l - l z through l's right and left
    operators, so the commutator of a word outside the subspace is never
    formed; where that does not vanish, it cuts the subspace down to the
    part l commutes with, and left_kernel passes the rows l does not move
    through unreduced.

    What commutes with a commutes with 1_S = 1 - a.  What also commutes
    with some b_j commutes with every product of 1_S and those b_j, and
    when they generate S, as an algebra with unit 1_S, that is all of S,
    hence all of Pi_0 = k a + S.  So only the slots of
    S.generating_slots(), the first smallest generating set, are cut by:
    one slot for k[t]/(g), t4 among them, two for bikwad and t3-plus-k,
    and never more than n - 1, since the unit and the other slots give any
    slot the unit covers.  The set comes from the structure constants,
    once per algebra.
    """
    f = g.field
    keep = tuple(i for i, (r, a) in enumerate(zip(g.is_r[d], g.starts_a[d])) if r == a)
    z = Subspace(f, g.dim(d), keep, tuple({i: f.one} for i in keep))
    if not keep:
        return z
    ops = _commutator_ops(g, d)
    next(ops)  # a, whose kernel z already is
    for right, left, tdeg in ops:
        m_rows = _commutators(f, z.rows, right, left)
        if any(m_rows):
            z = left_kernel(f, m_rows, g.dim(tdeg), basis=z)
            if not z.rows:
                break
    return z


def center_dims(g: GradedAlgebra, D: int):
    """Center dimensions for degrees 0..D; needs build degree D + 1."""
    return [center_degree(g, d).dim for d in range(D + 1)]


def expected_center_dim(d: int) -> int:
    """d/4 + 1 when 4 | d, (d - 2)/4 when d = 2 mod 4, else 0."""
    if d % 4 == 0:
        return d // 4 + 1
    if d % 4 == 2:
        return (d - 2) // 4
    return 0


def is_central(x: PiElement) -> bool:
    """x commutes with a, e, f and the generating slots, hence with the whole algebra (see _center_degree)."""
    g = x.graded
    return not any(_commutators(g.field, [x.vec], right, left)[0] for right, left, _ in _commutator_ops(g, x.d))


# ---------------------------------------------------------------------------
# spans of products


def _left_span(g: GradedAlgebra, d: int, xs, spans=None) -> Subspace:
    """Span in degree d of the products x y, for x in xs and y of degree d - x.d.

    y runs over the basis of its degree, or over the rows of spans[d - x.d]
    when spans is given.
    """
    f = g.field
    vecs = []
    for x in xs:
        rows = g.left(x, d - x.d)
        vecs += rows if spans is None else [vec_apply(f, y, rows) for y in spans[d - x.d].rows]
    return Subspace.from_vectors(f, g.dim(d), vecs)


def monomials_span_center(g: GradedAlgebra, gens, D: int) -> bool:
    """Monomials in the elements gens span the center degreewise up to D.

    Degree 0 is spanned by the unit, and degree d by x times the span of
    degree d - deg x, for each generator x; each span must be the center
    of its degree.  Every generator needs a positive degree.
    """
    if not 0 <= D < g.D:
        raise DegreeRangeError(f"degree {D} outside 0..{g.D - 1}")
    if any(x.d <= 0 for x in gens):
        raise DegreeRangeError("every generator needs a positive degree")
    spans = [Subspace.from_vectors(g.field, g.dim(0), [g.unit_element().vec])]
    for d in range(D + 1):
        if d:
            spans.append(_left_span(g, d, [x for x in gens if x.d <= d], spans))
        z = center_degree(g, d)
        if spans[d].dim != z.dim or not all(z.contains(r) for r in spans[d].rows):
            return False
    return True


def products_span(g: GradedAlgebra, d: int, xs) -> bool:
    """The products x y, for x in xs and y of degree d - deg x, span Pi_d."""
    if not 0 <= d <= g.D:
        raise DegreeRangeError(f"degree {d} outside 0..{g.D}")
    return _left_span(g, d, xs).dim == g.dim(d)


def sigma_surjectivity_check(g: GradedAlgebra, D: int) -> bool:
    """Multiplication from the tensor algebra hits every degree up to D.

    Each basis word is its parent word times one letter, and the build
    stores the unit row at the word's coordinate as that letter's row (E,
    or FB for f and a slot): Pi_d = Pi_{d-1} Pi_1 by construction, so
    degrees through 6 need no computation.  Past 6, Pi_7 = Z_4 Pi_3, with
    Z_4 the degree-4 center, gives Pi_d = Z_4 Pi_{d-5} Pi_1 = Z_4 Pi_{d-4}
    for all d >= 7 by induction, so one span from a degree-7 build answers
    for any D.
    """
    if not 0 <= min(D, 7) <= g.D:
        raise DegreeRangeError(f"degree {min(D, 7)} outside 0..{g.D}")
    if D <= 6:
        return True
    return products_span(g, 7, [PiElement(g, 4, z) for z in center_degree(g, 4).rows])
