"""Centers, normalizing elements, and the surjectivity of multiplication.

The centralizer condition is taken against the 2n + 1 generators: the two
degree-0 idempotent blocks and the degree-1 spanning set b_i e, f b_j.
Commuting with those forces commuting with everything, so the center in
each degree is the intersection of the per-generator commutator kernels.
"""

from __future__ import annotations

from .engine import DegreeRangeError, GradedAlgebra, PiElement
from .frobenius import catalog
from .linalg import Subspace, left_kernel, vec_apply, vec_sub


def _commutator_ops(g: GradedAlgebra, d: int):
    """(right rows, left rows, target degree) for each generator on degree d."""
    f = g.field
    n = g.n
    ops = []
    isr = g.is_r[d]
    a_rows = [({i: f.one} if isr[i] else {}) for i in range(g.dim(d))]
    l0 = g.left0(d)
    ops.append((a_rows, l0[0], d))
    for j in range(n):
        ops.append((g.B[d][j], l0[1 + j], d))
    if d + 1 <= g.D:
        l1 = g.left1(d)
        for i in range(n):
            right = [vec_apply(f, g.B[d][i][k], g.E[d + 1]) for k in range(g.dim(d))]
            ops.append((right, l1[i], d + 1))
        for j in range(n):
            ops.append((g.FB[d + 1][j], l1[n + j], d + 1))
    else:
        raise DegreeRangeError(f"center at degree {d} needs build degree {d + 1}")
    return ops


def center_degree(g: GradedAlgebra, d: int) -> Subspace:
    """Degree-d center as a canonical subspace of the degree-d piece.

    Starting from the whole piece, each generator whose commutator does not
    vanish there cuts the subspace down to the part it commutes with.
    """
    f = g.field
    z = Subspace.full(f, g.dim(d))
    for right, left, tdeg in _commutator_ops(g, d):
        if not z.rows:
            break
        m_rows = [vec_sub(f, vec_apply(f, v, right), vec_apply(f, v, left)) for v in z.rows]
        if any(m_rows):
            z = left_kernel(f, m_rows, g.dim(tdeg), basis=z)
    return z


def centralizer_stack_kernel(g: GradedAlgebra, d: int) -> Subspace:
    """Same subspace as center_degree, via one stacked commutator matrix."""
    f = g.field
    dim = g.dim(d)
    ops = _commutator_ops(g, d)
    offsets = []
    total = 0
    for _, _, tdeg in ops:
        offsets.append(total)
        total += g.dim(tdeg)
    rows = []
    for i in range(dim):
        row = {}
        for (right, left, _), off in zip(ops, offsets):
            dvec = vec_sub(f, right[i], left[i])
            for j, v in dvec.items():
                row[off + j] = v
        rows.append(row)
    return left_kernel(f, rows, total)


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


def _commutes(x: PiElement, signs) -> bool:
    """x g = sigma(g) x for every generator g.

    sigma fixes a and multiplies b_j, b_j e and f b_j by signs[j].
    """
    g = x.graded
    f = g.field
    gen_signs = [f.one] + 3 * list(signs)  # a, the slots, b_i e, f b_j
    for (right, left, _), sg in zip(_commutator_ops(g, x.d), gen_signs):
        rv = vec_apply(f, x.vec, right)
        lv = vec_apply(f, x.vec, left)
        if vec_sub(f, rv, {k: sg * v for k, v in lv.items()}):
            return False
    return True


def is_central(x: PiElement) -> bool:
    """x commutes with every generator, hence with the whole algebra."""
    return _commutes(x, [x.graded.field.one] * x.graded.n)


def _require_bikwad(g: GradedAlgebra):
    if not g.pair.algebra.equal_constants(catalog("bikwad", g.field).algebra):
        raise ValueError("this check is specific to the square presentation")


def normalizing_check(x: PiElement, sign_letter: str) -> bool:
    """x g = sigma(g) x for the sign automorphism negating one square root.

    sigma fixes a and negates every basis monomial containing sign_letter;
    checking against the generator set settles the relation for the whole
    algebra.
    """
    g = x.graded
    _require_bikwad(g)
    if sign_letter not in ("s", "t"):
        raise ValueError("sign letter must be s or t")
    f = g.field
    signs = [f.neg(f.one) if sign_letter in nm else f.one for nm in g.pair.algebra.names]
    return _commutes(x, signs)


# ---------------------------------------------------------------------------
# explicit central elements for the square presentation


def central_words(g: GradedAlgebra):
    """The degree 4 generators, their squares, and the degree 12 element."""
    _require_bikwad(g)
    ex = g.element_from_expr
    u = ex("sef + efs + fse")
    v = ex("tef + eft + fte")
    a_el = ex("sefsef + efsefs + fsefse")
    b_el = ex("teftef + efteft + ftefte")
    c_el = ex("sefsteftef + efsefsteft + fsefstefte")
    return u, v, a_el, b_el, c_el


def explicit_center_checks(g: GradedAlgebra) -> dict:
    """Identities among the named normalizing and central elements.

    u and v are not central; they normalize through the sign automorphism
    negating the other square root, and their squares A and B are central.
    """
    u, v, a_el, b_el, c_el = central_words(g)
    out = {
        "u_normalizing": normalizing_check(u, "t"),
        "v_normalizing": normalizing_check(v, "s"),
        "uu_is_A": g.multiply(u, u) == a_el,
        "vv_is_B": g.multiply(v, v) == b_el,
        "A_central": is_central(a_el),
        "B_central": is_central(b_el),
        "C_central": is_central(c_el),
    }
    if 12 <= g.D:
        out["CC_zero"] = g.multiply(c_el, c_el).is_zero()
    return out


def zeta_dimension_check(g: GradedAlgebra, D: int) -> bool:
    """Monomials in A, B, C span the center degreewise up to D.

    A and B sit in degree 4, C in degree 6 with C^2 = 0, so degree d takes
    the monomials A^i B^j C^eps with 4i + 4j + 6 eps = d.
    """
    _require_bikwad(g)
    if D + 1 > g.D:
        raise DegreeRangeError(f"degree {D} needs build degree {D + 1}")
    f = g.field
    _, _, a_el, b_el, c_el = central_words(g)
    pow_cache = {}

    def monomial(i, j, eps):
        key = (i, j, eps)
        if key in pow_cache:
            return pow_cache[key]
        if i > 0:
            el = g.multiply(a_el, monomial(i - 1, j, eps))
        elif j > 0:
            el = g.multiply(b_el, monomial(0, j - 1, eps))
        elif eps:
            el = c_el
        else:
            el = g.unit_element()
        pow_cache[key] = el
        return el

    for d in range(D + 1):
        z = center_degree(g, d)
        vecs = []
        for eps in (0, 1):
            rem = d - 6 * eps
            if rem < 0 or rem % 4:
                continue
            k = rem // 4
            for i in range(k + 1):
                vecs.append(monomial(i, k - i, eps).vec)
        span = Subspace.from_vectors(f, g.dim(d), [dict(v) for v in vecs])
        if span.dim != z.dim:
            return False
        if not all(z.contains(r) for r in span.rows):
            return False
    return True


def mu3_check(g: GradedAlgebra) -> bool:
    """Degree 1 times the degree 4 center covers degree 3 entirely... via
    the two degree-4 generators acting on the degree-1 basis."""
    _require_bikwad(g)
    f = g.field
    u, v, _, _, _ = central_words(g)
    vecs = []
    for i in range(g.dim(1)):
        x = g.basis_element(1, i)
        vecs.append(g.multiply(u, x).vec)
        vecs.append(g.multiply(v, x).vec)
    span = Subspace.from_vectors(f, g.dim(3), vecs)
    return span.dim == g.dim(3)


# ---------------------------------------------------------------------------
# surjectivity of the multiplication map


def _word_span_dims(g: GradedAlgebra, dmax: int):
    """Span of all canonical words per degree, walked as a tree of classes."""
    f = g.field
    level = []
    for i in range(g.dim(0)):
        level.append(({i: f.one}, g.is_r[0][i]))
    spans = [Subspace.from_vectors(f, g.dim(0), [dict(v) for v, _ in level]).dim]
    for d in range(1, dmax + 1):
        nxt = []
        for vec, isr in level:
            if not isr:
                w = vec_apply(f, vec, g.E[d])
                if w:
                    nxt.append((w, True))
            else:
                for j in range(g.n):
                    w = vec_apply(f, vec, g.FB[d][j])
                    if w:
                        nxt.append((w, False))
        level = nxt
        spans.append(Subspace.from_vectors(f, g.dim(d), [dict(v) for v, _ in level]).dim)
    return spans


def sigma_surjectivity_check(g: GradedAlgebra, D: int) -> bool:
    """Multiplication from the tensor algebra hits every degree up to D.

    Degrees through 6 are checked by spanning with every canonical word.
    Beyond 6, once degree d - 4 is hit in full, degree d is checked as the
    span of the degree-4 center times every basis word of degree d - 4.
    """
    if D > g.D:
        raise DegreeRangeError(f"degree {D} exceeds build degree {g.D}")
    f = g.field
    low = min(D, 6)
    spans = _word_span_dims(g, low)
    for d in range(low + 1):
        if spans[d] != g.dim(d):
            return False
    if D <= 6:
        return True
    z4 = [PiElement(g, 4, r) for r in center_degree(g, 4).rows]
    for d in range(7, D + 1):
        vecs = []
        for z in z4:
            for i in range(g.dim(d - 4)):
                vecs.append(g.multiply(z, g.basis_element(d - 4, i)).vec)
        span = Subspace.from_vectors(f, g.dim(d), vecs)
        if span.dim != g.dim(d):
            return False
    return True
