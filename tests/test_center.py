"""Center computation: ranks, explicit elements, generation, char-2 reality."""

import hashlib
import random
from fractions import Fraction

import pytest

from frobpi import CATALOG_NAMES, build, catalog, engine, linalg
from frobpi import center as center_module
from frobpi.center import (
    _commutator_ops,
    _commutators,
    center_degree,
    center_dims,
    expected_center_dim,
    is_central,
    monomials_span_center,
    products_span,
    sigma_surjectivity_check,
)
from frobpi.engine import A_LETTER, E_LETTER, F_LETTER, DegreeRangeError, GradedAlgebra, PiElement, letter_degree
from frobpi.fields import field_from_descriptor
from frobpi.frobenius import (
    CommAlgebra,
    FrobeniusPair,
    SingularGramError,
    _dense_inverse,
    deformation,
    make_frobenius,
    specialize_pair,
)
from conftest import FAMILIES, bikwad_words, family_pair, normalizes, word_sum


def test_expected_center_dim_values():
    assert [expected_center_dim(d) for d in range(13)] == [
        1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 4,
    ]


def test_center_formula_over_q(q_engines):
    for name, g in q_engines.items():
        assert center_dims(g, 12) == [expected_center_dim(d) for d in range(13)], name


def test_center_formula_over_fp5(fp_engines):
    for name in CATALOG_NAMES:
        g = fp_engines[name, 5]
        assert center_dims(g, 12) == [expected_center_dim(d) for d in range(13)], name


def _stacked_kernel(g, d):
    """Same subspace as center_degree, via one stacked commutator matrix over every word and letter."""
    f = g.field
    units = [{i: f.one} for i in range(g.dim(d))]
    rows = [{} for _ in units]
    total = 0
    for L in (A_LETTER, *range(g.n), E_LETTER, F_LETTER):
        for row, r in zip(rows, _commutators(f, units, g.right_op(L, d), g.left_op(L, d))):
            row.update((total + j, v) for j, v in r.items())
        total += g.dim(d + letter_degree(L))
    return linalg.left_kernel(f, rows, total)


def _assert_incremental_matches_stacked(g, degrees, name=None):
    for d in degrees:
        inc = center_degree(g, d)
        stk = _stacked_kernel(g, d)
        assert inc.pivots == stk.pivots, (name, g.field.tag, d)
        assert inc.rows == stk.rows, (name, g.field.tag, d)


def test_incremental_matches_stacked(q_engines, fp_engines):
    # one reduction per letter, cutting only by the slots that generate S,
    # lands on the same canonical subspace as one reduction of all the
    # commutators stacked, over Q, F_2, F_3, F_5 and Q(u), for the catalog,
    # the seven families and their fibres at u = 0; bikwad's f-cut is live
    # at degree 10
    cases = [(name, q_engines[name], range(9)) for name in CATALOG_NAMES]
    cases += [(name, fp_engines[name, p], range(9)) for p in (2, 3, 5) for name in CATALOG_NAMES]
    cases += [("bikwad", q_engines["bikwad"], (10,))]
    for name in FAMILIES:
        pair = family_pair(name)
        cases += [(name, build(pair, 6), range(6)), (f"{name} at 0", build(specialize_pair(pair, "q", 0), 6), range(6))]
    for name, g, degrees in cases:
        _assert_incremental_matches_stacked(g, degrees, name)


# sha256 of center_degree(g, d), pivots and rows, per (pair, field), for
# d <= 20 over Q and F_p and d <= 8 for the families over Q(u): the stdout
# goldens pin only dimensions, these pin the canonical rows
CENTER_ROWS_SHA256 = {
    ("split4", "q"): "a2832a16351dcae1f04729a181cc933a2cdd534de6a19d62b57ddce1c05bf739",
    ("dual-numbers-pair", "q"): "7e3e193bef6baa9799d8bb04fe7e7c5c3a2ca60196ef144fb0bef8f597dc0e61",
    ("two-dual-numbers", "q"): "b3b8dc77f011671888319486d7001446e05cf8a754419beb97e75a9c8a6cadc2",
    ("t3-plus-k", "q"): "c71fd04aba58af6dcae85bed426bf5dcbefe280f45a850867ff04815ef63a564",
    ("t4", "q"): "0295b5ca9f041ad3b295e29292ead31a14f821ae1b93a8079e2c888caf5ab736",
    ("bikwad", "q"): "ce8212729c472f66091aee56e75fe5374cfcbe7aa15ad1a8c6cc569b1a159b0b",
    ("split4", "fp:2"): "16e39499ecb88441648ca19e13767b9497b7b39fa6f4b1d5b1e83f2cccd0f7b6",
    ("dual-numbers-pair", "fp:2"): "b40e02f6389dfaaf80248ef091610e4509e72a31e7fea6fcc03fca9e4979d8f2",
    ("two-dual-numbers", "fp:2"): "80b55ecaae2f978ee32f93b8851c023c6f6184c9910a2cf497512cc02a7b5132",
    ("t3-plus-k", "fp:2"): "6986bbb3370cdef072e2a1400130d8b8075c7e31748bfd5b09e16c3def6b3133",
    ("t4", "fp:2"): "0b8e12faf132a7e586761a5f5b3b8e7a9be899a7b89fc5bc9d65fc53a7c76c78",
    ("bikwad", "fp:2"): "4b10cbae7ed82cc9f78b572dee509f166285ab31d2d8d75b9f180c56e4947807",
    ("split4", "fp:5"): "2b86648c92b4e43d544c1209df7019e117e5a98edbf04b1337f9efc30b3c01fe",
    ("dual-numbers-pair", "fp:5"): "a62884257d0c20be2e4f544628b65694f4109bc24842a3e224faf1c8e2217c2c",
    ("two-dual-numbers", "fp:5"): "dedd0fb948cd8a5f812f2c4393798ea6662e0c43e2a2158df505392cb0ae2df8",
    ("t3-plus-k", "fp:5"): "662432e62f7abb285c541fda16d84ba78758bd4a7334edd722d2e34ba4822efa",
    ("t4", "fp:5"): "9efd1c3999ab54d0cc9dc5c80099b3d5dd4b7c13c15c960866fe8189634ffa32",
    ("bikwad", "fp:5"): "dc9415937a002dcda131c1a78855d59c53e4bcc7a68647bf57d669e9bde049ab",
    ("family 1", "qu"): "f345dfec0e3264f089a5a3341f30b60e49dd91778d90379453cbf89b46673af9",
    ("family 2", "qu"): "355e14607afd9f6b4b520768b95847f18a59f0b7d96511faf01dddcf98ae6be8",
    ("family 3", "qu"): "09fc6321cc45567260b98ce309f89743f3a071255f22d2ab52da45c5ce1242a2",
    ("family 4", "qu"): "774f0222fcab42f5be1d0d1bc0c2eec82a71bcf87bba59d895c0b8cea3f90bc1",
    ("family 5", "qu"): "3a29a346a2e31ad131c9ab5ce83231ce36276f608e5f6350d0335216d195b362",
    ("family 6", "qu"): "999d73db506cf1b7e2fe0e7181325d895df7a1e6241bd9b72b57d5cd8635042c",
    ("family 6c", "qu"): "98f72a966394f55999b3c5f06c0279ebf0e17485752e157aaaed190bd885a2e7",
}


def test_center_rows_pinned():
    for (name, desc), digest in CENTER_ROWS_SHA256.items():
        if desc == "qu":
            g = build(family_pair(name), 9)
        else:
            g = build(catalog(name, field_from_descriptor(desc)), 21)
        f, lines = g.field, []
        for d in range(g.D):
            z = center_degree(g, d)
            rows = ";".join(",".join(f"{j}:{f.fmt(v)}" for j, v in sorted(r.items())) for r in z.rows)
            lines.append(f"{d} {list(z.pivots)} {rows}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, (name, desc)


def test_center_commutes_with_degree_0_and_1_bases(q_engines, fp_engines):
    # degrees 0 and 1 generate the algebra, so commuting with their bases is
    # being central: the letters a, b_j, e and f leave nothing out
    fam = deformation(4)
    generic = build(make_frobenius(fam.algebra, list(fam.lam)), 4)
    cases = [(q_engines[name], 10) for name in CATALOG_NAMES]
    cases += [(fp_engines[name, p], 10) for p in (2, 5) for name in CATALOG_NAMES]
    cases += [(generic, 4)]
    for g, top in cases:
        gens = [g.basis_element(e, i) for e in (0, 1) for i in range(g.dim(e))]
        for d in range(top):
            for r in center_degree(g, d).rows:
                z = PiElement(g, d, r)
                for x in gens:
                    assert g.multiply(z, x) == g.multiply(x, z), (g.field.tag, d)


def test_a_commutator_rows_match_products(q_engines, fp_engines):
    # the rows of the letter a are read off the words; they must be x a and a x
    fam = deformation(4)
    generic = build(make_frobenius(fam.algebra, list(fam.lam)), 5)
    cases = [(q_engines[name], 8) for name in CATALOG_NAMES]
    cases += [(fp_engines[name, p], 8) for p in (2, 5) for name in CATALOG_NAMES]
    cases += [(generic, 4)]
    for g, top in cases:
        a = word_sum(g, ("a",))
        for d in range(top + 1):
            right, left, tdeg = next(_commutator_ops(g, d))
            assert tdeg == d
            for i, (r, l) in enumerate(zip(right, left, strict=True)):
                x = g.basis_element(d, i)
                assert PiElement(g, d, r) == g.multiply(x, a), (g.field.tag, d)
                assert PiElement(g, d, l) == g.multiply(a, x), (g.field.tag, d)


def test_center_degree_reduces_once_per_generator(monkeypatch):
    # each cut reduces exactly the basis rows whose commutator is nonzero,
    # each cut shrinks the basis, and only the slots of the first smallest
    # set that generates S are asked for, so no other slot's commutator is
    # reduced; fresh builds, since a build computes each centre once and
    # then reads its memo
    reduced, cuts, slots = [], [], []
    rref = linalg._rref_generic
    monkeypatch.setattr(linalg, "_rref_generic", lambda *a, **k: reduced.append(len(a[1])) or rref(*a, **k))
    kernel = center_module.left_kernel

    def cut(f, rows, ncols, basis):
        cuts.append((sum(1 for r in rows if r), basis.dim))
        return kernel(f, rows, ncols, basis=basis)

    monkeypatch.setattr(center_module, "left_kernel", cut)
    right_op = GradedAlgebra.right_op
    monkeypatch.setattr(GradedAlgebra, "right_op", lambda g, L, d: slots.append((L, d)) or right_op(g, L, d))
    for name, gens in (("split4", (0, 1, 2)), ("dual-numbers-pair", (0, 1, 2)), ("t3-plus-k", (0, 1)), ("bikwad", (1, 2))):
        g = build(catalog(name), 9)
        # the search for the set reduces tiny matrices of its own, once per algebra
        assert g.pair.algebra.generating_slots() == gens, name
        for d in (4, 6, 8):
            for seen in (reduced, cuts, slots):
                seen.clear()
            z = center_degree(g, d)
            assert [L for L, at in slots if L >= 0 and at == d] == list(gens), (name, d)
            assert reduced == [live for live, _ in cuts] and all(reduced), (name, d, cuts)
            dims = [dim for _, dim in cuts] + [z.dim]
            assert all(a > b for a, b in zip(dims, dims[1:])), (name, d, dims)


def test_center_commutes_only_its_subspace_rows(monkeypatch):
    # each letter is applied, right and left, to the rows of the subspace
    # cut so far, not to every word: the first letter after a sees the
    # words a keeps, and every later one at most the rows the last cut left
    seen = []
    commutators = center_module._commutators
    monkeypatch.setattr(center_module, "_commutators", lambda f, vecs, r, l: seen.append(len(vecs)) or commutators(f, vecs, r, l))
    for name, tag in (("split4", "q"), ("bikwad", "q"), ("t4", "fp:5"), ("bikwad", "fp:2")):
        g = build(catalog(name, field_from_descriptor(tag)), 13)
        for d in (4, 8, 12):
            seen.clear()
            z = center_module._center_degree(g, d)
            keep = sum(r == a for r, a in zip(g.is_r[d], g.starts_a[d]))
            assert seen[0] == keep, (name, tag, d)
            assert all(a >= b >= z.dim for a, b in zip(seen, seen[1:])), (name, tag, d, seen)
            assert len(seen) <= len(g.pair.algebra.generating_slots()) + 2


def test_odd_center_reduces_nothing(monkeypatch):
    # no word of odd degree starts with a and ends on the R side, or the
    # other way round, so the a commutator alone leaves nothing to reduce;
    # fresh builds, so that each degree is computed here, not read from a memo
    cases = (("bikwad", "q"), ("bikwad", "fp:2"), ("t4", "fp:5"))
    builds = [build(catalog(name, field_from_descriptor(tag)), 12) for name, tag in cases]
    calls, computed = [], []
    rref = linalg._rref_generic
    monkeypatch.setattr(linalg, "_rref_generic", lambda *a, **k: calls.append(len(a[1])) or rref(*a, **k))
    compute = center_module._center_degree
    monkeypatch.setattr(center_module, "_center_degree", lambda g, d: computed.append(d) or compute(g, d))
    for g in builds:
        computed.clear()
        for d in (1, 3, 5, 7, 9, 11):
            z = center_degree(g, d)
            assert (z.dim, z.ambient, calls) == (0, g.dim(d), []), (g.field.tag, d)
        assert computed == [1, 3, 5, 7, 9, 11], g.field.tag


def test_center_degree_computes_each_degree_once(monkeypatch):
    # the build's memo answers every later call with the same subspace
    computed = []
    compute = center_module._center_degree
    monkeypatch.setattr(center_module, "_center_degree", lambda g, d: computed.append(d) or compute(g, d))
    g = build(catalog("t4"), 9)
    first = [center_degree(g, d) for d in range(9)]
    assert center_dims(g, 8) == [z.dim for z in first]
    assert all(center_degree(g, d) is first[d] for d in range(9))
    assert computed == list(range(9))
    assert g.centers == dict(enumerate(first))
    with pytest.raises(DegreeRangeError):
        center_degree(g, 9)
    assert computed == list(range(9))


def test_center_vectors_are_central(q_engines):
    g = q_engines["t3-plus-k"]
    for d in (0, 4, 6, 8):
        for r in center_degree(g, d).rows:
            assert is_central(PiElement(g, d, r))


def test_center_closed_under_multiplication(q_engines):
    g = q_engines["bikwad"]
    z4 = [PiElement(g, 4, r) for r in center_degree(g, 4).rows]
    z8 = center_degree(g, 8)
    for x in z4:
        for y in z4:
            prod = g.multiply(x, y)
            assert z8.contains(prod.vec)


def test_explicit_central_words(bikwad_q):
    g = bikwad_q
    u, v, a, b, c = bikwad_words(g)
    assert normalizes(u, "t") and normalizes(v, "s")
    assert g.multiply(u, u) == a and g.multiply(v, v) == b
    assert is_central(a) and is_central(b) and is_central(c)
    assert g.multiply(c, c).is_zero()


def test_u_v_normalize_not_central(bikwad_q):
    u, v, a, b, c = bikwad_words(bikwad_q)
    assert not is_central(u)
    assert not is_central(v)
    assert normalizes(u, "t")
    assert normalizes(v, "s")
    assert is_central(a) and is_central(b) and is_central(c)


def test_u_normalizes_through_the_wrong_sign_only_mod_2(bikwad_q, fp_engines):
    # over Q, u does not normalize through the automorphism negating s; over
    # F_2 every sign twist is the identity and u is central
    assert not normalizes(bikwad_words(bikwad_q)[0], "s")
    assert normalizes(bikwad_words(fp_engines["bikwad", 2])[0], "s")


def test_zeta_dimension_match(bikwad_q):
    assert monomials_span_center(bikwad_q, bikwad_words(bikwad_q)[2:], 12)


def test_zeta_dimension_fails_over_f2(fp_engines):
    # over F_2 the centre of bikwad outgrows the monomials in A, B and C
    g = fp_engines["bikwad", 2]
    assert not monomials_span_center(g, bikwad_words(g)[2:], 12)


def _z4_z6_basis(g):
    """A and B spanning Z_4 and C spanning Z_6, as center_degree finds them."""
    return [PiElement(g, d, r) for d in (4, 6) for r in center_degree(g, d).rows]


@pytest.mark.parametrize("tag", ["q", "fp:3", "fp:5"])
def test_monomials_span_center_all_pairs(tag):
    f = field_from_descriptor(tag)
    for name in CATALOG_NAMES:
        g = build(catalog(name, f), 13)
        assert monomials_span_center(g, _z4_z6_basis(g), 12), (name, tag)


def test_monomials_fall_short_over_f2(fp_engines):
    # over F_2 three pairs have central elements in degree 2 (see CHAR2_DIMS)
    short = set()
    for name in CATALOG_NAMES:
        g = fp_engines[name, 2]
        if not monomials_span_center(g, _z4_z6_basis(g), 12):
            short.add(name)
    assert short == {"t4", "two-dual-numbers", "bikwad"}


def test_monomials_need_both_degree_4_generators(q_engines):
    for name, g in q_engines.items():
        a, b, c = _z4_z6_basis(g)
        assert not monomials_span_center(g, [a, c], 12), name


def test_monomials_span_center_degree_range(bikwad_q):
    gens = bikwad_words(bikwad_q)[2:]
    for D in (-1, bikwad_q.D):
        with pytest.raises(DegreeRangeError):
            monomials_span_center(bikwad_q, gens, D)


def test_monomials_span_center_needs_positive_degrees(bikwad_q):
    with pytest.raises(DegreeRangeError):
        monomials_span_center(bikwad_q, [bikwad_q.unit_element()], 3)


def test_mu3(bikwad_q):
    # u Pi_1 + v Pi_1 = Pi_3
    assert products_span(bikwad_q, 3, bikwad_words(bikwad_q)[:2])


def test_mu3_fails_with_zero_u(bikwad_q):
    # v Pi_1 alone has at most dim Pi_1 = 8 rows, too few for Pi_3
    v = bikwad_words(bikwad_q)[1]
    assert not products_span(bikwad_q, 3, [bikwad_q.zero(2), v])


def test_products_span_degree_range(bikwad_q):
    for d in (-1, bikwad_q.D + 1):
        with pytest.raises(DegreeRangeError):
            products_span(bikwad_q, d, [bikwad_q.unit_element()])


def test_sigma_surjectivity_all_pairs(q_engines):
    for name, g in q_engines.items():
        assert sigma_surjectivity_check(g, 12), name


@pytest.mark.parametrize("tag", ["q", "fp:2", "fp:5"])
def test_sigma_degree_7_build_answers_for_any_cap(tag):
    # Pi_7 = Z_4 Pi_3 settles every degree past 6, so a degree-7 build answers
    # for a cap of 40; a build short of degree 7 cannot
    f = field_from_descriptor(tag)
    for name in CATALOG_NAMES:
        pair = catalog(name, f)
        assert sigma_surjectivity_check(build(pair, 7), 40), name
        with pytest.raises(DegreeRangeError):
            sigma_surjectivity_check(build(pair, 6), 7)


def test_sigma_rejects_a_negative_cap(bikwad_q):
    with pytest.raises(DegreeRangeError):
        sigma_surjectivity_check(bikwad_q, -1)


@pytest.mark.parametrize("D", [7, 40])
def test_sigma_fails_without_degree_4_center(monkeypatch, D):
    # a planted empty Z_4 spans nothing in degree 7, whatever the cap past 6
    real = center_module.center_degree

    def no_z4(g, d):
        return linalg.Subspace.from_vectors(g.field, g.dim(d), []) if d == 4 else real(g, d)

    monkeypatch.setattr(center_module, "center_degree", no_z4)
    g = build(catalog("bikwad"), 7)
    assert sigma_surjectivity_check(g, 6)
    assert not sigma_surjectivity_check(g, D)


def test_center_degree_needs_room(q_engines):
    with pytest.raises(DegreeRangeError):
        center_degree(q_engines["bikwad"], 16)


# ---------------------------------------------------------------------------
# characteristic 2.  The closed-form center ranks do not survive reduction
# mod 2 for the three pairs whose degree-2 normalizing elements become
# central (the sign twists they normalize by are trivial mod 2).  These
# tests freeze the computed mod-2 tables as regressions and verify the
# extra central elements honestly.


CHAR2_DIMS = {
    "split4": [1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 4],
    "dual-numbers-pair": [1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 4],
    "t3-plus-k": [1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 4],
    "two-dual-numbers": [1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 4],
    "t4": [1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 4],
    "bikwad": [1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11, 0, 13],
}


def test_char2_center_tables(fp_engines):
    for name in CATALOG_NAMES:
        g = fp_engines[name, 2]
        assert center_dims(g, 12) == CHAR2_DIMS[name], name


def test_char2_u_v_become_central(fp_engines):
    g = fp_engines["bikwad", 2]
    u, v, a, b, c = bikwad_words(g)
    assert is_central(u) and is_central(v)
    # exhaustive commutation against every basis element in low degrees
    for el in (u, v):
        for d in range(5):
            for i in range(g.dim(d)):
                x = g.basis_element(d, i)
                assert g.multiply(el, x) == g.multiply(x, el)


def test_char2_semicontinuity_chain(fp_engines):
    # each deformation arrow can only shrink the center along the chain
    chain = ["bikwad", "t4", "two-dual-numbers", "dual-numbers-pair", "split4"]
    for a, b in zip(chain, chain[1:]):
        za = center_dims(fp_engines[a, 2], 12)
        zb = center_dims(fp_engines[b, 2], 12)
        assert all(x >= y for x, y in zip(za, zb)), (a, b)


def test_char2_centers_still_match_over_odd_primes(fp_engines):
    for name in ("two-dual-numbers", "t4", "bikwad"):
        g = fp_engines[name, 5]
        assert center_dims(g, 12) == [expected_center_dim(d) for d in range(13)]


@pytest.mark.parametrize("p", [2147483629, 2**31 - 1])
def test_large_prime_matches_q(q_engines, p):
    # the largest primes a field accepts (p < 2^31), where residue products in
    # the sparse lane run to about 2^62: a missed reduction mod p or a wrong
    # inverse would part the F_p tables from the Q ones
    f = field_from_descriptor(f"fp:{p}")
    for name in CATALOG_NAMES:
        gq = q_engines[name]
        gp = build(catalog(name, f), 9)
        assert gp.dims() == [gq.dim(d) for d in range(10)], name
        assert [gp.split_dims(d) for d in range(9)] == [gq.split_dims(d) for d in range(9)], name
        assert center_dims(gp, 8) == center_dims(gq, 8), name


@pytest.mark.parametrize("n", range(1, 7))
def test_generic_fibre_matches_fibre_at_7_13(n):
    # 0 and +-1 are the only special values of families 1-6, so the Q build of
    # the fibre at 7/13, or at a seeded draw c outside them, must have the
    # generic dims and centre dims of the Q(u) build
    fam = deformation(n)
    pair = make_frobenius(fam.algebra, list(fam.lam))
    gu = build(pair, 6)
    assert gu.field.tag == "qu"

    def dims(g):
        return [g.dim(d) for d in range(6)], [center_degree(g, d).dim for d in range(6)]

    generic = dims(gu)
    rng = random.Random(f"fibre {n}")
    drawn = [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(2)]
    for c in sorted({Fraction(7, 13), *drawn} - {0, 1, -1}):
        gc = build(specialize_pair(pair, "q", c), 6)
        assert gc.field.tag == "q"
        assert dims(gc) == generic, c


# ---------------------------------------------------------------------------
# metamorphic: the same algebra in another basis


def _rebased(pair, rng):
    """The pair rewritten in the basis b'_i = sum_k P[i][k] b_k.

    P = L U with L and U random unitriangular integer matrices: invertible
    over every field, and with an integer inverse, so the Q constants stay
    small enough for the tier-1 budget.
    """
    f, alg, n = pair.field, pair.algebra, pair.n

    def tri(lower):
        def entry(i, j):
            return 1 if i == j else rng.randint(-1, 1) if (i > j) == lower else 0

        return [[entry(i, j) for j in range(n)] for i in range(n)]

    low, up = tri(True), tri(False)
    P = [[f.convert(sum(low[i][k] * up[k][j] for k in range(n))) for j in range(n)] for i in range(n)]
    inv = _dense_inverse(f, P)
    new = [f.post_reduce(dict(enumerate(row))) for row in P]

    def coords(v):
        # v = sum_m c_m b'_m, i.e. c = v P^-1
        return [f.convert(sum((f.mul(c, inv[k][m]) for k, c in v.items()), f.zero)) for m in range(n)]

    table = [[f.post_reduce(dict(enumerate(coords(alg.mul_vec(x, y))))) for y in new] for x in new]
    rebased = CommAlgebra(f, alg.names, table, unit=coords(alg.unit_vec()))
    return FrobeniusPair(rebased, [pair.lam_apply(x) for x in new])


@pytest.mark.parametrize("tag", ["q", "fp:5"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_base_change_invariance(q_engines, fp_engines, name, tag):
    # dims, split dims and centre dims do not depend on the basis of S; a
    # random basis also puts the unit on a dense vector, not on one slot
    g = q_engines[name] if tag == "q" else fp_engines[name, 5]
    pair = _rebased(g.pair, random.Random(f"{name} {tag}"))
    assert sum(not g.field.is_zero(c) for c in pair.algebra.unit) > 1
    h = build(pair, 9)
    assert h.dims() == [g.dim(d) for d in range(10)]
    assert [h.split_dims(d) for d in range(9)] == [g.split_dims(d) for d in range(9)]
    assert center_dims(h, 8) == center_dims(g, 8)
    # the centre cuts by the slots that generate S in the new basis
    _assert_incremental_matches_stacked(h, range(9))


@pytest.mark.parametrize("tag", ["q", "fp:5"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_right_multiples_of_the_relation_add_nothing(q_engines, fp_engines, monkeypatch, name, tag):
    # the build takes one row x r per word x, r the dual-basis relation; the
    # right multiples x r b_j lie in the span of those rows.  In a rebased
    # pair no slot is the unit, so none of them is a row itself
    g = q_engines[name] if tag == "q" else fp_engines[name, 5]
    pair = _rebased(g.pair, random.Random(f"{name} {tag}"))
    seen = []
    real = linalg.rref_rows
    monkeypatch.setattr(engine, "rref_rows", lambda f, rows, ncols: seen.append((rows, ncols)) or real(f, rows, ncols))
    h = build(pair, 7)
    f, n, table, dual = h.field, h.n, pair.algebra.table, pair.dual_right
    checked = 0
    for d in range(2, 8):
        rows, ncols = seen[d - 1]
        span = linalg.Subspace.from_vectors(f, ncols, rows)
        # the build's columns: x e for each word x of degree d-1 that ends on
        # the S side, then x f b_m for each word that ends on the R side
        isr = h.is_r[d - 1]
        r_words = [i for i, r in enumerate(isr) if r]
        fcol = {(i, m): isr.count(False) + k * n + m for k, i in enumerate(r_words) for m in range(n)}
        for x in range(h.dim(d - 2)):
            xe = [linalg.vec_apply(f, h.B[d - 2][q][x], h.E[d - 1]) for q in range(n)]
            for j in range(n):
                row = {}
                for q in range(n):
                    for m in range(n):
                        for m2, c2 in table[m][j].items():
                            for w, cw in xe[q].items():
                                t = f.mul(f.mul(dual[q][m], c2), cw)
                                row[fcol[w, m2]] = f.add(row.get(fcol[w, m2], f.zero), t)
                row = f.post_reduce(row)
                assert span.contains(row), (d, x, j)
                checked += bool(row)
    assert checked


def _twisted(pair, rng):
    """The algebra with the functional lam' = lam(x .) for a seeded unit x.

    lam(x .) has an invertible Gram matrix exactly when x is a unit.  x is
    drawn until it is one and lam' is not a multiple of lam.
    """
    f, alg, n = pair.field, pair.algebra, pair.n
    while True:
        x = f.post_reduce({k: f.convert(rng.randint(-2, 2)) for k in range(n)})
        lam = [pair.lam_apply(alg.mul_vec(x, alg.basis_vec(i))) for i in range(n)]
        minors = [f.sub(f.mul(lam[i], pair.lam[j]), f.mul(lam[j], pair.lam[i])) for i in range(n) for j in range(i)]
        if all(f.is_zero(m) for m in minors):
            continue
        try:
            return FrobeniusPair(alg, lam)
        except SingularGramError:
            continue


@pytest.mark.parametrize("tag", ["q", "fp:5"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_functional_invariance(q_engines, fp_engines, name, tag):
    # dims and centre dims do not depend on the Frobenius functional: any
    # other one is lam(x .) for a unit x
    g = q_engines[name] if tag == "q" else fp_engines[name, 5]
    h = build(_twisted(g.pair, random.Random(f"unit {name} {tag}")), 9)
    assert h.dims() == [g.dim(d) for d in range(10)]
    assert center_dims(h, 8) == center_dims(g, 8)
