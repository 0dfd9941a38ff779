"""Graded construction: dimensions, products, words, caching.

The degree-2 oracle here is deliberately self-contained: it rebuilds the
degree-2 relation span from the structure constants with its own Gram
inversion and its own dense row reduction, then compares ranks with the
engine.  Nothing from frobpi.linalg is used in the oracle path.
"""

import hashlib
import json
import os
import random
import tracemalloc
from fractions import Fraction

import pytest

from frobpi import CATALOG_NAMES, build, cache, catalog, engine
from frobpi.cache import CacheValidationError, _decode, _encode, _sha256, build_cached, cache_key
from frobpi.center import center_dims, sigma_surjectivity_check
from frobpi.engine import DegreeRangeError, GradedAlgebra, PiElement, WordSyntaxError
from frobpi.fields import InputError, field_from_descriptor
from frobpi.frobenius import deformation, make_frobenius, specialize_pair
from frobpi.linalg import EMPTY_ROW, Subspace, rref_rows, vec_apply

from conftest import record_derivations


# ---------------------------------------------------------------------------
# independent degree-2 oracle


def _inv4(mat):
    """Gauss-Jordan inverse of a 4x4 Fraction matrix, local to this test."""
    n = 4
    a = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                c = a[r][col]
                a[r] = [v - c * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _rank(rows):
    """Row rank of dense Fraction rows, local to this test."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [v - c * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _degree2_oracle(name):
    """(tensor dim, relation rank, R-side rank, S-side rank) at degree 2.

    Degree-2 tensor coordinates: 16 words b_q e f b_m plus 4 words f b_k e.
    The ideal is spanned by the single R-R relation and all S-bimodule
    translates of the S-S relation.
    """
    pair = catalog(name)
    alg = pair.algebra
    lam = pair.lam
    n = 4

    def mul(i, j):
        # structure constants as dense Fraction columns
        out = [Fraction(0)] * n
        for k, v in alg.table[i][j].items():
            out[k] = v
        return out

    gram = [[sum((mul(i, j)[k] * lam[k] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    ginv = _inv4(gram)
    fdual = [[ginv[m][q] for m in range(n)] for q in range(n)]  # f_q = sum_m ginv[m][q] b_m

    # R-R relation in the 4 coords f b_k e
    r1 = [Fraction(0)] * n
    for q in range(n):
        for m in range(n):
            cm = fdual[q][m]
            if cm == 0:
                continue
            prod = mul(m, q)
            for k in range(n):
                r1[k] += cm * prod[k]

    # S-S relation in the 16 coords b_q e f b_m
    rho = [[fdual[q][m] for m in range(n)] for q in range(n)]

    def translate(i, j):
        out = [[Fraction(0)] * n for _ in range(n)]
        for q in range(n):
            left = mul(i, q)
            for m in range(n):
                c = rho[q][m]
                if c == 0:
                    continue
                right = mul(m, j)
                for k in range(n):
                    if left[k] == 0:
                        continue
                    for w in range(n):
                        out[k][w] += left[k] * c * right[w]
        return [v for row in out for v in row]

    s_rows = [translate(i, j) for i in range(n) for j in range(n)]
    rank_s = _rank(s_rows)
    rank_r = _rank([r1])
    return 20, rank_r + rank_s, rank_r, rank_s


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_degree2_oracle_matches_engine(name, q_engines):
    tensor_dim, ideal_rank, rank_r, rank_s = _degree2_oracle(name)
    assert tensor_dim == 20
    assert ideal_rank == 5
    g = q_engines[name]
    assert g.dim(2) == tensor_dim - ideal_rank == 15
    dr, ds = g.split_dims(2)
    assert dr == 4 - rank_r == 3
    assert ds == 16 - rank_s == 12


# ---------------------------------------------------------------------------
# relation rows


def _check_one_row_per_word(monkeypatch, pair, D):
    """Each relation reduction of a build to D gets dim Pi_{d-2} rows, of full rank."""
    seen = []

    def counted(f, rows, ncols):
        pivots, red = rref_rows(f, rows, ncols)
        seen.append((len(rows), len(pivots)))
        return pivots, red

    monkeypatch.setattr(engine, "rref_rows", counted)
    g = GradedAlgebra(pair, D)
    assert len(seen) == D
    for d in range(2, D + 1):
        assert seen[d - 1] == (g.dim(d - 2), g.dim(d - 2)), (pair.field.tag, d)


@pytest.mark.parametrize("tag", ["q", "fp:2", "fp:3", "fp:5", "fp:7"])
def test_one_independent_relation_row_per_word(monkeypatch, tag):
    # each basis word of degree d-2 gives one relation row of degree d, and
    # the rows are independent: the build reduces no row it does not need
    f = field_from_descriptor(tag)
    for name in CATALOG_NAMES:
        _check_one_row_per_word(monkeypatch, catalog(name, f), 16)


def test_one_independent_relation_row_per_word_over_qu(monkeypatch):
    for n, char2 in [(n, False) for n in range(1, 7)] + [(6, True)]:
        fam = deformation(n, char2)
        _check_one_row_per_word(monkeypatch, make_frobenius(fam.algebra, list(fam.lam)), 6)


def _relation_rows_by_b(g, d):
    """The relation rows of degree d, in order, as x f e and x r through B[d-2] and E[d-1].

    x r = sum_{(q, m)} c_{q m} (x b_q e) f b_m, with c the build's relation
    terms; each row is summed with the raw operators and reduced once.
    """
    f, n = g.field, g.n
    isr = g.is_r[d - 1]
    ecol, fcol, col = {}, {}, 0
    for i, r in enumerate(isr):
        if not r:
            ecol[i], col = col, col + 1
    for i, r in enumerate(isr):
        if r:
            fcol[i], col = col, col + n
    rows, B, E, F = [], g.B[d - 2], g.E[d - 1], g.F[d - 1]
    for x, r in enumerate(g.is_r[d - 2]):
        if r:
            rows.append({ecol[i]: c for i, c in F[x].items()})
            continue
        xe = [vec_apply(f, B[q][x], E) for q in range(n)]
        row = {}
        for (q, m), c in g._relation_terms().items():
            for w, cw in xe[q].items():
                row[fcol[w] + m] = row[fcol[w] + m] + c * cw if fcol[w] + m in row else c * cw
        rows.append(f.post_reduce(row))
    return rows


def _check_relation_rows(monkeypatch, pair, D):
    """The rows a build to D hands rref_rows are the B formula's, as dicts and in key order."""
    seen = []
    monkeypatch.setattr(engine, "rref_rows", lambda f, rows, ncols: seen.append([dict(r) for r in rows]) or rref_rows(f, rows, ncols))
    g = GradedAlgebra(pair, D)
    for d in range(2, D + 1):
        want = _relation_rows_by_b(g, d)
        assert seen[d - 1] == want, (pair.field.tag, d)
        assert [list(r) for r in seen[d - 1]] == [list(r) for r in want], (pair.field.tag, d)


@pytest.mark.parametrize("tag", ["q", "fp:2", "fp:3", "fp:5", "fp:7"])
def test_relation_rows_match_the_b_formula(monkeypatch, tag):
    # the build forms x b_q e from the products x' f b_s e of x's parent
    # word x', never reading B; the rows and the order of their entries,
    # which the reduced rows and the cache bytes follow, are B's
    f = field_from_descriptor(tag)
    for name in CATALOG_NAMES:
        _check_relation_rows(monkeypatch, catalog(name, f), 16)


def test_relation_rows_match_the_b_formula_over_qu(monkeypatch):
    for n, char2 in [(n, False) for n in range(1, 7)] + [(6, True)]:
        fam = deformation(n, char2)
        _check_relation_rows(monkeypatch, make_frobenius(fam.algebra, list(fam.lam)), 6)


# ---------------------------------------------------------------------------
# dimension laws and split data


def test_dimension_law_over_q(q_engines):
    for name, g in q_engines.items():
        for d in range(13):
            expect = 5 * (d + 1) if d % 2 == 0 else 4 * (d + 1)
            assert g.dim(d) == expect, (name, d)


def test_base_change_commutes(q_engines, fp_engines):
    for (name, p), gfp in fp_engines.items():
        gq = q_engines[name]
        for d in range(13):
            assert gq.dim(d) == gfp.dim(d), (name, p, d)


def test_split_sum_is_identity(q_engines):
    g = q_engines["bikwad"]
    one_r = g.element_from_word("a")
    one = g.unit_element()
    one_s = one - one_r
    for d in range(7):
        for i in range(g.dim(d)):
            x = g.basis_element(d, i)
            assert g.multiply(one_r, x) + g.multiply(one_s, x) == x


def test_split_dims_formula(q_engines):
    for name, g in q_engines.items():
        for d in range(13):
            want = (d + 1, 4 * (d + 1)) if d % 2 == 0 else (2 * (d + 1), 2 * (d + 1))
            assert g.split_dims(d) == want, (name, d)


def _split_ranks(g, d):
    """Ranks of left multiplication by a and by 1_S on degree d, by row reduction."""
    one_r = g.element_from_word("a")
    one_s = g.unit_element() - one_r
    xs = [g.basis_element(d, i) for i in range(g.dim(d))]
    return tuple(
        Subspace.from_vectors(g.field, g.dim(d), [g.multiply(e, x).vec for x in xs]).dim
        for e in (one_r, one_s)
    )


def test_split_dims_match_projection_ranks(q_engines, fp_engines):
    # split_dims counts words by their first letter; the ranks of the two
    # projections, reduced over every field and over Q(u), must agree
    fam = deformation(4)
    generic = make_frobenius(fam.algebra, list(fam.lam))
    cases = [(q_engines[name], 8) for name in CATALOG_NAMES]
    cases += [(fp_engines[name, p], 8) for p in (2, 3) for name in CATALOG_NAMES]
    cases += [(build(generic, 4), 4), (build(specialize_pair(generic, "q", 0), 4), 4)]
    for g, top in cases:
        for d in range(top + 1):
            assert g.split_dims(d) == _split_ranks(g, d), (g.field.tag, d)


def test_resolution_identities(q_engines):
    for g in q_engines.values():
        assert g.resolution_identity_check(16)


# ---------------------------------------------------------------------------
# products


def test_unit_is_neutral(q_engines):
    g = q_engines["t4"]
    one = g.unit_element()
    rng = random.Random(23)
    for d in range(9):
        vec = {i: Fraction(rng.randint(-3, 3)) for i in rng.sample(range(g.dim(d)), min(3, g.dim(d)))}
        x = g.zero(d) + type(g.zero(d))(g, d, vec)
        assert g.multiply(one, x) == x
        assert g.multiply(x, one) == x


def test_associativity_random_triples(q_engines):
    g = q_engines["two-dual-numbers"]
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        d1, d2, d3 = (rng.randint(0, 4) for _ in range(3))
        if d1 + d2 + d3 > 10:
            continue

        def rand_el(d):
            vec = {}
            for i in range(g.dim(d)):
                if rng.random() < 0.3:
                    vec[i] = Fraction(rng.randint(-2, 2))
            return g.zero(d) + type(g.zero(d))(g, d, vec)

        x, y, z = rand_el(d1), rand_el(d2), rand_el(d3)
        assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))
        checked += 1


def _fold_product(g, x, y):
    """x y as the sum over y's basis words i of y_i times x folded through word i's letters."""
    f = g.field
    out = {}
    for i, c in y.vec.items():
        row, d = g._fold(x.vec, x.d, g.word(y.d, i))
        assert d == x.d + y.d
        for k, v in row.items():
            out[k] = f.add(out.get(k, f.zero), f.mul(c, v))
    return PiElement(g, x.d + y.d, out)


@pytest.mark.parametrize("tag", ["q", "fp:5"])
def test_multiply_matches_word_by_word_fold(q_engines, fp_engines, tag):
    # multiply reads x's left-multiplication rows; the reference folds x through each word of y
    rng = random.Random(f"multiply {tag}")
    for name in CATALOG_NAMES:
        g = q_engines[name] if tag == "q" else fp_engines[name, 5]
        for dx in range(9):
            for dy in range(9 - dx):
                x, y = (
                    PiElement(g, d, {i: rng.randint(-3, 3) for i in range(g.dim(d)) if rng.random() < 0.4})
                    for d in (dx, dy)
                )
                assert g.multiply(x, y) == _fold_product(g, x, y), (name, dx, dy)


def test_degree_cap_raises(q_engines):
    g = q_engines["bikwad"]
    x = g.basis_element(16, 0)
    y = g.basis_element(1, 0)
    with pytest.raises(DegreeRangeError):
        g.multiply(x, y)


# ---------------------------------------------------------------------------
# words


def test_word_examples(bikwad_q):
    g = bikwad_q
    assert g.element_from_word("fe").is_zero()
    assert g.element_from_word("es").is_zero()
    a = g.element_from_word("a")
    assert g.multiply(a, a) == a
    assert not g.element_from_word("sef").is_zero()


def test_word_round_trip(bikwad_q):
    g = bikwad_q
    for d in range(5):
        for s in (g.word_str(g.word(d, i)) for i in range(g.dim(d))):
            el = g.element_from_word(s)
            assert not el.is_zero()
            assert g.format_element(el) == s


def _check_words_spell_basis(g, D):
    """The unit folded through the letters of basis word i is basis vector i."""
    unit = g.unit_element().vec
    for d in range(D + 1):
        for i in range(g.dim(d)):
            assert g._fold(unit, 0, g.word(d, i)) == ({i: g.field.one}, d), (g.field.tag, d, i)


def test_words_spell_their_basis_vectors(q_engines, fp_engines):
    for name in CATALOG_NAMES:
        _check_words_spell_basis(q_engines[name], 8)
        _check_words_spell_basis(fp_engines[name, 5], 8)
    fam = deformation(4)
    _check_words_spell_basis(GradedAlgebra(make_frobenius(fam.algebra, list(fam.lam)), 4), 4)


def test_bad_words(bikwad_q):
    with pytest.raises(WordSyntaxError):
        bikwad_q.element_from_word("xyz")
    with pytest.raises(WordSyntaxError):
        bikwad_q.element_from_expr("sef + xy")
    with pytest.raises(WordSyntaxError):
        bikwad_q.element_from_expr("  ")


def test_element_expr_and_format(bikwad_q):
    g = bikwad_q
    x = g.element_from_expr("sef + efs - 2*fse")
    assert g.element_from_expr(g.format_element(x)) == x


# ---------------------------------------------------------------------------
# each word is its parent times one letter


def _assert_words_are_unit_rows(g):
    """Each basis word is the unit row of its letter's operator at its parent."""
    for d in range(1, g.D + 1):
        for k, (i, kind, m) in enumerate(g.parent[d]):
            row = g.E[d][i] if kind == "e" else g.FB[d][m][i]
            assert row == {k: g.field.one}, (g.field.tag, d, k)


@pytest.mark.parametrize("tag", ["q", "fp:2", "fp:5"])
def test_each_word_is_a_unit_row_of_its_letter(q_engines, fp_engines, tag):
    # so the words span every degree, which sigma's low degrees rely on
    for name in CATALOG_NAMES:
        g = q_engines[name] if tag == "q" else fp_engines[name, int(tag[3:])]
        _assert_words_are_unit_rows(g)


def test_each_word_is_a_unit_row_in_qu_and_loaded_builds(monkeypatch, tmp_path):
    fam = deformation(4)
    _assert_words_are_unit_rows(GradedAlgebra(make_frobenius(fam.algebra, list(fam.lam)), 5))
    pair = catalog("t4")
    build(pair, 8, cache_dir=tmp_path)

    def no_build(self, d):
        raise AssertionError("the second build must load from the cache")

    monkeypatch.setattr(GradedAlgebra, "_build_degree", no_build)
    _assert_words_are_unit_rows(build(pair, 8, cache_dir=tmp_path))


# ---------------------------------------------------------------------------
# left multiplication


@pytest.mark.parametrize("tag", ["q", "fp:3"])
def test_left_rows_out_of_order_match_ascending(tag):
    # each slot's memo and each of e's and f's keeps two degrees; any other
    # degree is recomputed, to the same rows, whatever order they are asked in
    pair = catalog("t4", field_from_descriptor(tag))
    fresh = build(pair, 10)
    left0 = [[fresh.left0(d, j) for j in range(fresh.n)] for d in range(10)]
    left1 = [fresh.left1(d) for d in range(10)]
    for j in range(fresh.n):
        b_j = PiElement(fresh, 0, {1 + j: fresh.field.one})
        for d in range(4):
            products = [fresh.multiply(b_j, fresh.basis_element(d, i)).vec for i in range(fresh.dim(d))]
            assert left0[d][j] == products
    g = build(pair, 10)
    center_dims(g, 9)
    # t alone generates k[t]/(t^4), so the centre cuts by slot 1 only, and
    # never builds the other slots' rows
    assert [len(m) for m in g._l0] == [0, 2, 0, 0]
    assert [len(m) for m in g._l1] == [2, 2]
    for d in (9, 6, 6, 2, 0, 0, 7, 3, 9):
        for j in (3, 0, 2, 1):
            assert g.left0(d, j) == left0[d][j]
        assert g.left1(d) == left1[d]
        assert all(len(m) <= 2 for m in (*g._l0, *g._l1))


def test_left_rejects_a_degree_out_of_range(bikwad_q):
    u = bikwad_q.element_from_expr("sef + efs + fse")
    for d in (-1, bikwad_q.D - 1):
        with pytest.raises(DegreeRangeError):
            bikwad_q.left(u, d)


def _stored_rows(g, D):
    """Every operator row list the build keeps or hands out, degrees 0..D."""
    for d in range(D + 1):
        if d:
            yield from [g.E[d], g.F[d], *g.FB[d]]
        yield from [*g.B[d], *(g.left0(d, j) for j in range(g.n))]
        if d < g.D:
            yield from g.left1(d)


def _check_rows_reduced(g, D):
    """Every stored operator row is already reduced, as vec_apply's shortcuts assume."""
    f = g.field
    for rows in _stored_rows(g, D):
        for row in rows:
            assert f.post_reduce(row) == row, (f.tag, row)


def test_operator_rows_are_reduced(q_engines, fp_engines):
    for name in CATALOG_NAMES:
        _check_rows_reduced(q_engines[name], 12)
        _check_rows_reduced(fp_engines[name, 2], 12)
        _check_rows_reduced(fp_engines[name, 5], 12)
    fam = deformation(4)
    _check_rows_reduced(GradedAlgebra(make_frobenius(fam.algebra, list(fam.lam)), 5), 5)


def _guard_builds():
    fam = deformation(4)
    out = [(build(catalog(name, field_from_descriptor(tag)), 12), 12) for tag in ("q", "fp:5") for name in CATALOG_NAMES]
    return out + [(GradedAlgebra(make_frobenius(fam.algebra, list(fam.lam)), 5), 5)]


def _plain(held):
    return [[dict(r) for r in rows] for rows in held]


def test_no_reader_mutates_a_stored_row():
    # rows are shared, not copied, so one stray write would corrupt every
    # table that holds the row; every reader must leave all of them as built
    for g, D in _guard_builds():
        held = list(_stored_rows(g, D))
        snapshot = _plain(held)
        center_dims(g, D - 1)
        sigma_surjectivity_check(g, D)
        for dx, dy in ((0, 2), (1, 1), (2, 1), (1, 3)):
            xs = [g.basis_element(dx, i) for i in range(g.dim(dx))]
            ys = [g.basis_element(dy, i) for i in range(g.dim(dy))]
            for x in xs:
                for y in ys:
                    g.multiply(x, y)
                    g.multiply(y, x)
        for d in range(D + 1):
            g.split_dims(d)
            g.resolution_sum(d)
        assert _plain(held) == snapshot, (g.field.tag, g.pair.algebra.names)
        key = cache_key(g.pair, D)
        loaded = _decode(g.pair, D, _encode(g, key), key)
        assert loaded.E == g.E and loaded.FB == g.FB
        assert _plain(held) == snapshot, (g.field.tag, g.pair.algebra.names)
        assert not EMPTY_ROW


@pytest.mark.parametrize("tag", ["q", "fp:5"])
def test_operator_rows_are_shared(tag):
    # every product b_m b_j of a catalog algebra is 0 or one slot, so each B row
    # is an FB row; so is each F row where the unit is one slot
    for name in CATALOG_NAMES:
        g = build(catalog(name, field_from_descriptor(tag)), 12)
        key = cache_key(g.pair, 12)
        loaded = _decode(g.pair, 12, _encode(g, key), key)
        for h in (g, loaded):
            for d in range(1, 13):
                fb = {id(r) for op in h.FB[d] for r in op} | {id(EMPTY_ROW)}
                assert all(id(r) in fb for op in h.B[d] for r in op), (name, d)
                if name in ("t4", "bikwad"):
                    assert all(id(r) in fb for r in h.F[d]), (name, d)
            for rows in _stored_rows(h, 12):
                assert all(r is EMPTY_ROW for r in rows if not r), name
        # a loaded row {k: 1} is the build's one unit row, as in a fresh build
        for d in range(1, 13):
            for r in (*loaded.E[d], *(r for op in loaded.FB[d] for r in op)):
                if len(r) == 1:
                    ((k, v),) = r.items()
                    assert v != g.field.one or r is loaded._units[k], (name, d, k)


def test_b_and_f_are_derived_on_first_read(monkeypatch):
    # a loaded build holds parents, E and FB; right(d, j) derives one slot of
    # one degree the first time it is read, B reads every slot through it,
    # and F derives every degree not derived yet the first time it is read.
    # Each is derived once, equal to a direct build's and sharing its rows
    # with FB as a direct build's do
    derived = record_derivations(monkeypatch)
    fam = deformation(4)
    cases = [(catalog(name, field_from_descriptor(tag)), 9) for tag in ("q", "fp:2", "fp:5") for name in CATALOG_NAMES]
    cases += [(make_frobenius(fam.algebra, list(fam.lam)), 4)]
    for pair, D in cases:
        n = pair.n
        direct = GradedAlgebra(pair, D)
        want = {"B": direct.B, "F": direct.F}  # a build derives its top degree on first read too
        key = cache_key(pair, D)
        derived.clear()
        loaded = _decode(pair, D, _encode(direct, key), key)
        assert loaded.dims() == direct.dims() and loaded.split_dims(D) == direct.split_dims(D)
        assert derived == []
        assert loaded.right(D, n - 1) == want["B"][D][n - 1] and loaded.right(D, n - 1) is loaded.right(D, n - 1)
        for read in ("B", "F", "B"):
            assert getattr(loaded, read) == want[read]
        slots = [("B", d, j) for d in range(1, D + 1) for j in range(n) if (d, j) != (D, n - 1)]
        assert [e[:3] for e in derived] == [("B", D, n - 1), *slots, *(("F", d, None) for d in range(1, D + 1))]
        for d in range(1, D + 1):
            fb = {id(r) for op in loaded.FB[d] for r in op} | {id(EMPTY_ROW)}
            shared = {id(r) for op in direct.FB[d] for r in op} | {id(EMPTY_ROW)}
            for h_rows, g_rows in zip((*loaded.B[d], loaded.F[d]), (*direct.B[d], direct.F[d])):
                assert [id(r) in fb for r in h_rows] == [id(r) in shared for r in g_rows], (pair.field.tag, d)


# ---------------------------------------------------------------------------
# cache behavior


def test_cache_round_trip_deep(tmp_path):
    fam = deformation(4)
    cases = [
        ("q", catalog("t3-plus-k"), 6),
        ("fp5", catalog("t3-plus-k", field_from_descriptor("fp:5")), 6),
        ("qu", make_frobenius(fam.algebra, list(fam.lam)), 4),
    ]
    for name, pair, D in cases:
        _check_round_trip(tmp_path / name, pair, D)


def _check_round_trip(cache_dir, pair, D):
    direct = GradedAlgebra(pair, D)
    c1 = build_cached(pair, D, str(cache_dir))
    c2 = build_cached(pair, D, str(cache_dir))
    for g in (c1, c2):
        assert g.dims() == direct.dims()
        assert all(g.word(d, i) == direct.word(d, i) for d in range(D + 1) for i in range(direct.dim(d)))
        assert g.is_r == direct.is_r
        assert g.starts_a == direct.starts_a
        assert g.parent == direct.parent
        assert g.E == direct.E
        assert g.FB == direct.FB
        assert g.B == direct.B
        assert g.F == direct.F
    ones = [direct.basis_element(1, i) for i in range(direct.dim(1))]
    loaded = [c2.basis_element(1, i) for i in range(c2.dim(1))]
    for x, px in zip(ones, loaded):
        for y, py in zip(ones, loaded):
            assert direct.multiply(x, y).vec == c2.multiply(px, py).vec
    # the file holds only what the build decided; the rest is derived on load
    (path,) = cache_dir.iterdir()
    head, body = path.read_text().split("\n", 1)
    assert set(json.loads(head)) == {"format", "key", "field", "degree", "sha256"}
    parents, e, fb = json.loads(body)
    assert len(parents) == len(e) == len(fb) == D


def test_cache_write_once(tmp_path):
    pair = catalog("t4")
    build_cached(pair, 4, str(tmp_path))
    key = cache_key(pair, 4)
    path = tmp_path / f"{key}.json"
    first = path.read_bytes()
    build_cached(pair, 4, str(tmp_path))
    assert path.read_bytes() == first


@pytest.mark.parametrize("tag", ["q", "fp:5", "qu"])
def test_centre_entry_round_trip(tmp_path, tag):
    # the centres come back in the memo of the loaded build, as computed
    if tag == "qu":
        fam = deformation(4)
        pair, D = make_frobenius(fam.algebra, list(fam.lam)), 5
    else:
        pair, D = catalog("t4", field_from_descriptor(tag)), 9
    cold = build_cached(pair, D, str(tmp_path))
    assert cold.centers == {} and cold.on_centers_complete is not None
    path = tmp_path / f"{cache_key(pair, D)}.center.json"
    center_dims(cold, D - 2)
    assert not path.exists()  # degree D - 1 is still missing
    center_dims(cold, D - 1)
    assert path.exists()
    warm = build_cached(pair, D, str(tmp_path))
    assert warm.on_centers_complete is None
    assert warm.centers == cold.centers
    assert [z.ambient for z in warm.centers.values()] == [warm.dim(d) for d in range(D)]


def _t4_or_family_4(tag):
    if tag == "qu":
        fam = deformation(4)
        return make_frobenius(fam.algebra, list(fam.lam))
    return catalog("t4", field_from_descriptor(tag))


@pytest.mark.parametrize("tag", ["q", "fp:5", "qu"])
def test_degree_zero_build(tmp_path, tag):
    # Pi_0 = R x S is a whole build: the word a and the n slots of S
    pair = _t4_or_family_4(tag)
    n = pair.n
    for g in (GradedAlgebra(pair, 0), build_cached(pair, 0, str(tmp_path))):
        assert g.dims() == [1 + n]
        assert g.split_dims(0) == (1, n)
        assert g.resolution_sum(0) == (0, 0)
    # the second build_cached reads the entry the first wrote, through from_operators
    loaded = build_cached(pair, 0, str(tmp_path))
    assert (loaded.D, loaded.dims(), loaded.B) == (0, [1 + n], GradedAlgebra(pair, 0).B)
    with pytest.raises(ValueError, match="build degree"):
        GradedAlgebra(pair, -1)


def test_centre_entry_cannot_be_written(tmp_path, monkeypatch):
    # as for a build entry, a centre entry that cannot be written is an InputError
    pair = catalog("t4")
    g = build_cached(pair, 3, str(tmp_path))

    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cache, "_write_exclusive", full)
    center_dims(g, 1)
    with pytest.raises(InputError, match="cannot write cache file"):
        center_dims(g, 2)


def test_cache_stale_temp_file(tmp_path):
    # a temp file left behind by a crashed writer with this pid does not block the write
    pair = catalog("t4")
    path = tmp_path / f"{cache_key(pair, 2)}.json"
    stale = tmp_path / f"{path.name}.tmp.{os.getpid()}"
    stale.write_text("partial")
    build_cached(pair, 2, str(tmp_path))
    assert path.exists() and stale.read_text() == "partial"
    assert sorted(tmp_path.iterdir()) == [path, stale]


def test_cache_tamper_detected(tmp_path):
    pair = catalog("t4")
    build_cached(pair, 4, str(tmp_path))
    key = cache_key(pair, 4)
    path = tmp_path / f"{key}.json"
    head, body = path.read_text().split("\n", 1)
    header = json.loads(head)
    header["key"] = "0" * 64
    path.write_text(json.dumps(header) + "\n" + body)
    with pytest.raises(CacheValidationError):
        build_cached(pair, 4, str(tmp_path))


# recorded before the body was written one degree at a time: the key and the
# file bytes of cache format 3 must not change
_CACHE_GOLDEN = [
    (
        "t4", "q", 8,
        "148b53038ef9989d148c2efd0ad66fe2928561fdafd054f0afb24f48b966cff9",
        "1fa985d359c151c09a2896d8de66b202d7d6c9eaa06bebaa34b54744d13805c9",
    ),
    (
        "bikwad", "fp:5", 8,
        "8110a25b8964c220fa0d2f31df8b0b90266c0209306e845b09166b5cc6c32951",
        "80df2e298ae8289a1154d2a33f3e3ca8f8ecb6b19183b0a35e82815ffb269b74",
    ),
    (
        "family-4", "qu", 4,
        "ed86f802dc86e4e142a75b34615a1d3d679dcfbb88ee662a7f2fb78f0b624fe1",
        "e142c285bf3ea27a05cc974b613125772cf25278a3e9aee6f3874652b28cea01",
    ),
    # a unit of four entries, so F rows are real sums
    (
        "split4", "q", 8,
        "5e4f81f3405942697e65cde584ecfc09a7e4b11a929082c87d1093b9c9f2a5db",
        "c38838a171088615499899a1a232f81fe689b467a3f3abdb217ed8c629d0d370",
    ),
    (
        "t3-plus-k", "fp:5", 8,
        "f2bb27ce89fe5e3e3183974218e853d11225cf221ce5f421f9d333aabdbfdb99",
        "471f439738de0ede04e5165ede96275abf6b4b88dbcdc13a8d4343cb639eec3e",
    ),
]


@pytest.mark.parametrize("name, tag, D, key, digest", _CACHE_GOLDEN, ids=[c[0] for c in _CACHE_GOLDEN])
def test_cache_bytes_golden(name, tag, D, key, digest):
    if name == "family-4":
        fam = deformation(4)
        pair = make_frobenius(fam.algebra, list(fam.lam))
    else:
        pair = catalog(name, field_from_descriptor(tag))
    assert cache_key(pair, D) == key
    assert hashlib.sha256(_encode(build(pair, D), key)).hexdigest() == digest


def test_cache_sha256_matches_hashlib():
    for data in (b"", b"abc", bytes(range(256)) * 300, b"[[" + b"7," * 50_000 + b"7]]"):
        assert _sha256(data) == hashlib.sha256(data).hexdigest()


def _traced_peak(call):
    """The result of call() and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cache_store_and_load_memory():
    # the body is dumped one degree at a time and parsed lists are dropped once
    # read; one flat copy of the build, or all of them parsed and converted at
    # once, measured 27.7 and 27.2 times the file length
    pair = catalog("t4")
    g = build(pair, 30)
    key = cache_key(pair, 30)
    data, encode_peak = _traced_peak(lambda: _encode(g, key))
    loaded, decode_peak = _traced_peak(lambda: _decode(pair, 30, data, key))
    assert encode_peak <= 8 * len(data), encode_peak / len(data)
    assert decode_peak <= 20 * len(data), decode_peak / len(data)
    assert loaded.E == g.E and loaded.FB == g.FB


def test_cache_key_separates(tmp_path):
    a = cache_key(catalog("t4"), 8)
    b = cache_key(catalog("t4"), 9)
    c = cache_key(catalog("bikwad"), 8)
    d = cache_key(catalog("t4", field_from_descriptor("fp:5")), 8)
    assert len({a, b, c, d}) == 4
