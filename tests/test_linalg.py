"""Sparse exact row reduction, kernels, subspaces."""

import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobpi.center import _commutators
from frobpi.fields import FP, QQ, QU, InvariantError, RatF
from frobpi.frobenius import _blocks_algebra, _dense_inverse
from frobpi.linalg import (
    EMPTY_ROW,
    Subspace,
    left_kernel,
    _axpy_into,
    _rref_generic,
    rref_rows,
    vec_add,
    vec_apply,
    vec_sub,
)
from frobpi._kernels import rref_mod

import numpy as np


def _random_rows(rng, field, nrows, ncols, density=0.4, span=5):
    rows = []
    for _ in range(nrows):
        r = {}
        for j in range(ncols):
            if rng.random() < density:
                v = field.convert(rng.randint(-span, span))
                if not field.is_zero(v):
                    r[j] = v
        rows.append(r)
    return rows


def test_vec_helpers():
    f = QQ
    a = {0: Fraction(1), 2: Fraction(-2)}
    b = {0: Fraction(-1), 1: Fraction(3)}
    assert vec_add(f, a, b) == {1: Fraction(3), 2: Fraction(-2)}
    assert vec_sub(f, a, a) == {}
    rows = [{1: Fraction(1)}, {0: Fraction(2)}, {}]
    assert vec_apply(f, {0: Fraction(1), 1: Fraction(1)}, rows) == {
        0: Fraction(2),
        1: Fraction(1),
    }


def _apply_by_loop(field, vec, rows):
    """vec_apply's reference: accumulate every product, then reduce once."""
    out = {}
    for i, c in vec.items():
        for j, v in rows[i].items():
            out[j] = out[j] + c * v if j in out else c * v
    return field.post_reduce(out)


def _random_scalar(rng, field):
    """A nonzero scalar; over Q(u) a ratio of linear polynomials in u."""
    while True:
        if field is QU:
            u = RatF.gen()
            a, b = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            num = QU.convert(a) * u + QU.convert(b)
            x = num / (u + QU.convert(rng.randint(1, 3))) if rng.random() < 0.5 else num
        elif field is QQ:
            x = field.convert(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        else:
            x = field.convert(rng.randint(-5, 5))
        if not field.is_zero(x):
            return x


@pytest.mark.parametrize("field", [QQ, FP(2), FP(5), QU], ids=["q", "fp2", "fp5", "qu"])
def test_vec_apply_matches_loop_then_reduce(field):
    # the empty and single-entry shortcuts agree with the general product; a
    # single entry 1 hands out the operator's own row, an empty vector or a
    # zero sum the shared empty row, and any other vector a new dict
    rng = random.Random(19)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        rows = [
            {j: _random_scalar(rng, field) for j in range(ncols) if rng.random() < 0.5}
            for _ in range(rng.randint(1, 5))
        ]
        snapshot = [dict(r) for r in rows]
        i = rng.randrange(len(rows))
        c = _random_scalar(rng, field)
        vecs = [{}, {i: field.one}, {i: c}]
        if len(rows) > 1:
            keys = rng.sample(range(len(rows)), rng.randint(2, len(rows)))
            vecs.append({k: _random_scalar(rng, field) for k in keys})
        for vec in vecs:
            got = vec_apply(field, vec, rows)
            assert got == _apply_by_loop(field, vec, rows)
            if vec == {i: field.one}:
                assert got is rows[i]
            elif not got:
                assert got is EMPTY_ROW
            else:
                assert type(got) is dict and all(got is not r for r in rows)
            assert rows == snapshot
    assert not EMPTY_ROW
    with pytest.raises(TypeError):
        EMPTY_ROW[0] = field.one


_KERNEL_FIELDS = [QQ, FP(2), FP(5), QU]


def _payloads(field):
    """Nonzero reduced payloads; over Q both int and Fraction forms, Fraction(n, 1) included."""
    if field is QU:
        u = RatF.gen()
        return st.builds(
            lambda a, b, c: (QU.convert(a) * u + QU.convert(b)) / (u + QU.convert(c)),
            st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 2),
        ).filter(bool)
    if field is QQ:
        return st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)).filter(bool)
    # residues near p as often as near 1, so that products pass p
    return st.integers(1, field.p - 1) | st.integers(1, field.p - 1).map(lambda x: field.p - x)


@st.composite
def _kernel_case(draw, fields=_KERNEL_FIELDS):
    """A field, reduced rows, and a reduced vector over them; some rows are negated copies, so sums cancel."""
    field = draw(st.sampled_from(fields))
    entry = _payloads(field)
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        rows.append(field.post_reduce({k: -v for k, v in draw(st.sampled_from(rows)).items()}))
    rows = [r or EMPTY_ROW for r in rows]
    vec = draw(st.dictionaries(st.integers(0, len(rows) - 1), st.one_of(st.just(field.one), entry), max_size=len(rows)))
    return field, rows, vec, draw(entry)


def _items(vec):
    """A vector's entries in order, with each payload's type: the cache writes both."""
    return [(k, type(v), v) for k, v in vec.items()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_case())
def test_kernels_equal_accumulate_then_reduce(case):
    # vec_apply, vec_sub and _axpy_into build each result in one dict; each
    # must equal accumulating with the raw operators and reducing once, in
    # value, payload type and column order, and keep the sharing rules
    field, rows, vec, f = case
    snapshot = [dict(r) for r in rows]

    got = vec_apply(field, vec, rows)
    assert _items(got) == _items(_apply_by_loop(field, vec, rows))
    if len(vec) == 1 and next(iter(vec.values())) == field.one:
        assert got is rows[next(iter(vec))]
    elif not got:
        assert got is EMPTY_ROW
    else:
        assert type(got) is dict and all(got is not r for r in rows)

    for a in rows:
        for b in rows:
            want = dict(a)
            for j, v in b.items():
                want[j] = want[j] - v if j in want else -v
            got = vec_sub(field, a, b)
            assert _items(got) == _items(field.post_reduce(want))
            assert type(got) is dict and got is not a and got is not b

            s = dict(a)
            want = dict(a)
            for j, v in b.items():
                want[j] = want[j] - f * v if j in want else -(f * v)
            assert _axpy_into(field, s, f, b) is None
            assert _items(s) == _items(field.post_reduce(want))
    assert rows == snapshot


def test_rref_canonical_given_row_order_shuffle():
    # the reduced form is a basis invariant: shuffling input rows cannot move it
    rng = random.Random(7)
    rows = _random_rows(rng, QQ, 12, 9)
    piv1, red1 = rref_rows(QQ, [dict(r) for r in rows], 9)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    piv2, red2 = rref_rows(QQ, shuffled, 9)
    assert piv1 == piv2
    assert red1 == red2


def test_rref_invariant_under_column_reindexing():
    # a wide rational matrix and its squeezed copy reduce alike
    rng = random.Random(3)
    ncols = 230
    rows = []
    for _ in range(40):
        r = {}
        for j in rng.sample(range(ncols), 12):
            r[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        rows.append({k: v for k, v in r.items() if v})
    piv_wide, red_wide = rref_rows(QQ, [dict(r) for r in rows], ncols)
    # same system with the occupied columns reindexed densely
    used = sorted({j for r in rows for j in r})
    remap = {j: i for i, j in enumerate(used)}
    rows_small = [{remap[j]: v for j, v in r.items()} for r in rows]
    piv_small, red_small = rref_rows(QQ, rows_small, len(used))
    assert [remap[p] for p in piv_wide] == piv_small
    back = [{used[j]: v for j, v in r.items()} for r in red_small]
    assert back == red_wide


def _dense_gauss_jordan(field, rows, ncols):
    """Textbook reduction of a dense copy, through the field's own operations."""
    f = field
    a = [[f.convert(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        i = next((i for i in range(top, len(a)) if not f.is_zero(a[i][c])), None)
        if i is None:
            continue
        a[top], a[i] = a[i], a[top]
        s = f.inv(a[top][c])
        a[top] = [f.mul(x, s) for x in a[top]]
        for i, row in enumerate(a):
            if i != top and not f.is_zero(row[c]):
                a[i] = [f.sub(x, f.mul(row[c], y)) for x, y in zip(row, a[top])]
        pivots.append(c)
    return pivots, [{j: x for j, x in enumerate(a[i]) if not f.is_zero(x)} for i in range(len(pivots))]


@st.composite
def _fill_in_rows(draw, field):
    """Small matrices with duplicate, empty and dependent rows.

    Entries are the integers -3..3, or a + b*u with a, b in -2..2 over Q(u).
    """
    ncols = draw(st.integers(1, 7))
    if field is QU:
        u = RatF.gen()
        entry = st.builds(lambda a, b: QU.convert(a) + QU.convert(b) * u, st.integers(-2, 2), st.integers(-2, 2))
    else:
        entry = st.integers(-3, 3).map(field.convert)
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
            min_size=1,
            max_size=6,
        )
    )
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["duplicate", "empty", "combination"]))
        if kind == "duplicate":
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "empty":
            rows.append({})
        else:
            # cancels to zero once the rows it combines are eliminated
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y, z = draw(entry), draw(entry), field.zero
            rows.append({j: x * a.get(j, z) + y * b.get(j, z) for j in a.keys() | b.keys()})
    return ncols, [field.post_reduce(r) for r in draw(st.permutations(rows))]


# p is the prime, None for Q, or "qu" for Q(u), where fill-in costs the most
@pytest.mark.parametrize("p", [None, 5, "qu"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_generic_rref_matches_dense_oracle(p, data):
    f = {None: QQ, 5: FP(5), "qu": QU}[p]
    ncols, rows = data.draw(_fill_in_rows(f))
    # the elimination works in place on the rows it is handed, so the oracle reads them first
    want = _dense_gauss_jordan(f, rows, ncols)
    assert _rref_generic(f, rows) == want


@pytest.mark.parametrize("field", [QQ, FP(5), QU], ids=["q", "fp5", "qu"])
def test_from_vectors_reads_shared_rows_without_writing(field):
    # a caller hands Subspace.from_vectors EMPTY_ROW and read-only rows it
    # shares, unit rows among them; it reduces copies, so they reduce as
    # plain dict copies would, and a duplicate that cancels or a row that
    # back-substitution changes is never written back
    one, two = field.one, field.convert(2)
    units = [types.MappingProxyType({k: one}) for k in range(4)]
    shared = types.MappingProxyType({1: one, 3: two})
    rows = [units[2], EMPTY_ROW, {0: two, 2: one, 3: one}, shared, units[0], units[3], units[2]]
    got = Subspace.from_vectors(field, 4, rows)
    assert (list(got.pivots), list(got.rows)) == _rref_generic(field, [dict(r) for r in rows])
    assert (list(got.pivots), list(got.rows)) == _dense_gauss_jordan(field, rows, 4)
    assert rows[2] == {0: two, 2: one, 3: one}
    assert [dict(r) for r in units] == [{k: one} for k in range(4)]
    assert shared == {1: one, 3: two} and not EMPTY_ROW


_Q_ENTRY = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))


@st.composite
def _q_rows(draw):
    """Sparse Q matrices whose entries are integers, fractions or both."""
    ncols = draw(st.integers(1, 8))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), _Q_ENTRY, max_size=ncols), max_size=7)
    )
    return ncols, [{j: QQ.convert(v) for j, v in r.items() if v} for r in rows]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_q_rows())
def test_q_rref_payloads_match_fraction_reference(case):
    # int payloads for integral values must not change any result, and no
    # true division may turn a payload into a float
    ncols, rows = case
    as_fractions = [{j: Fraction(v) for j, v in r.items()} for r in rows]
    pivots, red = rref_rows(QQ, rows, ncols)
    assert (pivots, red) == _dense_gauss_jordan(QQ, as_fractions, ncols)
    for r in red:
        assert all(type(v) in (int, Fraction) for v in r.values()), r


def test_q_scalars_are_int_when_integral():
    for got, want in [
        (QQ.inv(1), 1),
        (QQ.inv(-1), -1),
        (QQ.inv(Fraction(1, 3)), 3),
        (QQ.parse("4/2"), 2),
        (QQ.convert(Fraction(-6, 3)), -2),
    ]:
        assert type(got) is int and got == want
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int


def test_generic_rref_over_qu_with_fill_in():
    # non-unit leads, fill-in, an empty row and a row that cancels to zero
    u, one = RatF.gen(), QU.one
    r0 = {0: u, 1: one, 4: u + one}
    r1 = {0: one, 2: u * u, 4: QU.convert(2)}
    r2 = {1: u, 2: one, 3: u - one}
    r3 = {2: QU.convert(3), 3: u}
    dependent = QU.post_reduce({j: u * r0.get(j, QU.zero) + r1.get(j, QU.zero) for j in range(5)})
    rows = [r0, r1, r2, r3, {}, dependent]
    pivots, red = _rref_generic(QU, [dict(r) for r in rows])
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots) == 4
    for c, r in zip(pivots, red):
        assert min(r) == c and r[c] == one
        assert all(c not in other for other in red if other is not r)
    span = Subspace(QU, 5, tuple(pivots), tuple(red))
    assert all(span.contains(r) for r in rows)


def test_partial_back_substitution_keeps_the_tail_rows():
    # keep_from=k back-substitutes only the rows with pivot >= k: they come
    # out as in the full reduction, and the pivots do not move
    rng = random.Random(29)
    for f in (QQ, FP(2), FP(5)):
        for _ in range(40):
            ncols = rng.randint(1, 16)
            rows = _random_rows(rng, f, rng.randint(1, 14), ncols, density=rng.choice([0.15, 0.4]))
            full_piv, full_red = _rref_generic(f, [dict(r) for r in rows])
            for k in range(ncols + 1):
                piv, red = _rref_generic(f, [dict(r) for r in rows], keep_from=k)
                assert piv == full_piv, (f, k)
                tail = [(c, r) for c, r in zip(piv, red) if c >= k]
                assert tail == [(c, r) for c, r in zip(full_piv, full_red) if c >= k], (f, k)


@pytest.mark.parametrize(
    "p,nrows,ncols,density",
    [
        pytest.param(2, 30, 40, 1.0, id="2"),
        pytest.param(5, 30, 40, 1.0, id="5"),
        pytest.param(2147483629, 30, 40, 1.0, id="2147483629"),
        # the size and sparsity of the matrices the F_p centres hand the sparse lane
        pytest.param(5, 120, 200, 0.03, id="5-sparse"),
    ],
)
def test_modp_lanes_agree(p, nrows, ncols, density):
    # the dense numpy kernel, which no frobpi path calls, as an independent
    # oracle for the sparse lane that does all F_p work
    rng = np.random.default_rng(11)
    mat = rng.integers(0, p, size=(nrows, ncols), dtype=np.int64)
    if density < 1:
        mat *= rng.random(mat.shape) < density
    rank, piv_d, red = rref_mod(mat, p)
    f = FP(p)
    rows = [{j: int(v) for j, v in enumerate(r) if v} for r in mat]
    piv_g, red_g = rref_rows(f, rows, ncols)
    assert rank == len(piv_g) and piv_d == piv_g
    dense_rows = [{int(j): int(red[i, j]) for j in np.nonzero(red[i])[0]} for i in range(rank)]
    assert dense_rows == red_g
    assert not red[rank:].any()


def _transpose(rows, ncols):
    t = [{} for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            t[j][i] = v
    return t


def test_kernel_annihilates():
    # the right kernel of m is the left kernel of its transpose
    rng = random.Random(19)
    for f in (QQ, FP(7)):
        rows = _random_rows(rng, f, 10, 14)
        k = left_kernel(f, _transpose(rows, 14), 10)
        assert k.ambient == 14
        piv, _ = rref_rows(f, [dict(r) for r in rows], 14)
        assert k.dim + len(piv) == 14
        for kv in k.rows:
            img = {}
            for i, r in enumerate(rows):
                acc = f.zero
                for j, c in r.items():
                    if j in kv:
                        acc = f.add(acc, f.mul(c, kv[j]))
                if not f.is_zero(acc):
                    img[i] = acc
            assert img == {}
        # Subspace.contains tells kernel vectors from the columns m does not kill
        assert k.contains(vec_add(f, k.rows[0], k.rows[-1], f.convert(3)))
        for q in range(14):
            assert k.contains({q: f.one}) == all(q not in r for r in rows)


def test_left_kernel_in_a_basis():
    # {sum x_i b_i : sum x_i m_i = 0} for a basis b other than the unit vectors
    rng = random.Random(23)
    for f in (QQ, FP(7)):
        basis = Subspace.from_vectors(f, 12, _random_rows(rng, f, 7, 12, density=0.2))
        m = _random_rows(rng, f, basis.dim, 5, density=0.3)
        k = left_kernel(f, m, 5, basis=basis)
        assert k.ambient == 12
        assert k.dim == basis.dim - len(rref_rows(f, [dict(r) for r in m], 5)[0])
        for v in k.rows:
            assert basis.contains(v)
            # a canonical basis row carries 1 at its own pivot, so the pivots read off x
            x = {i: v[c] for i, c in enumerate(basis.pivots) if c in v}
            comb = {}
            for i, c in x.items():
                comb = vec_add(f, comb, m[i], c)
            assert comb == {}
        # the same subspace as the unit-basis kernel, mapped through b
        xs = left_kernel(f, m, 5).rows
        ref = Subspace.from_vectors(f, 12, [vec_apply(f, x, basis.rows) for x in xs])
        assert (k.pivots, k.rows) == (ref.pivots, ref.rows)


def _null_combinations(f, m, ncols):
    """A basis of {x : sum x_i m_i = 0}, read off the reduced transpose."""
    piv, red = rref_rows(f, _transpose(m, ncols), len(m))
    xs = []
    for q in range(len(m)):
        if q not in piv:
            x = {q: f.one}
            x.update((p, f.neg(r[q])) for p, r in zip(piv, red) if q in r)
            xs.append(x)
    return xs


def test_left_kernel_passes_idle_rows_through():
    # a basis row whose image is {} is in the kernel already: it comes back
    # verbatim, and the answer is the span of the explicit kernel combinations
    rng = random.Random(29)
    for f in (QQ, FP(7)):
        basis = Subspace.from_vectors(f, 12, _random_rows(rng, f, 9, 12, density=0.3))
        m = _random_rows(rng, f, basis.dim, 3, density=0.6)
        idle = range(0, basis.dim, 3)
        for i in idle:
            m[i] = {}
        k = left_kernel(f, m, 3, basis=basis)
        assert k.dim > len(idle)
        rows = dict(zip(k.pivots, k.rows))
        for i in idle:
            assert rows[basis.pivots[i]] == basis.rows[i]
        xs = _null_combinations(f, m, 3)
        ref = Subspace.from_vectors(f, 12, [vec_apply(f, x, basis.rows) for x in xs])
        assert (k.pivots, k.rows) == (ref.pivots, ref.rows)


def test_left_kernel_dependent_basis_raises():
    # a combination that vanishes in both m and b makes the reduction rank-deficient
    for f in (QQ, FP(7)):
        one = f.one
        twice = Subspace(f, 3, (0, 0), ({0: one}, {0: one}))
        with pytest.raises(InvariantError):
            left_kernel(f, [{1: one}, {1: one}], 2, basis=twice)
        # idle rows are not reduced, yet a duplicate among them is still caught
        with pytest.raises(InvariantError):
            left_kernel(f, [{}, {}], 2, basis=twice)
        with pytest.raises(InvariantError):
            left_kernel(f, [{}], 2, basis=Subspace(f, 3, (0,), ({},)))
        # b_0 - b_1 + b_2 = 0 with m_0 = {} and m_1 = m_2: idle and live rows mixed
        mixed = Subspace(f, 3, (0, 0, 2), ({0: one}, {0: one, 2: one}, {2: one}))
        with pytest.raises(InvariantError):
            left_kernel(f, [{}, {1: one}, {1: one}], 2, basis=mixed)


def test_left_kernel_annihilates():
    f = QQ
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}, {2: Fraction(1)}]
    lk = left_kernel(f, rows, 3)
    assert lk.dim == 1
    (v,) = lk.rows
    comb = {}
    for i, c in v.items():
        comb = vec_add(f, comb, rows[i], c)
    assert comb == {}


# ---------------------------------------------------------------------------
# who owns the rows a reduction is handed

_OWNER_FIELDS = [QQ, FP(5), QU]


@pytest.mark.parametrize("field", _OWNER_FIELDS, ids=["q", "fp5", "qu"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_reductions_write_only_rows_they_own(field, data):
    # rref_rows reduces the fresh reduced rows it is handed in place, to the
    # canonical form; Subspace.from_vectors reduces copies, so the rows it
    # is handed, read-only, repeated or plain, are never written
    ncols, rows = data.draw(_fill_in_rows(field))
    want = _dense_gauss_jordan(field, rows, ncols)
    assert rref_rows(field, [dict(r) for r in rows], ncols) == want
    handed = [types.MappingProxyType(r) if i % 2 else r for i, r in enumerate(rows)] + rows[:1]
    held = [dict(r) for r in handed]
    got = Subspace.from_vectors(field, ncols, handed)
    assert (list(got.pivots), list(got.rows)) == want
    assert [dict(r) for r in handed] == held


@pytest.mark.parametrize("field", _OWNER_FIELDS, ids=["q", "fp5", "qu"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_unit_and_inverse_read_their_rows_without_writing(field, data):
    # _find_unit reads the table's plain-dict rows and _dense_inverse its
    # matrix rows; both reduce rows of their own
    entry = _payloads(field)
    blocks = data.draw(st.lists(st.lists(entry, min_size=1, max_size=2), min_size=1, max_size=2))
    n = sum(map(len, blocks))
    alg = _blocks_algebra(field, blocks, [f"x{i}" for i in range(n)])
    held = [[dict(r) for r in row] for row in alg.table]
    assert alg._find_unit() == list(alg.unit)
    assert [[dict(r) for r in row] for row in alg.table] == held
    m = data.draw(st.lists(st.lists(st.one_of(st.just(field.zero), entry), min_size=n, max_size=n), min_size=n, max_size=n))
    held = [list(r) for r in m]
    inv = _dense_inverse(field, m)
    assert m == held
    if inv is not None:
        for i in range(n):
            for j in range(n):
                acc = field.zero
                for k in range(n):
                    acc = field.add(acc, field.mul(m[i][k], inv[k][j]))
                assert acc == (field.one if i == j else field.zero)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_commutators_are_right_minus_left(data):
    # each x l - l x is summed in one dict: it equals the difference of the
    # two products, holds no zero payload and leaves the operator rows as
    # they were
    field, right, vec, _ = data.draw(_kernel_case(fields=_OWNER_FIELDS))
    left = data.draw(st.permutations(right))
    snapshot = [dict(r) for r in (*right, *left)]
    vecs = [vec, *({i: field.one} for i in range(len(right)))]
    for x, got in zip(vecs, _commutators(field, vecs, right, left), strict=True):
        assert got == vec_sub(field, vec_apply(field, x, right), vec_apply(field, x, left))
        assert all(got.values()) and (got is EMPTY_ROW or all(got is not r for r in (*right, *left)))
    assert [dict(r) for r in (*right, *left)] == snapshot
