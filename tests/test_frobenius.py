"""Rank-4 algebra catalog, functionals, deformations, serialization."""

import copy
import hashlib
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from frobpi.fields import QQ, PrimeField, field_from_descriptor
from frobpi.frobenius import (
    CATALOG_NAMES,
    REJECT_NAMES,
    AlgebraStructureError,
    CommAlgebra,
    FrobeniusPair,
    SingularGramError,
    _blocks_algebra,
    algebra_from_json,
    algebra_to_json,
    block_presentation,
    catalog,
    deformation,
    fiber_matches_catalog,
    is_frobenius,
    make_frobenius,
    special_fiber_matches_catalog,
    specialize_algebra,
    specialize_pair,
)
from conftest import FAMILIES, family_pair


def test_catalog_names_fixed():
    assert CATALOG_NAMES == (
        "split4",
        "dual-numbers-pair",
        "two-dual-numbers",
        "t3-plus-k",
        "t4",
        "bikwad",
    )
    assert len(REJECT_NAMES) == 4


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("desc", ["q", "fp:2", "fp:3", "fp:5", "fp:7"])
def test_catalog_pairs_are_frobenius(name, desc):
    pair = catalog(name, field_from_descriptor(desc))
    f = pair.field
    n = pair.n
    # dual-basis normalization: lam(e_i f_j) = delta, with e_i = b_i
    for i in range(n):
        for j in range(n):
            fj = {q: pair.dual_right[j][q] for q in range(n) if not f.is_zero(pair.dual_right[j][q])}
            v = pair.lam_apply(pair.algebra.mul_vec(pair.algebra.basis_vec(i), fj))
            assert f.is_zero(f.sub(v, f.one if i == j else f.zero))


def test_bikwad_dual_pairs():
    pair = catalog("bikwad")
    f = QQ
    # (1, s, t, st) pairs against (st, t, s, 1) under the socle functional
    for j, expect in enumerate([3, 2, 1, 0]):
        col = [pair.dual_right[j][q] for q in range(4)]
        assert col == [f.one if q == expect else f.zero for q in range(4)]


def test_commalgebra_validates():
    f = QQ
    tab = [[{} for _ in range(2)] for _ in range(2)]
    tab[0][0] = {0: Fraction(1)}
    tab[0][1] = {1: Fraction(1)}
    tab[1][0] = {1: Fraction(1)}
    tab[1][1] = {0: Fraction(1), 1: Fraction(1)}
    CommAlgebra(f, ("one", "x"), tab)  # fine: k[x]/(x^2 - x - 1)
    asym = [[dict(c) for c in row] for row in tab]
    asym[0][1] = {0: Fraction(1)}
    with pytest.raises(AlgebraStructureError):
        CommAlgebra(f, ("one", "x"), asym)


def test_unit_derived_when_not_basis_vector():
    # split4 unit is e1+e2+e3+e4, not a basis vector
    pair = catalog("split4")
    assert pair.algebra.unit == (QQ.one,) * 4
    x = {0: Fraction(2), 1: Fraction(-1), 3: Fraction(5)}
    assert pair.algebra.mul_vec(pair.algebra.unit_vec(), x) == x


def test_singular_gram_rejected():
    with pytest.raises(SingularGramError):
        make_frobenius(catalog("t4").algebra, (1, 0, 0, 0))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_is_frobenius_accepts_catalog(name):
    ok, witness = is_frobenius(catalog(name).algebra)
    assert ok and witness is not None
    make_frobenius(catalog(name).algebra, witness)


@pytest.mark.parametrize("name", REJECT_NAMES[:3])
@pytest.mark.parametrize("desc", ["q", "fp:2", "fp:3"])
def test_is_frobenius_rejects(name, desc):
    alg = catalog(name, field_from_descriptor(desc))
    ok, witness = is_frobenius(alg)
    assert not ok and witness is None


@pytest.mark.parametrize("desc", ["q", "fp:2", "fp:3"])
def test_char2_pencil_is_actually_frobenius(desc):
    # the socle of k[s,t]/(s^2 + t^2, st) is one-dimensional in every
    # characteristic, so the top functional works everywhere; the listed
    # rejection of this algebra does not survive computation
    alg = catalog("reject-char2-pencil", field_from_descriptor(desc))
    ok, witness = is_frobenius(alg)
    assert ok
    pair = make_frobenius(alg, witness)
    assert pair.gram is not None


def test_json_round_trip_all_entries():
    for name in CATALOG_NAMES:
        pair = catalog(name)
        text = algebra_to_json(pair)
        alg, lam = algebra_from_json(text)
        assert lam == pair.lam
        assert alg.equal_constants(pair.algebra)
        assert algebra_to_json(make_frobenius(alg, lam)) == text
    for name in REJECT_NAMES:
        alg = catalog(name)
        text = algebra_to_json(alg)
        back, lam = algebra_from_json(text)
        assert lam is None
        assert back.equal_constants(alg)


def test_json_is_stable_bytes():
    text = algebra_to_json(catalog("bikwad"))
    assert text.endswith("\n")
    assert text == algebra_to_json(catalog("bikwad"))


def test_crt_block_presentation_idempotents():
    # g = t^2 (t - 1)(t + 1): the t^2 block first, then the simple roots in order
    fiber = _blocks_algebra(QQ, [(0, 0, 1, -1)], ("1", "t", "t2", "t3"))
    alg = block_presentation(fiber, [(0, 0, 1, -1)])
    assert alg.n == 4
    assert alg.names == ("x0_0", "x0_1", "x1_0", "x2_0")
    unit = alg.unit_vec()
    assert alg.mul_vec(unit, unit) == unit
    assert alg.equal_constants(_blocks_algebra(QQ, [(0, 0), (0,), (0,)], alg.names))
    # fractional roots, listed in any order: (t - 1/2)^2 (t + 3)
    half = Fraction(1, 2)
    fiber = _blocks_algebra(QQ, [(-3, half, half)], ("1", "t", "t2"))
    alg = block_presentation(fiber, [(half, -3, half)])
    assert alg.names == ("x0_0", "x0_1", "x1_0")
    assert alg.equal_constants(_blocks_algebra(QQ, [(0, 0), (0,)], alg.names))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_special_fibers_match_catalog(n):
    assert special_fiber_matches_catalog(n)


def test_char2_family_special_fiber():
    assert special_fiber_matches_catalog(6, char2=True)


@pytest.mark.parametrize("n,at", [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)])
def test_generic_fibers_match_catalog(n, at):
    fam = deformation(n)
    assert fiber_matches_catalog(fam, at, fam.generic)


@pytest.mark.parametrize("at", [1, 2, Fraction(-1, 2)])
def test_rebased_generic_fibers_match_catalog(at):
    # family 1 is not a k[t]/(g) presentation, and its generic fibre is
    # identified on an explicit basis; family 6c's splits into three blocks
    fam = deformation(1)
    assert fiber_matches_catalog(fam, at, fam.generic)
    assert not fiber_matches_catalog(fam, at, "bikwad")
    fam = deformation(6, char2=True)
    assert fiber_matches_catalog(fam, at, fam.generic)
    assert not fiber_matches_catalog(fam, at, "dual-numbers-pair")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fiber_matches_only_its_own_catalog_algebra(n):
    fam = deformation(n)
    for at, name in ((0, fam.special), (fam.generic_at, fam.generic)):
        assert [c for c in CATALOG_NAMES if fiber_matches_catalog(fam, at, c)] == [name]


# sha256 of algebra_to_json, which feeds cache.cache_key: a change here moves
# every cache entry of these algebras, and pins each presentation as written
FAMILY_JSON_SHA256 = {
    (1, False): "fc15f130ea03e59a38016357796e91a90ce24f86ade75c549becf8ebe1d507ed",
    (2, False): "d7206aaffb87dd38a295653a22c9fc71035f153684730d56ba5641b7d7fde0fc",
    (3, False): "c7d8134eb20e9bb0988d6d9bd36e77e54fb140743731cc05bed2c90d8d224185",
    (4, False): "3eebce7d6111c33ac67b1366783f613d9d411a608b5ba8e2bbd7df63da4c3d5f",
    (5, False): "06e1ac4ea08fbe3b2b43a7dfe4d77473eac21f5b3dc516e116513c449d3b88d6",
    (6, False): "71d4d9f797ca1f1dbf68f4e352c351c643eb0ad45037628bc73789e336784cb2",
    (6, True): "3233f8c48db110a6e616ddf6d64abc07be228cb1e4398b2a907c367e483f0649",
}
CATALOG_JSON_SHA256 = {
    ("split4", "q"): "d076261372ae42925760215dcf52956060e60b653de6919bf129f31c7a9ac0d8",
    ("dual-numbers-pair", "q"): "70190bd7774521f05373ad79c3dc79f513229b332d1f79c53a3214b96a7c247e",
    ("two-dual-numbers", "q"): "1c606695e7375374c2c8a5925c76ec3038525cb8fcbc08f395ba5a6de37b5d64",
    ("t3-plus-k", "q"): "c448594e702fe2278ccd14145a0740829dda34ca7d24a096756cc418aec057e2",
    ("t4", "q"): "b54b70d6d94718681940acc92767b057ff478d93496339bf11a4d24b19e772a9",
    ("bikwad", "q"): "d0178b05bd025bd6767cfae0e6cc4cd019bc13ab45f0a32799d64b30a2ea053e",
    ("split4", "fp:2"): "8b43a237e483bfad9609e56a860d8ec078734f995eb1a7318f9ea0a73b8a3d8f",
    ("dual-numbers-pair", "fp:2"): "c3864ecc25c61ef6f7b5410b5885c7f70543dfdc6e21257b85deae54424aacc8",
    ("two-dual-numbers", "fp:2"): "1b9e26ed5f32d1ba41e2f09315e361b0e1efff27add7df2edb3100201a3099de",
    ("t3-plus-k", "fp:2"): "1f5af1743315046c7b8a4a9fbccee1fb6735dcbf9eee2b2e06a3d71552b41871",
    ("t4", "fp:2"): "29b1c22c01882c1a0e58562a40532fb8d312deec7dda01ac5555d8ccade72980",
    ("bikwad", "fp:2"): "9e5b1b3015ec2ea66a7a968d7b4accba2a181bf1d780d6625a4d5187c765dc25",
    ("split4", "fp:5"): "9169f345d612dfd77591b2e62a7b97441a135b8d26f7a4165a54a5f00a0dc2e7",
    ("dual-numbers-pair", "fp:5"): "e4b92c5ca41d05c031abc30a6af309b05ebadebd3d2d00c73ec45e468403b64f",
    ("two-dual-numbers", "fp:5"): "9605feeaad39e3ea6467a7445e6f1bd6b6612af3145601d8e40c0c1150b16c1f",
    ("t3-plus-k", "fp:5"): "ee1ba11afa1238d71ac6d8bc7c4760f548bad261b814e7843e5559513272dbe3",
    ("t4", "fp:5"): "0838917bf249c39b4131723cd3ba118c879b9b117074f297f3f22b30c6c45024",
    ("bikwad", "fp:5"): "3dcbdd2c91789c2d4f186f980b1d1a1069481ab907996ed972ef3fbd65c80dd7",
    ("split4", "fp:3"): "654a5ed5dfe32f3ef3a5ea9e89540b484add8ebe5c0593aa7fd7833581adb7cc",
    ("dual-numbers-pair", "fp:3"): "cd4bb60dd75f4cb421c3ad31a7016ece89fdf917710a86cf61fff074080208ae",
    ("two-dual-numbers", "fp:3"): "4a4f61f0ee1c55ff125511ede30edba444484fcb0e82a78f30fed04ebd970b7f",
    ("t3-plus-k", "fp:3"): "80087647c4de3b8d5e050f9487bfcdc385fea797600d19298af4107b5f0be01d",
    ("t4", "fp:3"): "6c7571072a2ba0a8df6b42a67c1d790546e0d7f7eda94b9b7dbd94b03eb9aad2",
    ("bikwad", "fp:3"): "b9c0fc9bed0cad3968e3c525d6686ceb42a690ecf6a7bf424378d18ceed7a37d",
    ("split4", "fp:7"): "abdabf121c4ae818be136ee2937905b11108770f52532df87a7ee4ccf87c8025",
    ("dual-numbers-pair", "fp:7"): "c2a505d59fb6a54e68f300386bf7f1c1a1f0ca53346b78fe0b7c8194099651d5",
    ("two-dual-numbers", "fp:7"): "4f46ffc3d1fd451400f5297bf1a7c855c1da8bcd291ea80e6c8bc0c30dc05cce",
    ("t3-plus-k", "fp:7"): "4bec55b1a522c8b7f369e5a316bb618a2b9baecc26d0b8e02d92fbc2c3cc7ad5",
    ("t4", "fp:7"): "bc1811bdeef6d1aa32ebf8a7f13094d1dc71231a64f52152996cfc5b3035d45a",
    ("bikwad", "fp:7"): "4b7f0ed9705dbb3b8560e73321944eb46c6f0605410c2417bbc3fda858afe1ee",
    ("split4", "qu"): "9af5c4e12bb0d52e32ab0cc564d8bb8f71756ebdaf65e3b7b6889da695b6cf2f",
    ("dual-numbers-pair", "qu"): "f14cb398531d94db30a2cef73e8089b8de17fbb878f24fdd1f207f2fca78ac6e",
    ("two-dual-numbers", "qu"): "357684e79360b19bf998bd25918e61c015041ded2fc8078b1524ee6246eddf6b",
    ("t3-plus-k", "qu"): "71f0705caa52aba8c930aa2b22abb5933afb4db4a648f0471eb63791b8d762a6",
    ("t4", "qu"): "25781e4278ccd2f265ece62847a1ad8d992c3455e5ceb91dcadf0b4dfe5267b2",
    ("bikwad", "qu"): "f044270f2af069ada1640a0267e2f16247605d1b0c7da54cf59414369e6892d6",
}
REJECT_JSON_SHA256 = {
    ("reject-jet2-plus-k", "q"): "f6979485ab6a6e89c0fd31a2a3e45a51f9d59923e6d7e84eb15a6aae4b97c4c3",
    ("reject-s2-st-t3", "q"): "3f092f0e1b67e8afb0a1bc2c967f5702ee38e2ede4000e21997ce30af73cccb0",
    ("reject-jet2-3vars", "q"): "97d6e1479cfd0d0410c58a9d24c68ced0a6be1a54efc943d4634352ca9371450",
    ("reject-char2-pencil", "q"): "52b2d07a046b35a0e767799e3ec8e507f3415dfec55b621057485d53d20c818e",
    ("reject-jet2-plus-k", "fp:2"): "18014ff706c19d8ad38e2de692d0b0108903eccf8e63b8d70a4cb59ac80dbe37",
    ("reject-s2-st-t3", "fp:2"): "e2a12c56e7c3c3d7b7563719e756a31713d0e78b5670a0ec92c161a2666069f4",
    ("reject-jet2-3vars", "fp:2"): "f5129dfb866e85db73f81deb96cf9c10ffe80d43b346d4e15877ef925528ad9c",
    ("reject-char2-pencil", "fp:2"): "1fdd74ecd860b453acd5c4697d25b92ae93cb7eddc4b8d4bd68e8d3c980b4dc0",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_algebra_json_bytes_pinned():
    for (n, char2), digest in FAMILY_JSON_SHA256.items():
        fam = deformation(n, char2)
        assert _sha256(algebra_to_json(make_frobenius(fam.algebra, fam.lam))) == digest, (n, char2)
    for (name, desc), digest in (CATALOG_JSON_SHA256 | REJECT_JSON_SHA256).items():
        entry = catalog(name, field_from_descriptor(desc))
        assert _sha256(algebra_to_json(entry)) == digest, (name, desc)


def test_deformation_metadata():
    meta = {n: (deformation(n).special, deformation(n).generic) for n in range(1, 7)}
    assert meta[1] == ("bikwad", "t4")
    assert meta[2] == ("t4", "two-dual-numbers")
    assert meta[3] == ("t4", "t3-plus-k")
    assert meta[4] == ("two-dual-numbers", "dual-numbers-pair")
    assert meta[5] == ("t3-plus-k", "dual-numbers-pair")
    assert meta[6] == ("dual-numbers-pair", "split4")
    fam = deformation(6, char2=True)
    assert (fam.special, fam.generic) == ("dual-numbers-pair", "split4")


def test_specialize_pair_qu_to_q():
    fam = deformation(2)
    p_u = make_frobenius(fam.algebra, fam.lam)
    p_0 = specialize_pair(p_u, "q", 0)
    assert p_0.field is QQ
    # u = 0 collapses the quartic to t^4
    assert p_0.algebra.equal_constants(catalog("t4").algebra)


@pytest.mark.parametrize("at", [0, Fraction(7, 13)], ids=["0", "7/13"])
def test_specialized_fibre_payloads_are_int_when_integral(at):
    # a Q fibre of a Q(u) family keeps its integral constants as ints, so its
    # builds take the int path of Q arithmetic
    fam = deformation(4)
    p = specialize_pair(make_frobenius(fam.algebra, fam.lam), "q", at)
    a = p.algebra
    payloads = [v for row in a.table for prod in row for v in prod.values()]
    payloads += list(a.unit) + list(p.lam)
    assert any(v.denominator == 1 for v in payloads)
    for v in payloads:
        assert type(v) is (int if v.denominator == 1 else Fraction), v


def test_specialize_pair_q_to_fp():
    pair = specialize_pair(catalog("bikwad"), "fp:5")
    assert pair.field.tag == "fp:5"
    assert pair.lam == (0, 0, 0, 1)


def _functionals_in_order(f, n):
    """Every candidate functional, in the order is_frobenius documents.

    All of F_p^n when p <= 2n, else the integer grid with coordinates
    0, 1, -1, ..., n, -n; the first coordinate varies fastest.
    """
    if isinstance(f, PrimeField) and f.p <= 2 * n:
        vals = list(range(f.p))
    else:
        vals = [0]
        for k in range(1, n + 1):
            vals += [k, -k]
    b = len(vals)
    for idx in range(b**n):
        yield tuple(vals[idx // b**k % b] for k in range(n))


def _gram_is_invertible(alg, lam):
    try:
        FrobeniusPair(alg, lam)
    except SingularGramError:
        return False
    return True


@pytest.mark.parametrize("name", CATALOG_NAMES + REJECT_NAMES)
@pytest.mark.parametrize("desc", ["q", "fp:2", "fp:3", "fp:5", "fp:7", "fp:11"])
def test_is_frobenius_witness_is_first_working_functional(name, desc):
    # oracle: try FrobeniusPair on each candidate in turn; the witness must be
    # the first that works, and None only when none does
    entry = catalog(name, field_from_descriptor(desc))
    alg = entry.algebra if isinstance(entry, FrobeniusPair) else entry
    ok, witness = is_frobenius(alg)
    candidates = _functionals_in_order(alg.field, alg.n)
    assert witness == next((lam for lam in candidates if _gram_is_invertible(alg, lam)), None)
    assert ok == (witness is not None)


@pytest.mark.parametrize("desc", ["q", "fp:3", "fp:5"])
def test_is_frobenius_witness_first_coordinate_fastest(desc):
    # k[x]/(x^2 - 1) on 1, x has Gram determinant l0^2 - l1^2: both (1, 0)
    # and (0, 1) work, and only the documented order puts (1, 0) first
    f = field_from_descriptor(desc)
    tab = [[{0: f.one}, {1: f.one}], [{1: f.one}, {0: f.one}]]
    assert is_frobenius(CommAlgebra(f, ("1", "x"), tab)) == (True, (1, 0))


def test_no_table_row_is_mutated_through_sharing(monkeypatch):
    # mul_vec may return a table entry itself, so a caller that wrote into its
    # result would change the table; snapshot every algebra as it is built
    built = []
    init = CommAlgebra.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, copy.deepcopy(self.table)))

    monkeypatch.setattr(CommAlgebra, "__init__", recording_init)
    for desc in ("q", "fp:5"):
        for name in CATALOG_NAMES:
            pair = catalog(name, field_from_descriptor(desc))
            pair.algebra.check()
            FrobeniusPair(pair.algebra, pair.lam)
    for n, char2 in [(n, False) for n in range(1, 7)] + [(6, True)]:
        fam = deformation(n, char2)
        fam.algebra.check()
        FrobeniusPair(fam.algebra, fam.lam)
        assert fiber_matches_catalog(fam, 0, fam.special)
        assert fiber_matches_catalog(fam, 2, fam.generic)
        if fam.blocks is not None:
            fiber = specialize_algebra(fam.algebra, "q", 2)
            block_presentation(fiber, [[a.eval(Fraction(2)) for a in roots] for roots in fam.blocks]).check()
    assert len(built) > 30
    for alg, snapshot in built:
        assert alg.table == snapshot, alg.names


# ---------------------------------------------------------------------------
# the slots whose b_j generate S with the unit


# the first smallest generating set, the same over every field the catalog is tested over
CATALOG_GENERATING_SLOTS = {
    "split4": (0, 1, 2),
    "dual-numbers-pair": (0, 1, 2),
    "two-dual-numbers": (0, 1, 3),
    "t3-plus-k": (0, 1),
    "t4": (1,),
    "bikwad": (1, 2),
}
# per family: over Q(u), and at u = 0; t generates every k[t]/(g), and over
# Q(u) also family 1, where t^2 = u s, but not its fibre bikwad
FAMILY_GENERATING_SLOTS = {
    "family 1": ((2,), (1, 2)),
    **{f"family {n}": ((1,), (1,)) for n in range(2, 7)},
    "family 6c": ((0, 1, 2), (0, 1, 2)),
}


def _dense_rank(f, vecs, n):
    """Rank of sparse vectors of length n, by dense Gaussian elimination."""
    rows = [[v.get(k, f.zero) for k in range(n)] for v in vecs]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if not f.is_zero(rows[r][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][col])
        for r in range(len(rows)):
            if r != rank and not f.is_zero(rows[r][col]):
                c = f.mul(rows[r][col], inv)
                rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _monomials_span(alg, slots):
    """The monomials of degree below n in the b_j of slots, with the unit, span the algebra.

    The spans of the monomials of degree at most k grow strictly from
    dimension 1 until they stop, so they stop by degree n - 1.
    """
    vecs = []
    for k in range(alg.n):
        for word in combinations_with_replacement(slots, k):
            x = alg.unit_vec()
            for j in word:
                x = alg.mul_vec(x, alg.basis_vec(j))
            vecs.append(x)
    return _dense_rank(alg.field, vecs, alg.n) == alg.n


def _generating_slot_cases():
    for desc in ("q", "fp:2", "fp:3", "fp:5"):
        for name, slots in CATALOG_GENERATING_SLOTS.items():
            yield f"{name} {desc}", catalog(name, field_from_descriptor(desc)).algebra, slots
    for name in FAMILIES:
        generic, special = FAMILY_GENERATING_SLOTS[name]
        alg = family_pair(name).algebra
        yield f"{name} qu", alg, generic
        yield f"{name} at 0", specialize_algebra(alg, "q", 0), special


@pytest.mark.parametrize("case", list(_generating_slot_cases()), ids=lambda c: c[0])
def test_generating_slots_are_the_first_smallest_generating_set(case):
    # checked by the monomials themselves: the chosen b_j span S with the
    # unit, no set of fewer slots does, and no set of as many that comes
    # first in slot order does
    _, alg, slots = case
    assert alg.generating_slots() == slots
    assert alg.generating_slots() is alg.generating_slots()
    assert _monomials_span(alg, slots)
    for k in range(len(slots) + 1):
        for other in combinations(range(alg.n), k):
            if other == slots:
                break
            assert not _monomials_span(alg, other), other
