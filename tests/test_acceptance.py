"""Acceptance gate: each criterion is one test, checked at literal equality.

Two tests document computed reality diverging from the closed-form claims
they check, and fail honestly rather than encode the divergence:

* criterion 3: over F_2 the center rank formula fails for bikwad, t4 and
  two-dual-numbers (their degree-2 normalizing elements become central when
  the sign twists trivialize), so the F_2 slice of the run reports the
  formula mismatches.
* criterion 9: the char-2 pencil quotient has a one-dimensional socle and a
  unimodular Gram matrix, so is_frobenius accepts it even though it is on
  the reject list.
"""

import time
from fractions import Fraction

from frobpi import CATALOG_NAMES, REJECT_NAMES, build, catalog
from frobpi.center import (
    center_dims,
    expected_center_dim,
    is_central,
    monomials_span_center,
    sigma_surjectivity_check,
)
from frobpi.fields import field_from_descriptor
from frobpi.frobenius import (
    deformation,
    is_frobenius,
    make_frobenius,
    special_fiber_matches_catalog,
    specialize_pair,
)
from frobpi.splitcase import (
    invariant_dims,
    invariant_relation_check,
    quiver_hilbert,
)
from conftest import bikwad_words, normalizes, word_sum

RANK_FIELDS = ("q", "fp:2", "fp:3", "fp:5", "fp:7")
CENTER_FIELDS = ("q", "fp:2", "fp:5")

_cache = {}


def _engine(name, tag, D):
    for (n, t, d), g in _cache.items():
        if n == name and t == tag and d >= D:
            return g
    g = build(catalog(name, field_from_descriptor(tag)), D)
    _cache[name, tag, D] = g
    return g


def _expected_dim(d):
    return 5 * (d + 1) if d % 2 == 0 else 4 * (d + 1)


def _expected_split(d):
    if d % 2 == 0:
        return d + 1, 4 * (d + 1)
    return 2 * (d + 1), 2 * (d + 1)


def test_criterion_01_dimension_law():
    t0 = time.perf_counter()
    bad = []
    for name in CATALOG_NAMES:
        for tag in RANK_FIELDS:
            g = build(catalog(name, field_from_descriptor(tag)), 12)
            _cache[name, tag, 12] = g
            for d in range(13):
                if g.dim(d) != _expected_dim(d):
                    bad.append((name, tag, d, g.dim(d), _expected_dim(d)))
    elapsed = time.perf_counter() - t0
    assert not bad, f"dimension law failures: {bad}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_02_split_ranks():
    bad = []
    for name in CATALOG_NAMES:
        for tag in RANK_FIELDS:
            g = _engine(name, tag, 12)
            for d in range(13):
                if g.split_dims(d) != _expected_split(d):
                    bad.append((name, tag, d, g.split_dims(d)))
    assert not bad, f"split rank failures: {bad}"


def test_criterion_03_center_ranks():
    bad = []
    for name in CATALOG_NAMES:
        for tag in CENTER_FIELDS:
            g = _engine(name, tag, 13)
            dims = center_dims(g, 12)
            for d in range(13):
                if dims[d] != expected_center_dim(d):
                    bad.append((name, tag, d, dims[d], expected_center_dim(d)))
    assert not bad, f"center rank failures: {bad}"


def test_criterion_04_explicit_center_elements():
    # u and v normalize, their squares A and B and the word C are central,
    # C^2 = 0, and the monomials in A, B and C span the centre
    g = _engine("bikwad", "q", 13)
    u, v, a, b, c = bikwad_words(g)
    assert normalizes(u, "t") and normalizes(v, "s")
    assert g.multiply(u, u) == a and g.multiply(v, v) == b
    assert is_central(a) and is_central(b) and is_central(c)
    assert g.multiply(c, c).is_zero()
    assert monomials_span_center(g, [a, b, c], 12)


def test_criterion_05_quiver_series():
    # series coefficients from the defining recurrence:
    # (1 - 2t^2 + t^4) C(t) = 5 + 8t + 5t^2
    num = [Fraction(5), Fraction(8), Fraction(5)]
    coeffs = []
    for d in range(25):
        c = num[d] if d < 3 else Fraction(0)
        if d >= 2:
            c += 2 * coeffs[d - 2]
        if d >= 4:
            c -= coeffs[d - 4]
        coeffs.append(c)
    _, totals = quiver_hilbert(4, 24)
    assert [Fraction(t) for t in totals] == coeffs
    g = _engine("split4", "q", 12)
    assert all(totals[d] == g.dim(d) for d in range(13))


def test_criterion_06_invariant_ring():
    g = _engine("split4", "q", 13)
    assert invariant_dims(12) == center_dims(g, 12)
    assert invariant_relation_check()


def test_criterion_07_sigma_surjectivity():
    bad = []
    for name in CATALOG_NAMES:
        g = _engine(name, "q", 13)
        if not sigma_surjectivity_check(g, 12):
            bad.append(name)
    assert not bad, f"generation recursion fell short for: {bad}"


def test_criterion_08_deformation_fibers():
    bad = []
    for n in range(1, 7):
        if not special_fiber_matches_catalog(n):
            bad.append((n, "special fiber constants"))
        fam = deformation(n)
        gq = build(make_frobenius(fam.algebra, list(fam.lam)), 9)
        g0 = build(specialize_pair(make_frobenius(fam.algebra, list(fam.lam)), "q"), 9)
        for d in range(9):
            if gq.dim(d) != g0.dim(d):
                bad.append((n, d, "dim", gq.dim(d), g0.dim(d)))
        zq = center_dims(gq, 8)
        z0 = center_dims(g0, 8)
        if zq != z0:
            bad.append((n, "center", zq, z0))
    assert not bad, f"fiber comparison failures: {bad}"


def test_criterion_09_classification():
    bad = []
    for name in CATALOG_NAMES:
        ok, _ = is_frobenius(catalog(name).algebra)
        if not ok:
            bad.append((name, "expected frobenius"))
    for name in REJECT_NAMES:
        tag = "fp:2" if name == "reject-char2-pencil" else "q"
        ok, witness = is_frobenius(catalog(name, field_from_descriptor(tag)))
        if ok:
            bad.append((name, f"accepted with witness {witness}"))
    assert not bad, f"classification failures: {bad}"


def test_criterion_10_resolution_identities():
    bad = []
    for name in CATALOG_NAMES:
        g = _engine(name, "q", 16)
        if not g.resolution_identity_check(16):
            bad.append(name)
    assert not bad, f"resolution identity failures: {bad}"


def test_criterion_11_relation_sanity():
    g = _engine("bikwad", "q", 13)
    zero_sums = (
        [("f", "e")],
        [("e", "e")],
        [("f", "f")],
        [("e", "f", "st"), ("s", "e", "f", "t"), ("t", "e", "f", "s"), ("st", "e", "f")],
        [("f", "s", "e", "f", "t", "e"), ("f", "t", "e", "f", "s", "e")],
        [("st", "e", "f", "t"), ("t", "e", "f", "st")],
        [("st", "e", "f", "s"), ("s", "e", "f", "st")],
        [("st", "e", "f", "st")],
    )
    bad = [words for words in zero_sums if not word_sum(g, *words).is_zero()]
    assert not bad, f"nonzero relation words: {bad}"
