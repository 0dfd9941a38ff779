"""Star quiver Hilbert series, binary-tetrahedral invariants, cross-checks."""

from fractions import Fraction

import pytest

from frobpi import splitcase
from frobpi.fields import QQ, InvariantError, MultiPoly
from frobpi.splitcase import (
    StarQuiver,
    invariant_dims,
    invariant_generators,
    invariant_relation_check,
    invariant_slice,
    monomial_count,
    no_lower_relation_check,
    quiver_hilbert,
    split_table,
    star_adjacency,
)


def test_star_quiver_shape():
    q = star_adjacency(4)
    assert q.n == 4
    assert q.adjacency[0] == (0, 1, 1, 1, 1)
    for i in range(1, 5):
        row = q.adjacency[i]
        assert row[0] == 1 and sum(row) == 1


def test_star_quiver_validation():
    with pytest.raises(ValueError):
        StarQuiver(2, ((0, 1, 1), (1, 0, 0), (0, 0, 0)))  # not symmetric
    with pytest.raises(ValueError):
        StarQuiver(2, ((0, 1, 0), (1, 0, 0), (0, 0, 0)))  # center misses a leaf


def closed_form_totals(D):
    # coefficients of (5 + 8t + 5t^2) / (1 - t^2)^2
    out = []
    for d in range(D + 1):
        tot = 0
        for c, shift in ((5, 0), (8, 1), (5, 2)):
            k = d - shift
            if k >= 0 and k % 2 == 0:
                tot += c * (k // 2 + 1)
        out.append(tot)
    return out


def test_quiver_totals_match_series():
    mats, totals = quiver_hilbert(4, 24)
    assert totals == closed_form_totals(24)


def test_non_integer_series_coefficient_raises():
    # an explicit check, so it still holds under python -O
    with pytest.raises(InvariantError):
        splitcase._int(Fraction(1, 2))
    assert splitcase._int(Fraction(6, 2)) == 3


def test_quiver_matrices_symmetric():
    mats, _ = quiver_hilbert(4, 12)
    for m in mats:
        for i in range(5):
            for j in range(5):
                assert m[i][j] == m[j][i]


def test_quiver_column0_sums():
    mats, _ = quiver_hilbert(4, 12)
    for d, m in enumerate(mats):
        col0 = sum(row[0] for row in m)
        assert col0 == (d + 1 if d % 2 == 0 else 2 * (d + 1))


def test_invariant_slice_degree2_empty():
    assert invariant_slice(2).pairs == ()
    assert invariant_dims(12) == [1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 4]


def satisfies_conditions(poly: MultiPoly) -> bool:
    """Both invariance conditions, checked coefficientwise on a polynomial."""
    zero = Fraction(0)
    for (m, n), c in poly.terms.items():
        if (m + 3 * n) % 4:
            return False
        swapped = poly.terms.get((n, m), zero)
        if swapped != (c if m % 2 == 0 else -c):
            return False
    return True


def test_generators_satisfy_conditions():
    A, B, C = invariant_generators()
    for p in (A, B, C):
        assert satisfies_conditions(p)


def test_xy_is_not_invariant():
    xy = MultiPoly(QQ, 2, {(1, 1): Fraction(1)})
    assert not satisfies_conditions(xy)


def test_relation_holds():
    assert invariant_relation_check()


def test_no_lower_relation():
    assert no_lower_relation_check(10)
    assert monomial_count(12) == invariant_dims(12)[12] + 1


def test_monomial_count_values():
    # solutions of 4i + 4j + 6k = d
    assert [monomial_count(d) for d in (0, 4, 6, 8, 10, 12)] == [1, 2, 1, 3, 2, 5]


def test_split_table_rows(q_engines):
    rows = split_table(q_engines["split4"], 8)
    assert len(rows) == 9
    for d, (deg, total, edim, idim, zdim) in enumerate(rows):
        assert deg == d
        assert total == edim
        assert idim == zdim
