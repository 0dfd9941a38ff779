"""Star quiver Hilbert series, binary-tetrahedral invariants, cross-checks."""

import json
from fractions import Fraction

import pytest

from frobpi.cli import main
from frobpi.fields import QQ, MultiPoly
from frobpi.splitcase import (
    invariant_dims,
    invariant_generators,
    invariant_relation_check,
    invariant_slice,
    monomial_count,
    no_lower_relation_check,
    quiver_hilbert,
    split_table,
)


def star_series(n, D):
    """Dense oracle: W_0..W_D of 1/(1 - tC + t^2) for the explicit n-arm star."""
    size = n + 1
    c = [[int((i == 0) != (j == 0)) for j in range(size)] for i in range(size)]
    ident = [[int(i == j) for j in range(size)] for i in range(size)]
    prev, cur = [[0] * size for _ in range(size)], ident
    mats = []
    for _ in range(D + 1):
        mats.append(cur)
        cw = matmul(c, cur)
        prev, cur = cur, [[cw[i][j] - prev[i][j] for j in range(size)] for i in range(size)]
    return c, mats


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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
    _, totals = quiver_hilbert(4, 24)
    assert totals == closed_form_totals(24)


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_recurrence_matches_dense_series(n):
    D = 30
    c, w = star_series(n, D)
    size = n + 1
    # (I - tC + t^2) W(t) = I through order D
    for d in range(D + 1):
        acc = [row[:] for row in w[d]]
        if d >= 1:
            cw = matmul(c, w[d - 1])
            acc = [[acc[i][j] - cw[i][j] for j in range(size)] for i in range(size)]
        if d >= 2:
            acc = [[acc[i][j] + w[d - 2][i][j] for j in range(size)] for i in range(size)]
        assert acc == [[int(d == 0 and i == j) for j in range(size)] for i in range(size)]
    # symmetric, and constant on the orbits (0,0), (0,i), (i,i), (i,j) of S_n
    for m in w:
        assert all(m[i][j] == m[j][i] for i in range(size) for j in range(size))
        assert len({m[0][i] for i in range(1, size)}) == 1
        assert len({m[i][i] for i in range(1, size)}) == 1
        assert len({m[i][j] for i in range(1, size) for j in range(1, size) if i != j}) <= 1
    col0 = [sum(row[0] for row in m) for m in w]
    totals = [sum(map(sum, m)) for m in w]
    assert quiver_hilbert(n, D) == (col0, totals)


@pytest.mark.parametrize("n", [1, 5])
def test_cli_quiver_matches_dense_series(capsys, n):
    # n = 1 is Dynkin: the series is not a Hilbert series and goes negative
    assert main(["quiver", "--arrows", str(n), "--max-degree", "30", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    _, w = star_series(n, 30)
    assert [r["quiver_total"] for r in rows] == [sum(map(sum, m)) for m in w]
    assert [r["column0_sum"] for r in rows] == [sum(row[0] for row in m) for m in w]


def test_quiver_column0_sums():
    col0, _ = quiver_hilbert(4, 12)
    assert col0 == [d + 1 if d % 2 == 0 else 2 * (d + 1) for d in range(13)]


def test_invariant_slice_degree2_empty():
    assert invariant_slice(2) == ()
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
