"""Independent cross-checks for the split case S = k^4.

When S is a product of four copies of the ground field, the graded algebra
is the preprojective algebra of the star quiver with one central vertex and
four arms.  Its Hilbert data can therefore be recomputed two ways that never
touch the engine: the series 1/(1 - tC + t^2) for the doubled-quiver
adjacency matrix C, and counting symmetrized monomials x^m y^n invariant
under the binary dihedral group of order 8 acting on the plane.  The
quiver totals must match the engine dimensions, the column-0 sums must
match the 1_R ranks, and the invariant counts must match the center ranks.

Invariance is decided by two coefficient conditions kept inside Q (no
fourth root of unity is ever constructed): the rotation eigenvalue forces
m + 3n = 0 mod 4, and the swap forces c_{n,m} = (-1)^m c_{m,n}.
"""

from itertools import islice

from .fields import QQ, MultiPoly
from .center import center_degree


def quiver_hilbert(n: int, D: int):
    """Column-0 sums and entry totals of degrees 0..D of quiver_series(n), as two lists."""
    terms = list(islice(quiver_series(n), D + 1))
    return [c0 for c0, _ in terms], [total for _, total in terms]


def quiver_series(n: int):
    """Column-0 sums and entry totals of the coefficients of 1/(1 - tC + t^2).

    C is the adjacency matrix of the doubled star: vertex 0 joined to each
    of the outer vertices 1..n.  The coefficients W_0 = I, W_1 = C,
    W_d = C W_{d-1} - W_{d-2} are polynomials in C, so each is symmetric and
    fixed by every permutation of the outer vertices.  W_d then has four
    distinct entries: a at (0, 0), b at (0, i) and (i, 0), c at (i, i),
    and e at (i, j) for outer i != j; the recurrence runs on those four.

    Yields (column0_sum, total) for degrees 0, 1, 2, ... without end.  For
    n >= 4 the star is not Dynkin, the total of degree d is the dimension
    of the degree-d component of the star preprojective algebra, and the
    column-0 sum that of its paths ending at the central vertex.  For
    n = 1, 2, 3 the star is the Dynkin diagram A_2, A_3 or D_4, the
    preprojective algebra is finite-dimensional, the series is not its
    Hilbert series, and coefficients can be negative.
    """
    prev, cur = (0, 0, 0, 0), (1, 0, 1, 0)
    while True:
        a, b, c, e = cur
        yield a + n * b, a + 2 * n * b + n * c + n * (n - 1) * e
        pa, pb, pc, pe = prev
        prev, cur = cur, (n * b - pa, c + (n - 1) * e - pb, b - pc, b - pe)


# ---------------------------------------------------------------------------
# invariants of the plane under the order-8 binary dihedral group


def _pair_survives(m: int, n: int) -> bool:
    # rotation eigenvalue: i^(m+3n) = 1
    if (m + 3 * n) % 4:
        return False
    # swap sign: c_{m,m} = (-1)^m c_{m,m} kills odd diagonals
    if m == n and m % 2:
        return False
    return True


def invariant_slice(d: int) -> tuple:
    """Basis of degree-d invariants as symmetrized exponent pairs (m, n).

    A pair with m > n stands for x^m y^n + (-1)^m x^n y^m; a diagonal
    pair (m, m) stands for the single monomial x^m y^m.
    """
    pairs = []
    m = d
    while 2 * m >= d:
        if _pair_survives(m, d - m):
            pairs.append((m, d - m))
        m -= 1
    return tuple(pairs)


def invariant_dims(D: int) -> list:
    """Invariant-ring dimensions in degrees 0..D."""
    return [len(invariant_slice(d)) for d in range(D + 1)]


def _mono(m, n, c=1):
    return MultiPoly(QQ, 2, {(m, n): c})


def invariant_generators():
    """A = x^4 + y^4, B = x^2 y^2, C = x^5 y - x y^5."""
    a = _mono(4, 0) + _mono(0, 4)
    b = _mono(2, 2)
    c = _mono(5, 1) - _mono(1, 5)
    return a, b, c


def invariant_relation_check() -> bool:
    """C^2 - B(A^2 - 4B^2) = 0 as a literal polynomial identity."""
    a, b, c = invariant_generators()
    return (c * c - b * (a * a - (b * b).scale(4))).is_zero()


def monomial_count(d: int) -> int:
    """Words A^i B^j C^k with 4i + 4j + 6k = d, counted freely."""
    count = 0
    for k in range(d // 6 + 1):
        r = d - 6 * k
        if r % 4 == 0:
            count += r // 4 + 1
    return count


def no_lower_relation_check(dmax: int = 10) -> bool:
    """Free monomial counts in A, B, C match invariant dims up to dmax.

    Equality in every degree <= dmax certifies that the degree-12 relation
    is the first one.
    """
    dims = invariant_dims(dmax)
    return all(monomial_count(d) == dims[d] for d in range(dmax + 1))


# ---------------------------------------------------------------------------
# cross-checks against the engine


def split_table(g, D: int) -> list:
    """Rows (degree, quiver_total, engine_dim, invariant_dim, center_dim)."""
    _, totals = quiver_hilbert(4, D)
    inv = invariant_dims(D)
    return [
        (d, totals[d], g.dim(d), inv[d], center_degree(g, d).dim)
        for d in range(D + 1)
    ]
