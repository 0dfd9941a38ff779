"""Independent cross-checks for the split case S = k^4.

When S is a product of four copies of the ground field, the graded algebra
is the preprojective algebra of the star quiver with one central vertex and
four arms.  Its Hilbert data can therefore be recomputed two ways that never
touch the engine: inverting 1 - tC + t^2 for the doubled-quiver adjacency
matrix C, and counting symmetrized monomials x^m y^n invariant under the
binary dihedral group of order 8 acting on the plane.  The quiver totals
must match the engine dimensions, the column-0 sums must match the 1_R
ranks, and the invariant counts must match the center ranks.

Invariance is decided by two coefficient conditions kept inside Q (no
fourth root of unity is ever constructed): the rotation eigenvalue forces
m + 3n = 0 mod 4, and the swap forces c_{n,m} = (-1)^m c_{m,n}.
"""

from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, InvariantError, MultiPoly
from .linalg import series_inverse
from .center import center_degree


@dataclass(frozen=True)
class StarQuiver:
    """Doubled star with central vertex 0 and n outer vertices."""

    n: int
    adjacency: tuple

    def __post_init__(self):
        n, c = self.n, self.adjacency
        if n < 1:
            raise ValueError("star quiver needs at least one arrow")
        if len(c) != n + 1 or any(len(r) != n + 1 for r in c):
            raise ValueError("adjacency must be (n+1) x (n+1)")
        for i in range(n + 1):
            for j in range(n + 1):
                if c[i][j] != c[j][i]:
                    raise ValueError("adjacency must be symmetric")
        if any(c[0][j] != 1 for j in range(1, n + 1)) or c[0][0] != 0:
            raise ValueError("central row must be all ones off-diagonal")
        for i in range(1, n + 1):
            if c[i][0] != 1 or any(c[i][j] != 0 for j in range(1, n + 1)):
                raise ValueError("outer rows connect to the center only")


def star_adjacency(n: int) -> StarQuiver:
    rows = [tuple(0 if j == 0 else 1 for j in range(n + 1))]
    for i in range(1, n + 1):
        rows.append(tuple(1 if j == 0 else 0 for j in range(n + 1)))
    return StarQuiver(n, tuple(rows))


def _int(x):
    if x.denominator != 1:
        raise InvariantError(f"quiver series coefficient {x} is not an integer")
    return int(x)


def quiver_hilbert(n: int, D: int):
    """Coefficient matrices of 1/(1 - tC + t^2) and their entry totals.

    Returns (mats, totals) where mats[d] is the degree-d coefficient,
    an (n+1) x (n+1) matrix of Fractions with integer values, and
    totals[d] is the sum of all its entries: the dimension of the
    degree-d component of the star preprojective algebra.
    """
    quiver = star_adjacency(n)
    mats = series_inverse([list(r) for r in quiver.adjacency], D)
    totals = [_int(sum(sum(row, Fraction(0)) for row in m)) for m in mats]
    return mats, totals


def _column0(mat):
    return _int(sum((row[0] for row in mat), Fraction(0)))


# ---------------------------------------------------------------------------
# invariants of the plane under the order-8 binary dihedral group


@dataclass(frozen=True)
class InvariantSlice:
    """Basis of degree-d invariants as symmetrized exponent pairs (m, n).

    A pair with m > n stands for x^m y^n + (-1)^m x^n y^m; a diagonal
    pair (m, m) stands for the single monomial x^m y^m.
    """

    degree: int
    pairs: tuple


def _pair_survives(m: int, n: int) -> bool:
    # rotation eigenvalue: i^(m+3n) = 1
    if (m + 3 * n) % 4:
        return False
    # swap sign: c_{m,m} = (-1)^m c_{m,m} kills odd diagonals
    if m == n and m % 2:
        return False
    return True


def invariant_slice(d: int) -> InvariantSlice:
    pairs = []
    m = d
    while 2 * m >= d:
        if _pair_survives(m, d - m):
            pairs.append((m, d - m))
        m -= 1
    return InvariantSlice(d, tuple(pairs))


def invariant_dims(D: int) -> list:
    """Invariant-ring dimensions in degrees 0..D."""
    return [len(invariant_slice(d).pairs) for d in range(D + 1)]


def _mono(m, n, c=1):
    return MultiPoly(QQ, 2, {(m, n): Fraction(c)})


def invariant_generators():
    """A = x^4 + y^4, B = x^2 y^2, C = x^5 y - x y^5."""
    a = _mono(4, 0) + _mono(0, 4)
    b = _mono(2, 2)
    c = _mono(5, 1) - _mono(1, 5)
    return a, b, c


def invariant_relation_check() -> bool:
    """C^2 - B(A^2 - 4B^2) = 0 as a literal polynomial identity."""
    a, b, c = invariant_generators()
    return (c * c - b * (a * a - (b * b).scale(Fraction(4)))).is_zero()


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
