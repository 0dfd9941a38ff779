"""Shared engine builds; constructed once per session."""

import pytest

from frobpi import CATALOG_NAMES, build, catalog
from frobpi.engine import GradedAlgebra
from frobpi.fields import field_from_descriptor
from frobpi.frobenius import deformation, make_frobenius

Q_DEGREE = 16
FP_DEGREE = {2: 13, 3: 12, 5: 13, 7: 12}
FAMILIES = {f"family {n}": (n, False) for n in range(1, 7)} | {"family 6c": (6, True)}
"""The seven deformation families over Q(u), by name: family 6c is the char-2 variant of family 6."""


def family_pair(name):
    """The named deformation family over Q(u), with its functional."""
    fam = deformation(*FAMILIES[name])
    return make_frobenius(fam.algebra, list(fam.lam))


def record_derivations(monkeypatch):
    """Record, in order, each operator a build derives from its FB rows.

    ("B", d, j, algebra) is a slot's right rows, derived by
    GradedAlgebra.right on their first read; ("F", d, None, algebra) is a
    degree of F, derived on the first read of the F property.
    """
    derived = []
    right, F = GradedAlgebra.right, GradedAlgebra.F.fget

    def counted_right(g, d, j):
        if g._B[d][j] is None:
            derived.append(("B", d, j, g.pair.algebra))
        return right(g, d, j)

    def counted_F(g):
        derived.extend(("F", d, None, g.pair.algebra) for d in range(len(g._F), len(g.FB)))
        return F(g)

    monkeypatch.setattr(GradedAlgebra, "right", counted_right)
    monkeypatch.setattr(GradedAlgebra, "F", property(counted_F))
    return derived


@pytest.fixture(scope="session")
def q_engines():
    return {name: build(catalog(name), Q_DEGREE) for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def fp_engines():
    out = {}
    for p, deg in FP_DEGREE.items():
        f = field_from_descriptor(f"fp:{p}")
        for name in CATALOG_NAMES:
            out[name, p] = build(catalog(name, f), deg)
    return out


@pytest.fixture(scope="session")
def bikwad_q(q_engines):
    return q_engines["bikwad"]


def bikwad_words(g):
    """u, v, A, B and C of the square presentation bikwad, as elements of g.

    u and v live in degree 2 and normalize through the sign automorphisms
    negating t and s; their squares A and B in degree 4, and C in degree 6,
    are central.
    """
    ex = g.element_from_expr
    return (
        ex("sef + efs + fse"),
        ex("tef + eft + fte"),
        ex("sefsef + efsefs + fsefse"),
        ex("teftef + efteft + ftefte"),
        ex("sefsteftef + efsefsteft + fsefstefte"),
    )


def normalizes(x, sign_letter):
    """x l = sigma(l) x for each letter l of bikwad, checked by multiplying.

    sigma fixes a, e and f and negates the slots whose names contain
    sign_letter.  The letters generate the algebra, so this is x y =
    sigma(y) x for every y.
    """
    g = x.graded
    for name in ("a", "1", "s", "t", "st", "e", "f"):
        letter = g.element_from_word(name)
        twisted = -letter if name in g.pair.algebra.names and sign_letter in name else letter
        if g.multiply(x, letter) != g.multiply(twisted, x):
            return False
    return True
