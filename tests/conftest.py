"""Shared engine builds; constructed once per session."""

import pytest

from frobpi import CATALOG_NAMES, build, catalog
from frobpi.engine import A_LETTER, E_LETTER, F_LETTER, GradedAlgebra, PiElement
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

    ("B", d, j, algebra) is slot j's right rows on degree d, and
    ("F", d, None, algebra) f's right rows from degree d to d + 1, each
    derived by GradedAlgebra.right_op on its first read.
    """
    derived = []
    right_op = GradedAlgebra.right_op

    def counted(g, L, d):
        if (L >= 0 or L == F_LETTER) and g._right[L][d] is None:
            derived.append(("F", d, None, g.pair.algebra) if L == F_LETTER else ("B", d, L, g.pair.algebra))
        return right_op(g, L, d)

    monkeypatch.setattr(GradedAlgebra, "right_op", counted)
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


def letters(g):
    """Each word letter of g by its name: a, the basis names of S, e and f.

    A basis name a, e or f would hide a letter or be hidden by one, so it is refused.
    """
    names = g.pair.algebra.names
    clash = {"a", "e", "f"}.intersection(names)
    assert not clash, f"basis names {sorted(clash)} spell letters"
    return {"a": A_LETTER, **{nm: j for j, nm in enumerate(names)}, "e": E_LETTER, "f": F_LETTER}


def word_sum(g, *words):
    """The sum of the words, each a tuple of letter names as in letters(g), as an element of g.

    Each word is the unit folded through its letters by GradedAlgebra._fold;
    the words must all have the same degree, their count of e and f.
    """
    by_name, unit = letters(g), g.unit_element().vec
    folds = [g._fold(unit, 0, [by_name[nm] for nm in w]) for w in words]
    terms = [PiElement(g, d, vec) for vec, d in folds]
    return sum(terms[1:], terms[0])


def bikwad_words(g):
    """u, v, A, B and C of the square presentation bikwad, as elements of g.

    u and v live in degree 2 and normalize through the sign automorphisms
    negating t and s; their squares A and B in degree 4, and C in degree 6,
    are central.  Each is the sum of a word w and the two words that move
    w's last one or two letters to its front.
    """

    def cyclic(w):
        return word_sum(g, w, w[-2:] + w[:-2], w[-1:] + w[:-1])

    sef, tef = ("s", "e", "f"), ("t", "e", "f")
    return cyclic(sef), cyclic(tef), cyclic(sef + sef), cyclic(tef + tef), cyclic(sef + ("st", "e", "f") + tef)


def normalizes(x, sign_letter):
    """x l = sigma(l) x for each letter l of bikwad, checked by multiplying.

    sigma fixes a, e and f and negates the slots whose names contain
    sign_letter.  The letters generate the algebra, so this is x y =
    sigma(y) x for every y.
    """
    g = x.graded
    for name in letters(g):
        letter = word_sum(g, (name,))
        twisted = -letter if name in g.pair.algebra.names and sign_letter in name else letter
        if g.multiply(x, letter) != g.multiply(twisted, x):
            return False
    return True
