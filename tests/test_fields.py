"""Exact scalar arithmetic: Q, F_p, Q(u), and the integer polynomial helpers."""

import ast
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from frobpi import fields
from frobpi.fields import (
    FP,
    QQ,
    QU,
    BadReductionError,
    FieldMismatchError,
    MAX_EXPONENT,
    PoleError,
    RatF,
    ScalarSyntaxError,
    field_from_descriptor,
    is_prime,
)


def test_is_prime_small_and_carmichael():
    primes = {2, 3, 5, 7, 11, 13, 97, 2147483629}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 91, 561, 41041, 2147483630):
        assert not is_prime(n)


def test_prime_field_basics():
    f = FP(7)
    assert f.tag == "fp:7"
    assert f.convert(10) == 3
    assert f.mul(f.convert(3), f.convert(5)) == 1
    assert f.inv(f.convert(3)) == 5
    assert f.parse("3/5") == f.mul(f.convert(3), f.inv(f.convert(5)))
    assert f.fmt(f.convert(-1)) == "6"
    assert FP(7) is FP(7)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        FP(6)


def test_rational_field_parse_fmt():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.fmt(Fraction(5, 1)) == "5"
    assert QQ.fmt(Fraction(-2, 3)) == "-2/3"


@pytest.mark.parametrize(
    "text", ["12", "-0", "007", " 5 ", "+3", "1_0", "٣", "1e3", "3/6", "--5", "-", "", "0x10"]
)
def test_rational_parse_integer_path_matches_fraction(text):
    # plain ASCII integers skip Fraction's parser; every string must still
    # give the value and type, or the error, that the Fraction path gives
    try:
        want = QQ.convert(Fraction(text.strip()))
    except ValueError:
        with pytest.raises(ScalarSyntaxError):
            QQ.parse(text)
        return
    got = QQ.parse(text)
    assert (got, type(got)) == (want, type(want))


def test_ratf_canonical_form():
    u = RatF((0, 1))
    one = RatF((1,))
    x = (u * u - one) / (u - one)
    # common factor cancels; the Q view has a monic denominator
    assert x == u + one
    y = one / (u + u)
    assert (y.n, y.d) == ((1,), (0, 2))
    assert _q_view(y)[1][-1] == Fraction(1)
    assert y * (u + u) == one


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_ratf_refuses_int_operands(op):
    # a value from another field raises rather than coerces, either side
    u = RatF.gen()
    with pytest.raises(TypeError):
        op(u, 1)
    with pytest.raises(TypeError):
        op(1, u)
    assert u != 1 and RatF.const(1) != 1


def test_ratf_pole():
    u = RatF.gen()
    x = RatF.const(1) / (u - RatF.const(2))
    with pytest.raises(PoleError):
        x.eval(Fraction(2))
    assert x.eval(Fraction(3)) == Fraction(1)


_INT_POLY = st.lists(st.integers(-6, 6), min_size=1, max_size=5)  # degree <= 4
_RNG = random.Random("ratf-points")
_POINTS = [Fraction(_RNG.randint(-40, 40), _RNG.randint(1, 9)) for _ in range(16)]


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _mul(a, b):
    """Product of two integer polynomials as ascending tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _horner(a, c):
    acc = Fraction(0)
    for x in reversed(a):
        acc = acc * c + x
    return acc


def _q_view(z):
    """z as numerator and monic denominator over Q, ascending Fractions."""
    lc = z.d[-1]
    return [Fraction(c, lc) for c in z.n], [Fraction(c, lc) for c in z.d]


def _gcd_degree(a, b):
    """Degree of gcd(a, b) over Q, by Euclid's algorithm on Fraction coefficients."""
    a, b = list(a), list(b)
    while b:
        while len(a) >= len(b):
            q, k = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[k + i] -= q * c
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


@st.composite
def _ratf_case(draw):
    """A RatF with the two Q[u] polynomials it was built from.

    Both are multiplied by a drawn common factor, so that building the RatF
    has something to cancel.
    """
    common = _strip(draw(_INT_POLY))
    num = _mul(_strip(draw(_INT_POLY)), common)
    den = _mul(_strip(draw(_INT_POLY)), common) or (1,)
    return RatF(num, den), num, den


def _value(num, den, c):
    """num(c)/den(c) by Horner's rule on Fractions, or None at a pole."""
    d = _horner(den, c)
    return None if d == 0 else _horner(num, c) / d


def _case(num, den=(1,)):
    return RatF(num, den), num, den


# operands the memo and the 0 / +-1 shortcut treat apart: 0, +-1, integer
# constants, and constant and nonconstant denominators
_SPECIAL = [
    _case(()),
    _case((1,)),
    _case((-1,)),
    _case((6,)),
    _case((-3,), (6,)),
    _case((2, 0, -1), (4,)),
    _case((0, 1), (1, 1)),
    _case((-2, 2), (6, 4)),
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_ratf_case(), _ratf_case())
@example(_SPECIAL[0], _SPECIAL[6])
@example(_SPECIAL[6], _SPECIAL[0])
@example(_SPECIAL[1], _SPECIAL[7])
@example(_SPECIAL[7], _SPECIAL[2])
@example(_SPECIAL[3], _SPECIAL[4])
@example(_SPECIAL[5], _SPECIAL[6])
def test_ratf_ops_match_fraction_reference(xc, yc):
    (x, xn, xd), (y, yn, yd) = xc, yc
    ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}
    if not y.is_zero():
        ops["div"] = lambda a, b: a / b
    values = [(c, _value(xn, xd, c), _value(yn, yd, c)) for c in _POINTS]
    for name, op in ops.items():
        z = op(x, y)
        checked = 0
        for c, a, b in values:
            if a is None or b is None or (name == "div" and b == 0):
                continue
            assert z.eval(c) == op(a, b), (name, c)
            checked += 1
        assert checked, name
        num, den = _q_view(z)
        assert den[-1] == 1 and z.d[-1] > 0
        assert _gcd_degree(num, den) == 0
        assert QU.parse(QU.fmt(z)) == z
        # a common factor and a content put back cancel to the same form
        w = RatF(_mul(z.n, (3, -6)), _mul(z.d, (3, -6)))
        assert (w.n, w.d) == (z.n, z.d)
        assert w == z and hash(w) == hash(z)


def _raw(name, x, y):
    """The unreduced numerator and denominator of x op y."""
    if name == "mul":
        return _mul(x.n, y.n), _mul(x.d, y.d)
    sign = 1 if name == "add" else -1
    left, right = _mul(x.n, y.d), _mul(y.n, x.d)
    width = max(len(left), len(right))
    left, right = (tuple(p) + (0,) * (width - len(p)) for p in (left, right))
    return _strip(a + sign * b for a, b in zip(left, right)), _mul(x.d, y.d)


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_MEMOS = (fields._ratf_add, fields._ratf_mul)  # a difference is a sum, through the sum memo


def test_ratf_ops_match_direct_normalisation_after_eviction():
    values = [x for x, _, _ in _SPECIAL]
    pairs = [(name, x, y) for name in _OPS for x in values for y in values]
    first = {}
    for name, x, y in pairs:
        z = _OPS[name](x, y)
        want = RatF(*_raw(name, x, y))
        assert (z.n, z.d) == (want.n, want.d), (name, x, y)
        first[name, x, y] = z
    # a hit returns the memoised object itself
    u, v = values[6], values[7]
    for name, op in _OPS.items():
        assert op(u, v) is op(u, v)
    # more than MEMO_SIZE other operations evict every entry above
    gen = RatF.gen()
    for k in range(fields.MEMO_SIZE + 1):
        shifted = RatF((k, 2), (k + 1, 0, 1))
        for op in _OPS.values():
            op(shifted, gen)
    for memo in _MEMOS:
        assert memo.cache_info().currsize == fields.MEMO_SIZE
    for name, op in _OPS.items():
        assert op(u, v) is not first[name, u, v]
    for (name, x, y), z in first.items():
        again = _OPS[name](x, y)
        assert (again.n, again.d) == (z.n, z.d), (name, x, y)


def test_ratf_mul_by_zero_or_unit_skips_the_memo():
    x = RatF((-2, 2), (6, 4))
    zero, one, minus_one = RatF(()), RatF((1,)), RatF((-1,))
    before = fields._ratf_mul.cache_info()
    assert x * one is x and one * x is x
    assert x * zero is zero and zero * x is zero
    assert (x * minus_one).n == (minus_one * x).n == (1, -1) and (x * minus_one).d == x.d
    assert fields._ratf_mul.cache_info() == before


def test_ratf_memo_is_bounded():
    for memo in _MEMOS:
        size = memo.cache_info().maxsize
        assert size is not None and 0 < size == fields.MEMO_SIZE


def test_nothing_outside_fields_assigns_ratf_parts():
    # memoised RatF results are shared, so .n and .d must never be written
    # outside fields.py; a class may still set its own self.n or self.d
    root = Path(__file__).resolve().parents[1]
    files = [*root.glob("src/frobpi/*.py"), *root.glob("tests/*.py"), *root.glob("perfbench/*.py")]
    assert any(f.name == "engine.py" for f in files)
    found = []
    for path in files:
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(ast.unparse(b).endswith("RatF") for b in node.bases):
                found.append((path.name, node.lineno, "subclasses RatF"))
            elif isinstance(node, ast.Attribute) and node.attr in ("n", "d"):
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                if not isinstance(node.ctx, ast.Load) and not own:
                    found.append((path.name, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr"):
                names = [a.value for a in node.args if isinstance(a, ast.Constant)]
                if {"n", "d"} & set(names):
                    found.append((path.name, node.lineno, ast.unparse(node)))
    assert not found


def test_heuristic_gcd_agrees_with_prs():
    # pairs with a planted common factor; the heuristic must find most gcds
    # itself (None sends the caller to the PRS) and agree with the PRS up to sign
    rng = random.Random("heu-gcd")

    def poly(deg):
        return fields._strip([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -1, 1, 2))])

    found = 0
    for _ in range(200):
        h = poly(rng.randint(0, 4))
        a, b = fields._pmul(h, poly(rng.randint(0, 5))), fields._pmul(h, poly(rng.randint(1, 5)))
        got, want = fields._heu_cancel(a, b), fields._prs_cancel(a, b)
        if got is not None:
            found += 1
            assert got in (want, tuple(tuple(-c for c in w) for w in want))
    assert found >= 180


def test_qu_parse_expressions():
    f = QU
    v = f.parse("(u^2 + 1)/(u - 2)")
    w = f.parse("u^2/(u-2) + (1)/(u - 2)")
    assert v == w
    assert f.parse("2*u + 1") == f.parse("1 + u + u")
    assert f.fmt(f.parse("u")) == "u"
    with pytest.raises(ValueError):
        f.parse("u +")


@pytest.mark.parametrize(
    "text,shown",
    [
        ("(3*u^2 - 6)/(4*u + 2)", "(3/4*u^2 - 3/2)/(u + 1/2)"),
        ("(u+1)^-2", "(1)/(u^2 + 2*u + 1)"),
        ("u^-1 - u", "(-u^2 + 1)/(u)"),
        ("(1-u)^-1", "(-1)/(u - 1)"),
        ("(2*u+4)/(6)", "1/3*u + 2/3"),
        ("-u^3 + 2*u - 7", "-u^3 + 2*u - 7"),
        ("(u^2-1)/(u-1)", "u + 1"),
        ("0", "0"),
    ],
)
def test_qu_fmt_pinned(text, shown):
    # the printed form is part of every Q(u) cache key and algebra file
    assert QU.fmt(QU.parse(text)) == shown
    assert QU.parse(shown) == QU.parse(text)


def test_qu_exponent_is_bounded():
    assert QU.parse(f"u^{MAX_EXPONENT}") == RatF((0,) * MAX_EXPONENT + (1,))
    assert QU.parse(f"u^-{MAX_EXPONENT}") == RatF((1,), (0,) * MAX_EXPONENT + (1,))
    for s in (f"u^{MAX_EXPONENT + 1}", "(u+1)^-1000000", "2^99999999999999999999"):
        with pytest.raises(ScalarSyntaxError):
            QU.parse(s)


def test_specialize_u_and_reduction():
    assert QU.parse("(u+1)/(u-3)").eval(Fraction(2)) == Fraction(-3)
    f = FP(5)
    assert f.convert(Fraction(3, 4)) == f.mul(f.convert(3), f.inv(f.convert(4)))
    with pytest.raises(BadReductionError):
        f.convert(Fraction(1, 5))
    with pytest.raises(FieldMismatchError):
        f.convert(QU.parse("u"))


def test_field_from_descriptor():
    assert field_from_descriptor("q") is QQ
    assert field_from_descriptor("fp:11").tag == "fp:11"
    assert field_from_descriptor("qu") is QU
    with pytest.raises(ValueError):
        field_from_descriptor("fp:abc")
    with pytest.raises(ValueError):
        field_from_descriptor("r")
