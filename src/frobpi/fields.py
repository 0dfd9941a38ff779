"""Exact scalars: rationals, prime fields F_p, and rational functions in u.

Scalars are raw payloads with no field tag: over Q an int or a Fraction
(never a float), over F_p a reduced int, over Q(u) a RatF.  Parsing and
QQ.convert give an int for an integer value, but Fraction arithmetic can
leave a Fraction with denominator 1 (reduced centre rows over Q hold some);
int and Fraction agree on ==, hash, str and truthiness, so either form is
canonical.  Every interface passes the Field object next to them, and
converting a value from another field raises instead of coercing.  Raw
payloads let the linear algebra layer use native arithmetic operators in
hot loops, and a sum or product of ints stays an int, so integer rows over
Q never pay for Fraction arithmetic.

Every stored payload is canonical: it is falsy exactly at zero, and two
payloads of one field are equal exactly when they compare equal with ==.

Two polynomial types serve these fields: tuples of ints in u, the numerator
and denominator of a RatF, and MultiPoly, the generic Gram determinant over
any field.  Polynomials in the algebra variable t never become objects: a
k[t]/(g) algebra is built from the roots of g (see frobenius.py).
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


class FieldMismatchError(ValueError):
    """A value or a specialization that the target field cannot take."""


class PoleError(ZeroDivisionError):
    """Specialization of a rational function at a pole of its denominator."""


class BadReductionError(ZeroDivisionError):
    """Reduction mod p of a rational whose denominator is divisible by p."""


class InputError(ValueError):
    """Bad user input: unknown name, unreadable file, invalid algebra or field."""


class ScalarSyntaxError(InputError):
    """Unparseable scalar string."""


class InvariantError(ArithmeticError):
    """An identity that exact arithmetic guarantees does not hold: a bug, not a result."""


def is_prime(p: int) -> bool:
    """Trial division by the odd numbers up to sqrt(p): fast enough below the 2^31 cap on moduli."""
    if p < 3:
        return p == 2
    return p % 2 == 1 and all(p % q for q in range(3, isqrt(p) + 1, 2))


def int_digit_limit() -> int:
    """The most decimal digits Python prints an int with; 0 for no limit, as before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def signed_sum(terms) -> str:
    """The sum of (coefficient text, monomial text) terms, as "-x + 2*y - 3".

    A coefficient 1 is left out before a monomial, and an empty monomial is
    a constant term.  No terms give "0".
    """
    parts = []
    for cs, mono in terms:
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        sep = (" - " if neg else " + ") if parts else ("-" if neg else "")
        parts.append(sep + body)
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# integer polynomials: tuples of ints, ascending, no trailing zeros


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _psub(a, b):
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        out[i] -= c
    return _strip(out)


def _pmul(a, b):
    """Product of two integer polynomials; nonzero factors give a stripped result."""
    # a constant factor (most denominators are constants) skips the double loop
    if len(a) == 1:
        c = a[0]
        return (c * b[0],) if len(b) == 1 else tuple([c * x for x in b])
    if len(b) == 1:
        c = b[0]
        return tuple([c * x for x in a])
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _strip(a):
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def _primitive(a):
    c = gcd(*a)
    return a if c == 1 else tuple(x // c for x in a)


def _prem(a, b):
    """Pseudo-remainder of a by b, up to a nonzero integer factor."""
    r = list(a)
    nb, lb = len(b), b[-1]
    while len(r) >= nb:
        la = r[-1]
        g = gcd(la, lb)
        sa, sb = lb // g, la // g
        k = len(r) - nb
        if sa != 1:
            r = [sa * x for x in r]
        for i, c in enumerate(b):
            r[k + i] -= sb * c
        r.pop()
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _prs_cancel(a, b):
    """(a/g, b/g) for the primitive gcd g of nonzero a and b, by a primitive PRS."""
    f, g = (a, b) if len(a) >= len(b) else (b, a)
    if len(g) == 1:
        return a, b
    f, g = _primitive(f), _primitive(g)
    while True:
        r = _prem(f, g)
        if not r:
            break
        if len(r) == 1:
            return a, b
        f, g = g, _primitive(r)
    qa, qb = _pquo(a, g), _pquo(b, g)
    if qa is None or qb is None:
        # g is primitive and divides both over Q, so by Gauss's lemma over Z
        raise InvariantError("inexact integer polynomial division")
    return qa, qb


def _heu_cancel(a, b):
    """(a/g, b/g) for the primitive gcd g of a and b, or None if not certified.

    b is nonconstant.  This is the heuristic gcd (GCDHEU) of Char, Geddes and
    Gonnet: read the integer gcd of a(x) and b(x) at x = 2^k back as a
    polynomial G in base x, with symmetric digits.  If G/cont(G) divides a
    and b, the true gcd is G/cont(G) times some k, and k(x) divides cont(G)
    because the gcd's value divides both values.  Past the Cauchy bound
    R <= 1 + max|b_i| of b's roots a nonconstant k has |k(x)| >= x - R, so
    cont(G) < x - R leaves k = +-1.
    """
    top = max(max(map(abs, a)), max(map(abs, b)))
    k = top.bit_length() + 6
    x = 1 << k
    va = vb = 0
    for c in reversed(a):
        va = (va << k) + c
    for c in reversed(b):
        vb = (vb << k) + c
    v = gcd(va, vb)
    if v == 1:
        return a, b
    mask, half, digits = x - 1, x >> 1, []
    while v:
        r = v & mask
        if r >= half:
            r -= x
        digits.append(r)
        v = (v - r) >> k
    c = gcd(*digits)
    if c >= x - 1 - top:
        return None
    g = tuple(d // c for d in digits)
    if len(g) == 1:
        return a, b
    qa = _pquo(a, g)
    qb = None if qa is None else _pquo(b, g)
    return None if qb is None else (qa, qb)


def _pquo(a, b):
    """a / b in Z[u] if b divides a there, else None."""
    r = list(a)
    nb, lb = len(b), b[-1]
    if len(r) < nb:
        return None
    q = [0] * (len(r) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        t, m = divmod(r[k + nb - 1], lb)
        if m:
            return None
        if t:
            q[k] = t
            for i, c in enumerate(b):
                r[k + i] -= t * c
    return None if any(r) else tuple(q)


def _poly_str(a, lc: int) -> str:
    """The polynomial a/lc in u, highest degree first; round-trips through parse."""
    terms = (
        (str(Fraction(c, lc)), "" if k == 0 else "u" if k == 1 else f"u^{k}")
        for k, c in reversed(list(enumerate(a)))
        if c
    )
    return signed_sum(terms)


# ---------------------------------------------------------------------------
# rational functions in u over Q


class RatF:
    """Quotient n/d of integer polynomials in u, in canonical form.

    n and d are tuples of ints (ascending coefficients, no trailing zeros)
    with gcd(n, d) = 1 in Z[u], joint content one and lc(d) > 0; zero is
    ((), (1,)).  The form is unique, so equality and hashing compare the
    tuples.

    A RatF is immutable: nothing assigns to n or d after construction.
    Arithmetic relies on it, as + - * return shared objects: a memoised
    result, or one of the operands when a factor is 0 or +-1.
    """

    __slots__ = ("n", "d")

    def __init__(self, num, den=(1,)):
        """num, den: integer polynomials as tuples of ints, ascending."""
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            self.n, self.d = (), (1,)
            return
        if len(den) > 1:
            q = _heu_cancel(num, den)
            if q is None:
                q = _prs_cancel(num, den)
            num, den = q
        c = gcd(*num, *den)
        if den[-1] < 0:
            c = -c
        if c != 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        self.n, self.d = num, den

    @classmethod
    def _canonical(cls, n, d):
        """Wrap a pair already in canonical form, without normalising."""
        x = object.__new__(cls)
        x.n, x.d = n, d
        return x

    @classmethod
    def const(cls, c):
        c = QQ.convert(c)
        return cls((c.numerator,) if c else (), (c.denominator,))

    @classmethod
    def gen(cls):
        return cls((0, 1))

    def is_zero(self):
        return not self.n

    def __bool__(self):
        return bool(self.n)

    def is_poly(self):
        return len(self.d) == 1

    def __eq__(self, other):
        if not isinstance(other, RatF):
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def __add__(self, o):
        if not isinstance(o, RatF):
            return NotImplemented
        return _ratf_add(self.n, self.d, o.n, o.d)

    def __neg__(self):
        return RatF._canonical(tuple([-c for c in self.n]), self.d)

    def __sub__(self, o):
        if not isinstance(o, RatF):
            return NotImplemented
        return _ratf_sub(self.n, self.d, o.n, o.d)

    def __mul__(self, o):
        if not isinstance(o, RatF):
            return NotImplemented
        # a factor 0 or +-1 gives zero or the other factor up to sign: nothing to normalise or memoise
        if o.d == (1,) and o.n in _TRIVIAL:
            return o if not o.n else self if o.n[0] == 1 else -self
        if self.d == (1,) and self.n in _TRIVIAL:
            return self if not self.n else o if self.n[0] == 1 else -o
        return _ratf_mul(self.n, self.d, o.n, o.d)

    def __truediv__(self, o):
        if not isinstance(o, RatF):
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RatF(_pmul(self.n, o.d), _pmul(self.d, o.n))

    def eval(self, c: Fraction) -> int | Fraction:
        c = QQ.convert(c)
        d = _horner(self.d, c)
        if d == 0:
            raise PoleError(f"pole at u = {c}")
        return QQ.convert(Fraction(_horner(self.n, c), d))

    def __repr__(self):
        return f"RatF({QU.fmt(self)})"


# The same Q(u) sums and products recur within a build's relation rows and a
# centre's commutators.  Each distinct one is normalised once while it stays in
# a small LRU memo per operation, keyed on the canonical tuples; the results
# are shared, which RatF's immutability allows.  The repeats are close
# together: 256 entries were as fast as an unbounded memo on the deformation
# suite at degree 5, and larger memos mostly add resident memory.
MEMO_SIZE = 256
_TRIVIAL = ((), (1,), (-1,))


@lru_cache(maxsize=MEMO_SIZE)
def _ratf_add(n1, d1, n2, d2):
    if d1 == d2:
        return RatF(_padd(n1, n2), d1)
    return RatF(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))


@lru_cache(maxsize=MEMO_SIZE)
def _ratf_sub(n1, d1, n2, d2):
    if d1 == d2:
        return RatF(_psub(n1, n2), d1)
    return RatF(_psub(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))


@lru_cache(maxsize=MEMO_SIZE)
def _ratf_mul(n1, d1, n2, d2):
    return RatF(_pmul(n1, n2), _pmul(d1, d2))


def _horner(a, c):
    acc = 0
    for x in reversed(a):
        acc = acc * c + x
    return acc


# ---------------------------------------------------------------------------
# multivariate polynomials (for generic Gram determinants)


class MultiPoly:
    """Sparse polynomial in several variables over a Field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in terms.items():
                if not field.is_zero(c):
                    t[e] = c
        self.terms = t

    @classmethod
    def gen(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(f, self.nvars, out)

    def __neg__(self):
        f = self.field
        return MultiPoly(f, self.nvars, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(e, f.zero), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(f, self.nvars, out)

    def scale(self, c):
        f = self.field
        return MultiPoly(f, self.nvars, {e: f.mul(v, c) for e, v in self.terms.items()})

    def eval(self, point):
        f = self.field
        acc = f.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                for _ in range(k):
                    v = f.mul(v, point[i])
            acc = f.add(acc, v)
        return acc


# ---------------------------------------------------------------------------
# the three fields


class Field:
    """The payload arithmetic: Python's operators, which keep Q and Q(u) payloads canonical.

    A canonical payload is falsy exactly at zero, and canonical payloads
    compare with ==.  PrimeField overrides the arithmetic to reduce mod p.
    """

    tag = "?"
    p = None  # the prime of F_p; Q and Q(u) payloads need no reduction

    def convert(self, c):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return not a

    def post_reduce(self, d: dict) -> dict:
        """Normalize a sparse vector accumulated with raw payload ops, into a new dict."""
        return {k: v for k, v in d.items() if v}

    def __eq__(self, other):
        return isinstance(other, Field) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"Field({self.tag})"


class RationalField(Field):
    tag = "q"
    zero = 0
    one = 1

    def convert(self, c):
        if isinstance(c, int):  # before Fraction, whose isinstance check goes through the ABC machinery
            return c
        if isinstance(c, Fraction):
            return c.numerator if c.denominator == 1 else c
        raise FieldMismatchError(f"cannot interpret {c!r} as a rational")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return self.convert(Fraction(1, a))

    def parse(self, s: str):
        t = s.strip()
        digits = t[1:] if t.startswith("-") else t
        if digits.isascii() and digits.isdigit():  # cached integers skip Fraction's regex
            return int(t)
        try:
            # Fraction builds 10**exponent first, which can take hours; refuse a value too long to print
            _, is_exp, exponent = t.lower().partition("e")
            limit = int_digit_limit()
            if is_exp and limit and abs(int(exponent)) + len(t) > limit:
                raise ValueError(f"more than {limit} digits")
            return self.convert(Fraction(t))
        except (ValueError, ZeroDivisionError) as e:
            raise ScalarSyntaxError(f"bad rational {s!r}") from e

    def fmt(self, a) -> str:
        return str(a)


class PrimeField(Field):
    """F_p with int payloads kept reduced to [0, p)."""

    _cache: dict = {}

    def __new__(cls, p):
        inst = cls._cache.get(p)
        if inst is None:
            if not isinstance(p, int) or not 2 <= p < 2**31:
                raise ValueError(f"modulus out of range: {p}")
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
            inst = super().__new__(cls)
            inst.p = p
            inst.tag = f"fp:{p}"
            inst.zero = 0
            inst.one = 1 % p
            cls._cache[p] = inst
        return inst

    def convert(self, c):
        if isinstance(c, int):
            return c % self.p
        if isinstance(c, Fraction):
            if c.denominator % self.p == 0:
                raise BadReductionError(f"denominator of {c} divisible by {self.p}")
            return c.numerator * pow(c.denominator % self.p, -1, self.p) % self.p
        raise FieldMismatchError(f"cannot interpret {c!r} in F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def post_reduce(self, d: dict) -> dict:
        p = self.p
        out = {}
        for k, v in d.items():
            v %= p
            if v:
                out[k] = v
        return out

    def parse(self, s: str):
        s = s.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            try:
                return int(a) * self.inv(int(b)) % self.p
            except (ValueError, ZeroDivisionError) as e:
                raise ScalarSyntaxError(f"bad residue {s!r}") from e
        try:
            return int(s) % self.p
        except ValueError as e:
            raise ScalarSyntaxError(f"bad residue {s!r}") from e

    def fmt(self, a) -> str:
        return str(a % self.p)


class RationalFunctionField(Field):
    tag = "qu"

    def __init__(self):
        self.zero = RatF.const(0)
        self.one = RatF.const(1)

    def convert(self, c):
        if isinstance(c, RatF):
            return c
        if isinstance(c, (int, Fraction)):
            return RatF.const(Fraction(c))
        raise FieldMismatchError(f"cannot interpret {c!r} in Q(u)")

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in Q(u)")
        if a.n[-1] < 0:
            return RatF._canonical(tuple(-c for c in a.d), tuple(-c for c in a.n))
        return RatF._canonical(a.d, a.n)

    def parse(self, s: str):
        return _parse_qu(s)

    def fmt(self, a) -> str:
        """Numerator and denominator over Q with a monic denominator."""
        lc = a.d[-1]
        if a.is_poly():
            return _poly_str(a.n, lc)
        return f"({_poly_str(a.n, lc)})/({_poly_str(a.d, lc)})"


QQ = RationalField()
QU = RationalFunctionField()


def FP(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_descriptor(desc: str) -> Field:
    """Descriptor strings: 'q', 'fp:<p>', 'qu'."""
    d = desc.strip().lower()
    if d == "q":
        return QQ
    if d == "qu":
        return QU
    if d.startswith("fp:"):
        try:
            p = int(d[3:])
        except ValueError as e:
            raise InputError(f"bad field descriptor {desc!r}") from e
        try:
            return PrimeField(p)
        except ValueError as e:  # not prime, or out of range
            raise InputError(str(e)) from e
    raise InputError(f"bad field descriptor {desc!r}")


# ---------------------------------------------------------------------------
# expression parser for Q(u) scalar strings


class _Tok:
    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def peek(self):
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1
        if self.i >= len(self.s):
            return None
        c = self.s[self.i]
        if c.isdigit():
            j = self.i
            while j < len(self.s) and self.s[j].isdigit():
                j += 1
            return self.s[self.i : j]
        return c

    def take(self):
        t = self.peek()
        if t is not None:
            self.i += len(t)
        return t


# A parsed Q(u) scalar keeps u-degree MAX_EXPONENT and coefficients Python can
# print: each power, product, quotient and sum is checked before it is
# multiplied out, since arithmetic past them takes seconds to hours.  Cached
# Q(u) constants reach u-degree 8, and u^1000 parses in tens of milliseconds.
MAX_EXPONENT = 1000


def _qu_size(v):
    """(u-degree, bit length of the larger coefficient sum) of v's numerator and denominator."""
    return max(len(v.n), len(v.d)) - 1, max(sum(map(abs, p)).bit_length() for p in (v.n, v.d))


def _qu_check(deg, bits):
    """Refuse a value whose polynomials may reach u-degree deg and coefficient sums 2^bits.

    Cancelling a factor grows a coefficient at most 2^deg times (Mignotte's bound).
    """
    if deg > MAX_EXPONENT:
        raise ScalarSyntaxError(f"u-degree above {MAX_EXPONENT} in scalar string")
    limit = int_digit_limit()
    if limit and deg + bits > 3.32 * limit:  # 2^(3.32 limit) < 10^limit
        raise ScalarSyntaxError(f"a coefficient may pass {limit} digits in scalar string")


def _qu_op(op, a, b):
    """op(a, b) for op one of + - * /, refused before it is computed if it may pass the bounds."""
    (da, ba), (db, bb) = _qu_size(a), _qu_size(b)
    shared = op in (operator.add, operator.sub) and a.d == b.d  # the numerators' sum over a.d
    _qu_check(max(da, db) if shared else da + db, (max(ba, bb) if shared else ba + bb) + 1)
    return op(a, b)


def _parse_qu(s: str) -> RatF:
    tk = _Tok(s)
    v = _qu_expr(tk)
    if tk.peek() is not None:
        raise ScalarSyntaxError(f"trailing input in scalar {s!r}")
    return v


def _qu_expr(tk) -> RatF:
    t = tk.peek()
    neg = False
    if t in ("+", "-"):
        tk.take()
        neg = t == "-"
    v = _qu_term(tk)
    if neg:
        v = -v
    while True:
        t = tk.peek()
        if t == "+":
            tk.take()
            v = _qu_op(operator.add, v, _qu_term(tk))
        elif t == "-":
            tk.take()
            v = _qu_op(operator.sub, v, _qu_term(tk))
        else:
            return v


def _qu_term(tk) -> RatF:
    v = _qu_factor(tk)
    while True:
        t = tk.peek()
        if t == "*":
            tk.take()
            v = _qu_op(operator.mul, v, _qu_factor(tk))
        elif t == "/":
            tk.take()
            d = _qu_factor(tk)
            if not d:
                raise ScalarSyntaxError("division by zero in scalar string")
            v = _qu_op(operator.truediv, v, d)
        else:
            return v


def _qu_factor(tk) -> RatF:
    v = _qu_atom(tk)
    if tk.peek() == "^":
        tk.take()
        t = tk.take()
        neg = False
        if t == "-":
            neg = True
            t = tk.take()
        if t is None or not t.isdigit():
            raise ScalarSyntaxError("exponent must be an integer")
        k = int(t)
        if k > MAX_EXPONENT:
            raise ScalarSyntaxError(f"exponent {k} is above {MAX_EXPONENT}")
        deg, bits = _qu_size(v)
        _qu_check(k * deg, k * bits)
        out = RatF.const(1)
        for _ in range(k):
            out = out * v
        if neg:
            if not out:
                raise ScalarSyntaxError("zero to a negative power")
            out = QU.inv(out)
        return out
    return v


def _qu_atom(tk) -> RatF:
    t = tk.take()
    if t is None:
        raise ScalarSyntaxError("unexpected end of scalar string")
    if t == "(":
        v = _qu_expr(tk)
        if tk.take() != ")":
            raise ScalarSyntaxError("unbalanced parentheses in scalar string")
        return v
    if t == "u":
        return RatF.gen()
    if t == "-":
        return -_qu_atom(tk)
    if t.isdigit():
        return RatF.const(int(t))
    raise ScalarSyntaxError(f"unexpected token {t!r} in scalar string")
