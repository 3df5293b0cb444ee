"""Exact scalars: arbitrary-precision rationals and real quadratic irrationals.

Rationals are plain ``fractions.Fraction``.  An element of Q(sqrt(m)) is a
:class:`QuadScalar` ``a + b*sqrt(m)`` with rational ``a``, ``b`` and a fixed
squarefree ``m``.  For ``m > 0`` the designated real embedding sends
``sqrt(m)`` to the positive root, which makes the sign of every element
exactly decidable.  QuadScalar and the ring element ``rings.QuadInt`` share
one base, :class:`_Quad`, whose one sign rule clears the positive
denominators of a and b and decides on integers (:func:`_int_le_sqrt`); it
also holds their order, ``==``, ``hash`` and conjugation, and nothing here
touches floating point.

``QuadScalar(a, b, m)`` validates m and coerces a and b to int or Fraction.
``+``, ``-`` and ``*`` compute each coordinate of the result from the
operands' integer numerators and denominators and normalise it as one
Fraction, or keep it an int exactly where Python's own ``+`` and ``*`` on the
coordinates give one.  They, negation, conjugation, inverses, ``/`` and
``**`` build the result once with :func:`_scalar`, which skips validation and
coercion: an operand's m is already valid.

Exact integer work runs on the ring integers Z or Z[sqrt(m)] of these
fields, in :mod:`latlab.rings`; :func:`denominator_lcm` and
:func:`quadratic_field_of` are what it needs from here.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

Rational = Fraction

_TRIAL_DIVISION_BOUND = 10**6
# trial division up to 1e6 factors every integer of absolute value <= 1e12
_FACTOR_CAP = _TRIAL_DIVISION_BOUND**2


def factorize(n: int):
    """Prime factorization of n as (p, e) pairs, p ascending, for
    0 < |n| <= 1e12: there the cofactor left by trial division is 1 or prime."""
    n = abs(n)
    if not 0 < n <= _FACTOR_CAP:
        raise ValueError("cannot factor %d: trial division up to %d factors "
                         "only 0 < |n| <= %d" % (n, _TRIAL_DIVISION_BOUND, _FACTOR_CAP))
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def validate_field_param(m: int) -> int:
    """Check that m is a valid field parameter: squarefree, not 0 or 1."""
    if not isinstance(m, int):
        raise ValueError("field parameter must be an integer")
    if m in (0, 1):
        raise ValueError("field parameter must differ from 0 and 1")
    if any(e > 1 for _, e in factorize(m)):
        raise ValueError("field parameter %d is not squarefree" % m)
    return m


def _floor_mul_sqrt(b: int, m: int) -> int:
    """floor(b * sqrt(m)) for squarefree m > 1, exact: isqrt is exact, and
    sqrt(m) is irrational, so floor(-|b| sqrt(m)) = -isqrt(b^2 m) - 1."""
    if b == 0:
        return 0
    r = isqrt(b * b * m)
    return r if b > 0 else -r - 1


def _int_le_sqrt(u: int, b: int, m: int) -> bool:
    """Exact test u <= b*sqrt(m); equality cannot occur for b != 0."""
    if b == 0:
        return u <= 0
    if b > 0:
        return u <= 0 or u * u < b * b * m
    return u < 0 and u * u > b * b * m


_NO_ORDER = "ordering undefined in the imaginary field Q(sqrt(%d))"


class _Quad:
    """a + b*sqrt(m) with rational a, b: what :class:`QuadScalar` and
    :class:`latlab.rings.QuadInt` share.  The order is that of the real
    embedding sqrt(m) > 0, decided on integers by one rule, :meth:`sign`;
    the order operators read a ``_cmp`` hook, the sign of self - other.
    ``_RATIONALS`` are the rational types a subclass equals; values of two
    subclasses never compare equal."""

    __slots__ = ("a", "b", "m")

    def sign(self) -> int:
        """Exact sign at the designated real embedding (m > 0 or rational):
        that of the ints u + v*sqrt(m) got by clearing the positive
        denominators of a and b."""
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        if self.m < 0:
            raise ValueError(_NO_ORDER % self.m)
        u = a.numerator * b.denominator
        return 1 if _int_le_sqrt(-u, b.numerator * a.denominator, self.m) else -1

    def _cmp(self, other):
        """The sign of self - other."""
        return (self - other).sign()

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    def __eq__(self, other):
        if type(other) is type(self):
            return (self.a == other.a and self.b == other.b
                    and (not self.b or self.m == other.m))
        if isinstance(other, self._RATIONALS):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        # an int and a Fraction of equal value hash alike
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __bool__(self):
        return bool(self.a or self.b)

    @classmethod
    def _of(cls, a, b, m):
        """The element of coordinates known to be valid, for negation and
        conjugation; QuadScalar's skips __init__."""
        return cls(a, b, m)

    def __neg__(self):
        return self._of(-self.a, -self.b, self.m)

    def conjugate(self):
        """Image under the nontrivial field automorphism sqrt(m) -> -sqrt(m)."""
        return self._of(self.a, -self.b, self.m)


_new = object.__new__


def _scalar(a, b, m):
    """The QuadScalar a + b*sqrt(m) for int or Fraction a and b and an m
    that an operand was validated with: the one constructor of arithmetic
    results, which skips __init__."""
    x = _new(QuadScalar)
    x.a = a
    x.b = b
    x.m = m
    return x


def _plus(x, y, s):
    """x + s*y for s = 1 or -1 on int or Fraction x and y: an int exactly
    when both are ints.  Over one denominator it is one Fraction of the
    numerators' sum.  Over two it is Fraction's own sum, which cancels
    gcd(dx, dy) first and so never takes the gcd of the full cross products,
    the dearer step on large denominators."""
    if isinstance(x, int) and isinstance(y, int):
        return x + s * y
    d = x.denominator
    if d == y.denominator:
        return Fraction(x.numerator + s * y.numerator, d)
    return x + y if s > 0 else x - y


def _over_one_denominator(x, y):
    """(p, q, s) with x = p/s and y = q/s, s the lcm of the denominators of
    the int or Fraction x and y."""
    dx, dy = x.denominator, y.denominator
    if dx == dy:
        return x.numerator, y.numerator, dx
    s = lcm(dx, dy)
    return x.numerator * (s // dx), y.numerator * (s // dy), s


class QuadScalar(_Quad):
    """An exact element a + b*sqrt(m) of the quadratic field Q(sqrt(m)).
    Direct construction validates m and coerces a and b to int or Fraction.
    The results of arithmetic, negation and conjugation skip both:
    :func:`_scalar` builds them."""

    __slots__ = ()
    _RATIONALS = (int, Fraction)
    _of = staticmethod(_scalar)

    def __init__(self, a=0, b=0, m=None):
        if m is None:
            raise ValueError("QuadScalar requires the field parameter m")
        validate_field_param(m)
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if not isinstance(b, (int, Fraction)):
            b = Fraction(b)
        self.a = a
        self.b = b
        self.m = m

    # -- ring operations ---------------------------------------------------

    def _operand(self, other):
        """(a, b, m): the coordinates of other and the field of the result,
        or None for a value that is not an exact scalar.  A rational joins
        the field of the other operand; two irrational operands of two
        fields raise ValueError.  A rational self that joins other's field
        adds no zero b, so the result keeps the types of other's coordinates."""
        if isinstance(other, QuadScalar):
            if other.m == self.m or not other.b:
                return other.a, other.b, self.m
            if self.b:
                raise ValueError(
                    "cannot mix Q(sqrt(%d)) and Q(sqrt(%d))" % (self.m, other.m))
            return other.a, other.b, other.m
        if isinstance(other, (int, Fraction)):
            return other, 0, self.m
        return None

    def __add__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        a, b, m = op
        if m != self.m:
            return _scalar(self.a + a, b, m)
        return _scalar(_plus(self.a, a, 1), _plus(self.b, b, 1), m)

    __radd__ = __add__

    def __sub__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        a, b, m = op
        if m != self.m:
            return _scalar(self.a - a, -b, m)
        return _scalar(_plus(self.a, a, -1), _plus(self.b, b, -1), m)

    def __rsub__(self, other):
        # only a rational gets here: QuadScalar - QuadScalar is __sub__
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _scalar(_plus(other, self.a, -1), -self.b, self.m)

    def __mul__(self, other):
        op = self._operand(other)
        if op is None:
            return NotImplemented
        c, d, m = op
        a, b = self.a, self.b
        if m != self.m:
            return _scalar(a * c, a * d, m)
        if isinstance(a, int) and isinstance(b, int) and isinstance(c, int) \
                and isinstance(d, int):
            return _scalar(a * c + b * d * m, a * d + b * c, m)
        # (p + q*sqrt(m))/s times (p2 + q2*sqrt(m))/s2, each over the lcm of
        # its two denominators; one Fraction per result coordinate
        p, q, s = _over_one_denominator(a, b)
        p2, q2, s2 = _over_one_denominator(c, d)
        s *= s2
        return _scalar(Fraction(p * p2 + q * q2 * m, s), Fraction(p * q2 + q * p2, s), m)

    __rmul__ = __mul__

    def norm(self):
        """a^2 - m*b^2, the product with the conjugate (a rational)."""
        n = self.a * self.a - self.m * self.b * self.b
        return n if isinstance(n, Fraction) else Fraction(n)

    def trace(self):
        t = 2 * self.a
        return t if isinstance(t, Fraction) else Fraction(t)

    def inverse(self) -> "QuadScalar":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.m)
        return _scalar(Fraction(self.a) / n, Fraction(-self.b) / n, self.m)

    def __truediv__(self, other):
        if isinstance(other, QuadScalar):
            if other.b:
                return self * other.inverse()
            other = other.a
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            q = Fraction(other)
            return _scalar(self.a / q, self.b / q, self.m)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _scalar(1, 0, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- conversions ---------------------------------------------------------

    def __float__(self):
        if self.m < 0 and self.b != 0:
            raise ValueError("element of an imaginary field has no real value")
        return float(self.a) + float(self.b) * abs(self.m) ** 0.5

    def __repr__(self):
        return "QuadScalar(%r, %r, %d)" % (self.a, self.b, self.m)

    def __str__(self):
        return print_scalar(self)


def sign(x) -> int:
    """Exact sign of a scalar at the designated real embedding."""
    return x.sign() if isinstance(x, _Quad) else (x > 0) - (x < 0)


def conjugate(x):
    """Field conjugation sqrt(m) -> -sqrt(m); fixes rationals."""
    if isinstance(x, QuadScalar):
        return x.conjugate()
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError("not an exact scalar: %r" % (x,))


def as_fraction(x) -> Fraction:
    """The rational value of a scalar known to be rational."""
    if isinstance(x, QuadScalar):
        if x.b != 0:
            raise ValueError("%s is not rational" % x)
        return Fraction(x.a)
    return Fraction(x)


def promote_entry(entry):
    """An exact scalar as stored: ints become Fractions, Fractions and
    QuadScalars pass through; TypeError for anything else."""
    if isinstance(entry, int):
        return Fraction(entry)
    if isinstance(entry, (Fraction, QuadScalar)):
        return entry
    raise TypeError("entries must be exact scalars, got %r" % (entry,))


def denominator_lcm(values) -> int:
    """Least common multiple of the denominators of the rational parts of
    exact scalars (both a and b of a QuadScalar); multiplying every value by
    it lands in Z or Z[sqrt(m)]."""
    out = 1
    for x in values:
        if isinstance(x, QuadScalar):
            out = lcm(out, x.a.denominator, x.b.denominator)
        elif isinstance(x, (int, Fraction)):
            out = lcm(out, x.denominator)
        else:
            raise TypeError("not an exact scalar: %r" % (x,))
    return out


def quadratic_field_of(values):
    """The m of the values with a nonzero sqrt(m) part, or None when every
    value is rational; ValueError if two quadratic fields mix."""
    m = None
    for x in values:
        if isinstance(x, QuadScalar) and x.b != 0:
            if m is None:
                m = x.m
            elif x.m != m:
                raise ValueError("cannot mix Q(sqrt(%d)) and Q(sqrt(%d))" % (m, x.m))
    return m


# -- parsing / printing ------------------------------------------------------

_RAT_PART = r"[+-]?\d+(?:\s*/\s*\d+)?"
_RAT_RE = re.compile(r"^\s*(%s)\s*$" % _RAT_PART)
_QUAD_RE = re.compile(
    r"^\s*(%s)\s*([+-])\s*(%s)\s*\*\s*sqrt\(\s*([+-]?\d+)\s*\)\s*$"
    % (_RAT_PART, _RAT_PART)
)


def digit_limit(what: str) -> str:
    """The message for an integer longer than Python converts to or from
    text, sys.get_int_max_str_digits()."""
    return "%s has more than %d digits, latlab's limit per integer" % (
        what, sys.get_int_max_str_digits())


def _fraction_from_text(text: str) -> Fraction:
    num, _, den = re.sub(r"\s+", "", text).partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:          # the grammar matched digits: only their number raises
        raise ValueError(digit_limit("a scalar literal")) from None
    if den == 0:
        raise ValueError("denominator must be positive in %r" % text)
    return Fraction(num, den)


def parse_scalar(text: str, m: int | None = None):
    """Parse the exact scalar grammar; returns Fraction or QuadScalar.

    With a declared field ``m``, rational literals come back as QuadScalar
    with b = 0 so that homogeneous containers stay in one field.
    """
    if not isinstance(text, str):
        raise ValueError("scalar must be a string, got %r" % (text,))
    if m is not None:
        validate_field_param(m)
    match = _RAT_RE.match(text)
    if match:
        value = _fraction_from_text(match.group(1))
        if m is None:
            return value
        return QuadScalar(value, 0, m)
    match = _QUAD_RE.match(text)
    if match is None:
        raise ValueError("not a valid scalar literal: %r" % text)
    a_text, op, b_text, m_text = match.groups()
    m_lit = int(_fraction_from_text(m_text))     # under the same digit limit
    validate_field_param(m_lit)
    if m is not None and m_lit != m:
        raise ValueError(
            "scalar %r lives in Q(sqrt(%d)), declared field is Q(sqrt(%d))"
            % (text, m_lit, m)
        )
    a = _fraction_from_text(a_text)
    b = _fraction_from_text(b_text)
    if op == "-":
        b = -b
    return QuadScalar(a, b, m_lit)


def _print_fraction(x) -> str:
    try:
        return str(Fraction(x))         # "n" or "n/d", in lowest terms
    except ValueError:
        raise ValueError(digit_limit("the result")) from None


def print_scalar(x) -> str:
    """Print a scalar in the same grammar parse_scalar accepts (lowest terms)."""
    if isinstance(x, (int, Fraction)):
        return _print_fraction(x)
    if isinstance(x, QuadScalar):
        if x.b == 0:
            return _print_fraction(x.a)
        return "%s%s%s*sqrt(%d)" % (_print_fraction(x.a), "+" if x.b > 0 else "-",
                                    _print_fraction(abs(x.b)), x.m)
    raise TypeError("not an exact scalar: %r" % (x,))
