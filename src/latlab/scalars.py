"""Exact scalars: arbitrary-precision rationals and real quadratic irrationals.

Rationals are plain ``fractions.Fraction``.  An element of Q(sqrt(m)) is a
:class:`QuadScalar` ``a + b*sqrt(m)`` with rational ``a``, ``b`` and a fixed
squarefree ``m``.  For ``m > 0`` the designated real embedding sends
``sqrt(m)`` to the positive root, which makes the sign of every element
exactly decidable; all comparisons below go through that sign computation and
never touch floating point.

Exact integer work runs on the ring integers Z or Z[sqrt(m)] of these
fields, in :mod:`latlab.rings`; :func:`denominator_lcm` and
:func:`quadratic_field_of` are what it needs from here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

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


def _sign_of_rational(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class QuadScalar:
    """An exact element a + b*sqrt(m) of the quadratic field Q(sqrt(m))."""

    __slots__ = ("a", "b", "m")

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

    # -- field bookkeeping ------------------------------------------------

    def _pair_of(self, other):
        """Coerce other into (a, b) coordinates of this field, or None."""
        if isinstance(other, QuadScalar):
            if other.m == self.m or other.b == 0:
                return other.a, other.b
            if self.b == 0:
                # self is rational: adopt the other field
                return None  # handled by caller via reflected op
            raise ValueError(
                "cannot mix Q(sqrt(%d)) and Q(sqrt(%d))" % (self.m, other.m)
            )
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        pair = self._pair_of(other)
        if pair is None:
            if isinstance(other, QuadScalar) and self.b == 0:
                return QuadScalar(self.a + other.a, other.b, other.m)
            return NotImplemented
        return QuadScalar(self.a + pair[0], self.b + pair[1], self.m)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.m)

    def __sub__(self, other):
        pair = self._pair_of(other)
        if pair is None:
            if isinstance(other, QuadScalar) and self.b == 0:
                return QuadScalar(self.a - other.a, -other.b, other.m)
            return NotImplemented
        return QuadScalar(self.a - pair[0], self.b - pair[1], self.m)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair_of(other)
        if pair is None:
            if isinstance(other, QuadScalar) and self.b == 0:
                return QuadScalar(self.a * other.a, self.a * other.b, other.m)
            return NotImplemented
        oa, ob = pair
        return QuadScalar(
            self.a * oa + self.b * ob * self.m,
            self.a * ob + self.b * oa,
            self.m,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadScalar":
        """Image under the nontrivial field automorphism sqrt(m) -> -sqrt(m)."""
        return QuadScalar(self.a, -self.b, self.m)

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
        return QuadScalar(Fraction(self.a) / n, Fraction(-self.b) / n, self.m)

    def __truediv__(self, other):
        if isinstance(other, QuadScalar):
            if other.b == 0:
                other = other.a
            else:
                return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            q = Fraction(other)
            return QuadScalar(self.a / q, self.b / q, self.m)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadScalar(1, 0, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign at the designated real embedding (m > 0 or rational)."""
        if self.b == 0:
            return _sign_of_rational(self.a)
        if self.m < 0:
            raise ValueError(
                "ordering undefined in the imaginary field Q(sqrt(%d))" % self.m
            )
        sa = _sign_of_rational(self.a)
        sb = _sign_of_rational(self.b)
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # a and b of opposite (nonzero) signs: compare a^2 against m*b^2;
        # equality is impossible because sqrt(m) is irrational
        if self.a * self.a > self.m * self.b * self.b:
            return sa
        return sb

    def _cmp_sign(self, other) -> int:
        diff = self - other
        if isinstance(diff, QuadScalar):
            return diff.sign()
        return _sign_of_rational(diff)

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.m == other.m and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a))
        return hash((Fraction(self.a), Fraction(self.b), self.m))

    def __bool__(self):
        return self.a != 0 or self.b != 0

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
    if isinstance(x, QuadScalar):
        return x.sign()
    return _sign_of_rational(x)


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


def _fraction_from_text(text: str) -> Fraction:
    compact = re.sub(r"\s+", "", text)
    if "/" in compact:
        num, den = compact.split("/")
        if int(den) == 0:
            raise ValueError("denominator must be positive in %r" % text)
        return Fraction(int(num), int(den))
    return Fraction(int(compact))


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
    m_lit = int(m_text)
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


def _print_fraction(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def print_scalar(x) -> str:
    """Print a scalar in the same grammar parse_scalar accepts (lowest terms)."""
    if isinstance(x, (int, Fraction)):
        return _print_fraction(Fraction(x))
    if isinstance(x, QuadScalar):
        if x.b == 0:
            return _print_fraction(Fraction(x.a))
        b = Fraction(x.b)
        op = "+" if b > 0 else "-"
        return "%s%s%s*sqrt(%d)" % (
            _print_fraction(Fraction(x.a)),
            op,
            _print_fraction(abs(b)),
            x.m,
        )
    raise TypeError("not an exact scalar: %r" % (x,))
