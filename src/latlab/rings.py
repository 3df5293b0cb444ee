"""Ring integers Z and Z[sqrt(m)], the layer every exact integer path runs on.

:func:`to_ring` is the one way in: it clears the denominators of field values
(Fractions and :class:`latlab.scalars.QuadScalar`) and returns the ring they
landed in, :class:`IntRing` or :class:`QuadIntRing`, whose ``exact_div``,
``nearest`` and ``quotient`` every caller then uses instead of deciding the
ring again.  Over Z the elements are Python ints.  Over Z[sqrt(m)] they are
:class:`QuadInt`: two ints and the ring's m, whose sums and products are
plain int arithmetic.  A QuadScalar result is built without validation too,
but it still normalises one Fraction per coordinate (a gcd) and dispatches on
its operands' types and fields; a QuadInt does neither.
Its sign, order, ``==``, ``hash`` and conjugation are those of the base it
shares with QuadScalar, ``scalars._Quad``; only its comparison reads the int
difference inline.  A QuadInt never leaves this layer: ``quotient`` (and
``lift``) turn it back into a QuadScalar, and it neither equals nor combines
with one.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import (_NO_ORDER, QuadScalar, _floor_mul_sqrt, _int_le_sqrt, _Quad,
                      _scalar, denominator_lcm, quadratic_field_of, validate_field_param)


class QuadInt(_Quad):
    """An element a + b*sqrt(m) of Z[sqrt(m)]: int coordinates, and the m of
    its ring.  It adds, subtracts and multiplies with ints and with elements
    of its own ring (elements of two rings are never mixed here, and are not
    checked for it); the rest is the base it shares with QuadScalar."""

    __slots__ = ()
    _RATIONALS = (int,)

    def __init__(self, a: int, b: int, m: int):
        self.a = a
        self.b = b
        self.m = m

    def __add__(self, other):
        if type(other) is QuadInt:
            return QuadInt(self.a + other.a, self.b + other.b, self.m)
        if type(other) is int:
            return QuadInt(self.a + other, self.b, self.m)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is QuadInt:
            return QuadInt(self.a - other.a, self.b - other.b, self.m)
        if type(other) is int:
            return QuadInt(self.a - other, self.b, self.m)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return QuadInt(other - self.a, -self.b, self.m)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is QuadInt:
            a, b, oa, ob = self.a, self.b, other.a, other.b
            return QuadInt(a * oa + b * ob * self.m, a * ob + b * oa, self.m)
        if type(other) is int:
            return QuadInt(self.a * other, self.b * other, self.m)
        return NotImplemented

    __rmul__ = __mul__

    def _cmp(self, other):
        """The sign of self - other, or NotImplemented.  It reads the int
        difference inline and builds no element: the search over Z[sqrt(m)]
        compares at every node."""
        if type(other) is QuadInt:
            a, b = self.a - other.a, self.b - other.b
        elif type(other) is int:
            a, b = self.a - other, self.b
        else:
            return NotImplemented
        if not b:
            return (a > 0) - (a < 0)
        if self.m < 0:
            raise ValueError(_NO_ORDER % self.m)
        # a + b*sqrt(m) > 0 iff -a <= b*sqrt(m), never equal for b != 0
        return 1 if _int_le_sqrt(-a, b, self.m) else -1

    def __repr__(self):
        return "QuadInt(%d, %d, %d)" % (self.a, self.b, self.m)


class IntRing:
    """Rational-integer coefficients; native Python int arithmetic."""

    m = None
    zero = 0
    one = 1
    exact_div = staticmethod(operator.floordiv)
    # x / d back in Q, a Fraction
    quotient = staticmethod(Fraction)

    @staticmethod
    def lift(x):
        """x as a value of Q: an int already is one."""
        return x

    @staticmethod
    def nearest(num, den):
        """Nearest integer to num/den for den > 0 (ties round up)."""
        return (2 * num + den) // (2 * den)


class QuadIntRing:
    """Coefficients in Z[sqrt(m)], :class:`QuadInt` elements.  ``nearest``
    needs the positive-root embedding, m > 1; the other operations hold in
    imaginary fields too."""

    def __init__(self, m: int):
        self.m = validate_field_param(m)
        self.zero = QuadInt(0, 0, m)
        self.one = QuadInt(1, 0, m)

    def exact_div(self, x: QuadInt, y: QuadInt) -> QuadInt:
        """x / y in Z[sqrt(m)] when the quotient is known to lie there:
        x * conj(y) / norm(y), with integer division of each coordinate."""
        m = self.m
        norm = y.a * y.a - m * y.b * y.b
        return QuadInt((x.a * y.a - m * x.b * y.b) // norm,
                       (x.b * y.a - x.a * y.b) // norm, m)

    def lift(self, x: QuadInt) -> QuadScalar:
        """x as a value of Q(sqrt(m)): the QuadScalar of its coordinates."""
        return _scalar(x.a, x.b, self.m)

    def quotient(self, x: QuadInt, d) -> QuadScalar:
        """x / d back in Q(sqrt(m)), a QuadScalar; d an int or a QuadInt.
        A rational d divides each coordinate once; only an irrational d
        takes the field division."""
        if type(d) is QuadInt:
            if d.b:
                return self.lift(x) / self.lift(d)
            d = d.a
        return _scalar(Fraction(x.a, d), Fraction(x.b, d), self.m)

    def nearest(self, num: QuadInt, den: QuadInt) -> int:
        """Nearest integer to num/den for den > 0 (ties round up): with
        num/den = (p + q*sqrt(m))/r, the floor of (2p + r + 2q*sqrt(m))/(2r),
        one integer floor division (:meth:`_floor_ratio`)."""
        m = self.m
        # rationalize: num/den = (p + q*sqrt(m)) / r with integer p, q, r > 0
        p = num.a * den.a - num.b * den.b * m
        q = num.b * den.a - num.a * den.b
        r = den.a * den.a - den.b * den.b * m
        if r < 0:
            p, q, r = -p, -q, -r
        return self._floor_ratio(2 * p + r, 2 * q, 2 * r)

    def _floor_ratio(self, p: int, q: int, r: int) -> int:
        """floor((p + q*sqrt(m))/r) with r > 0, exact: it is
        (p + floor(q*sqrt(m))) // r, since floor(floor(y)/r) = floor(y/r)
        for every real y and integer r > 0, and :func:`_floor_mul_sqrt` is
        exactly floor(q*sqrt(m))."""
        return (p + _floor_mul_sqrt(q, self.m)) // r


def to_ring(values, m=None):
    """(ring, scale, entries): the ring integers Z or Z[sqrt(m)], scale =
    denominator_lcm(values), and every value times scale in that ring, as an
    int over Z or a :class:`QuadInt` over Z[sqrt(m)].

    ``m`` None takes the field of the irrational values, so the ring is Z
    when every value is rational (QuadScalars with b = 0 included).
    ValueError if two quadratic fields mix, or if a value does not lie in
    the given Q(sqrt(m)); TypeError for a value that is not an exact scalar.
    """
    values = list(values)
    if m is None:
        m = quadratic_field_of(values)
    scale = denominator_lcm(values)
    ring = IntRing if m is None else QuadIntRing(m)
    out = []
    for x in values:
        if isinstance(x, QuadScalar):
            a, b = x.a, x.b
            if b != 0 and x.m != m:
                raise ValueError("%s does not lie in Q(sqrt(%d))" % (x, m))
        else:
            a, b = x, 0
        a = a.numerator * (scale // a.denominator)
        if m is None:
            out.append(a)
        else:
            out.append(QuadInt(a, b.numerator * (scale // b.denominator), m))
    return ring, scale, out
