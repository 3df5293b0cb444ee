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

A ring also holds what :mod:`latlab.groups` asks of its field Q or Q(sqrt(m)):
the name, the embeddings and which are real, typed scalars, square roots and
the height box of O_K; none of it is computed when the ring is built.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt

from .scalars import (_NO_ORDER, QuadScalar, _floor_mul_sqrt, _int_le_sqrt, _Quad,
                      _scalar, as_fraction, denominator_lcm, quadratic_field_of,
                      validate_field_param)


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
    field_name = "Q"
    embeddings = ("identity",)      # by index, named
    real_embeddings = (0,)
    typed = staticmethod(as_fraction)

    @staticmethod
    def lift(x):
        """x as a value of Q: an int already is one."""
        return x

    @staticmethod
    def nearest(num, den):
        """Nearest integer to num/den for den > 0 (ties round up)."""
        return (2 * num + den) // (2 * den)

    @staticmethod
    def height_box(coeffs, order):
        """:meth:`QuadIntRing.height_box` over Z: x = p, omega = 0, B = 0."""
        return ([(p, 0) for p in order], 0,
                [[(4 * c * p * p, 0) for p in order] for c in coeffs])

    @staticmethod
    def square_root(x: int, scale: int):
        r = _exact_isqrt(x)
        return None if r is None else Fraction(r, scale)


class QuadIntRing:
    """Coefficients in Z[sqrt(m)], :class:`QuadInt` elements.  ``nearest``
    needs the positive-root embedding, m > 1; the other operations hold in
    imaginary fields too."""

    def __init__(self, m: int):
        self.m = validate_field_param(m)
        self.zero = QuadInt(0, 0, m)
        self.one = QuadInt(1, 0, m)

    @property
    def field_name(self) -> str:
        return "Q(sqrt(%d))" % self.m

    @property
    def embeddings(self):
        return ("identity", "sqrt(%d) -> -sqrt(%d)" % (self.m, self.m))

    @property
    def real_embeddings(self):
        return (0, 1) if self.m > 0 else ()

    def typed(self, c) -> QuadScalar:
        """The scalar c as a value of Q(sqrt(m)); a QuadScalar passes as it is."""
        return c if isinstance(c, QuadScalar) else QuadScalar(Fraction(c), 0, self.m)

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
        A rational d divides each coordinate once, and an irrational one is
        made rational first: x / d = x conj(d) / N(d)."""
        if type(d) is QuadInt:
            if d.b:
                return self.quotient(x * d.conjugate(), d.a * d.a - self.m * d.b * d.b)
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

    def height_box(self, coeffs, order):
        """(box, omega, tables): x = p + q*omega in O_K = Z[omega] for p, q in
        ``order`` as pairs (p, q), omega = (1 + sqrt(m))/2 if m = 1 mod 4, else
        sqrt(m), and per c = e + f*sqrt(m) in ``coeffs`` the ints (A, B) of
        4*c*x^2 = A + B*sqrt(m): s*e + t*f*m, t*e + s*f for 4*x^2 = s + t*sqrt(m)."""
        m, half = self.m, self.m % 4 == 1
        box = [(p, q) for p in order for q in order]
        squares = [(u * u + w * w * m, 2 * u * w)
                   for u, w in (((2 * p + q, q) if half else (2 * p, 2 * q))
                                for p, q in box)]
        omega = _scalar(Fraction(1, 2), Fraction(1, 2), m) if half else _scalar(0, 1, m)
        return box, omega, [[(e * s + f * t * m, e * t + f * s) for s, t in squares]
                            for e, f in ((c.a, c.b) for c in coeffs)]

    def square_root(self, x: QuadInt, scale: int):
        """r with r * r == x / scale^2 (a Fraction when rational), or None.

        A root of x = A + B sqrt(m) is integral, so it lies in Z[sqrt(m)]
        ((u + v sqrt(m))/2 with u, v odd squares outside it).  For B = 0 it
        is sqrt(A) or sqrt(A/m) sqrt(m).  Else u^2 + m v^2 = A and 2uv = B,
        so A^2 - m B^2 = s^2 and (2u)^2 = 2 (A + s) or 2 (A - s)."""
        m, a, b = self.m, x.a, x.b
        if not b:
            r = _exact_isqrt(a)
            if r is not None:
                return Fraction(r, scale)
            r = None if a % m else _exact_isqrt(a // m)
            return None if r is None else _scalar(0, Fraction(r, scale), m)
        s = _exact_isqrt(a * a - m * b * b)
        if s is None:
            return None
        for t in (_exact_isqrt(2 * (a + s)), _exact_isqrt(2 * (a - s))):
            if t:   # t = 2u
                return _scalar(Fraction(t, 2 * scale), Fraction(b, t * scale), m)
        return None


def _exact_isqrt(n: int):
    """The nonnegative integer square root of n, or None."""
    r = isqrt(max(n, 0))
    return r if r * r == n else None


def _typed_field(values):
    """The m of the irrational values, else of the first QuadScalar, else None."""
    return quadratic_field_of(values) or next(
        (x.m for x in values if isinstance(x, QuadScalar)), None)


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
