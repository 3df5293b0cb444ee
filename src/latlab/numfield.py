"""Quadratic number fields and signature computation.

Quadratic fields Q(sqrt(m)) get full exact arithmetic (rings of integers,
both monomorphisms, the trace-form lattice of the integer ring inside the
product of real embeddings).  General monic integer polynomials are admitted
for signature queries only: the number of real roots is counted exactly with
Sturm sequences over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .scalars import QuadScalar, sign, validate_field_param

if TYPE_CHECKING:
    from .euclid import EuclideanLattice


class NumberFieldDesc:
    """A quadratic field Q(sqrt(m)) or a monic integer polynomial (signature only)."""

    __slots__ = ("m", "minpoly", "degree")

    def __init__(self, m=None, minpoly=None):
        if (m is None) == (minpoly is None):
            raise ValueError("give exactly one of m and minpoly")
        if m is not None:
            validate_field_param(m)
            self.m = m
            self.minpoly = None
            self.degree = 2
        else:
            for c in minpoly:
                if not (type(c) is int
                        or isinstance(c, Fraction) and c.denominator == 1):
                    raise ValueError("minimal polynomial coefficients must be "
                                     "integers, got %r" % (c,))
            coeffs = [int(c) for c in minpoly]
            if len(coeffs) < 2:
                raise ValueError("minimal polynomial must have degree >= 1")
            if coeffs[-1] != 1:
                raise ValueError("minimal polynomial must be monic")
            if len(sturm_chain(coeffs)[-1]) > 1:
                raise ValueError("minimal polynomial must be squarefree")
            self.m = None
            self.minpoly = tuple(coeffs)
            self.degree = len(coeffs) - 1

    @property
    def is_quadratic(self) -> bool:
        return self.m is not None

    def __repr__(self):
        if self.is_quadratic:
            return "NumberFieldDesc(m=%d)" % self.m
        return "NumberFieldDesc(minpoly=%r)" % (list(self.minpoly),)


class IntegerRing:
    """Ring of integers Z[omega] of a quadratic field."""

    __slots__ = ("field", "omega", "omega_is_half")

    def __init__(self, field: NumberFieldDesc):
        if not field.is_quadratic:
            raise ValueError("rings of integers are computed for quadratic fields only")
        self.field = field
        m = field.m
        if m % 4 == 1:
            self.omega = QuadScalar(Fraction(1, 2), Fraction(1, 2), m)
            self.omega_is_half = True
        else:
            self.omega = QuadScalar(0, 1, m)
            self.omega_is_half = False

    @property
    def m(self) -> int:
        return self.field.m

    def coordinates(self, x):
        """(p, q) with x = p + q*omega, or None when x is not in the ring."""
        if isinstance(x, (int, Fraction)):
            a, b = Fraction(x), Fraction(0)
        elif isinstance(x, QuadScalar) and (x.b == 0 or x.m == self.m):
            a, b = Fraction(x.a), Fraction(x.b)
        else:
            return None
        q = b / self.omega.b
        p = a - q * self.omega.a
        if p.denominator != 1 or q.denominator != 1:
            return None
        return int(p), int(q)

    def contains(self, x) -> bool:
        """Membership of a field element in Z[omega]."""
        return self.coordinates(x) is not None

    def label(self) -> str:
        if self.omega_is_half:
            return "Z[(1+sqrt(%d))/2]" % self.m
        return "Z[sqrt(%d)]" % self.m

    def __repr__(self):
        return "IntegerRing(%s)" % self.label()


class Signature(NamedTuple):
    """Counts (r1, r2) of real monomorphisms and complex-conjugate pairs."""

    r1: int
    r2: int


def ring_of_integers(field: NumberFieldDesc) -> IntegerRing:
    """Z[sqrt(m)] or Z[(1+sqrt(m))/2] according to m mod 4."""
    return IntegerRing(field)


def signature_quad(m: int) -> Signature:
    """(2, 0) for a real quadratic field, (0, 1) for an imaginary one."""
    validate_field_param(m)
    return Signature(2, 0) if m > 0 else Signature(0, 1)


# -- polynomials over Q (ascending coefficient lists) ------------------------------


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p):
    return [Fraction(i) * p[i] for i in range(1, len(p))]


def _poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_rem(num, den):
    num = list(num)
    lead = den[-1]
    while len(num) >= len(den):
        factor = num[-1] / lead
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
        _poly_trim(num)
        if not num:
            break
    return num


def sturm_chain(p):
    """The Sturm sequence of a rational polynomial p.  Its last term is
    gcd(p, p') up to a unit, so it is constant exactly when p is squarefree."""
    chain = [list(p), _poly_deriv(p)]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain, x) -> int:
    signs = []
    for poly in chain:
        v = _poly_eval(poly, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(coeffs) -> int:
    """Exact number of real roots of a squarefree rational polynomial."""
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        raise ValueError("polynomial must have degree >= 1")
    bound = 1 + max(abs(c) for c in p[:-1]) / abs(p[-1])
    chain = sturm_chain(p)
    return _sign_variations(chain, -bound) - _sign_variations(chain, bound)


def signature_poly(minpoly) -> Signature:
    """Signature of the field defined by a monic squarefree integer polynomial."""
    return signature(NumberFieldDesc(minpoly=minpoly))


def signature(field: NumberFieldDesc) -> Signature:
    if field.is_quadratic:
        return signature_quad(field.m)
    r1 = count_real_roots(field.minpoly)
    return Signature(r1, (field.degree - r1) // 2)


# -- the trace-form lattice --------------------------------------------------------


def field_trace(x) -> Fraction:
    """Trace of a quadratic-field element: x plus its conjugate, = 2a."""
    if isinstance(x, QuadScalar):
        return x.trace()
    return Fraction(2) * Fraction(x)


def field_norm(x) -> Fraction:
    """Norm of a quadratic-field element: x times its conjugate, = a^2 - m b^2."""
    if isinstance(x, QuadScalar):
        return x.norm()
    return Fraction(x) * Fraction(x)


def minkowski_lattice(ring: IntegerRing) -> EuclideanLattice:
    """Image of Z[omega] under x -> (x, conjugate(x)) in R x R (m > 0 only).

    The Gram matrix is the exact trace form Tr(w_i w_j); its determinant is
    the field discriminant.
    """
    if ring.m < 0:
        raise ValueError(
            "no canonical exact Gram convention for imaginary quadratic fields"
        )
    from . import euclid

    one = QuadScalar(1, 0, ring.m)
    omega = ring.omega
    basis = [
        (one, one.conjugate()),
        (omega, omega.conjugate()),
    ]
    return euclid.EuclideanLattice(basis)


def o_discreteness_check(ring: IntegerRing, node_budget=None):
    """Systole^2 of the trace-form lattice; positive because the form is PD."""
    from . import euclid

    lattice = minkowski_lattice(ring)
    value, _ = euclid.systole_sq(lattice, node_budget)
    if not sign(value) > 0:
        raise AssertionError("trace form produced a nonpositive minimum")
    return value
