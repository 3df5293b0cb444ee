import math
import random
from fractions import Fraction

import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_quad_arith, oracle_quad_sign
from latlab import scalars
from latlab.rings import IntRing, QuadInt, QuadIntRing, to_ring
from latlab.scalars import (
    QuadScalar,
    conjugate,
    denominator_lcm,
    factorize,
    parse_scalar,
    print_scalar,
    quadratic_field_of,
    sign,
    validate_field_param,
)


def test_parse_rational():
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("-7") == Fraction(-7)
    assert parse_scalar("  4 / 6 ") == Fraction(2, 3)


def test_parse_quadratic_literals():
    x = parse_scalar("1/2+1/2*sqrt(5)")
    assert x == QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)
    y = parse_scalar("0-1*sqrt(2)")
    assert y == QuadScalar(0, -1, 2)


def test_parse_with_declared_field():
    x = parse_scalar("3/2", m=2)
    assert isinstance(x, QuadScalar) and x.b == 0 and x.m == 2
    with pytest.raises(ValueError):
        parse_scalar("1+1*sqrt(3)", m=2)


def test_parse_rejects_bad_field_params():
    with pytest.raises(ValueError):
        parse_scalar("1+1*sqrt(4)")
    with pytest.raises(ValueError):
        parse_scalar("1+1*sqrt(12)")
    with pytest.raises(ValueError):
        parse_scalar("1+1*sqrt(1)")
    with pytest.raises(ValueError):
        validate_field_param(18)


def test_factorize(rnd):
    assert factorize(1) == [] and factorize(-12) == [(2, 2), (3, 1)]
    # a prime just below the cap and a product of two primes near 1e6
    assert factorize(999999999989) == [(999999999989, 1)]
    assert factorize(999983 * 1000003) == [(999983, 1), (1000003, 1)]
    for _ in range(200):
        n = rnd.randint(2, 10**6)
        pairs = factorize(n)
        assert math.prod(p ** e for p, e in pairs) == n
        assert all(e >= 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
                   for p, e in pairs)
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
    for bad in (0, 10**12 + 1, -(10**12 + 1)):
        with pytest.raises(ValueError):
            factorize(bad)
    assert validate_field_param(-(999983 * 1000003)) == -(999983 * 1000003)
    with pytest.raises(ValueError):
        validate_field_param(999983 ** 2)


def test_parse_syntax_errors():
    for bad in ("", "sqrt(2)", "1+sqrt(2)", "3/0", "1/2/3", "2 + 2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_print_roundtrip(rnd):
    for _ in range(200):
        a = Fraction(rnd.randint(-30, 30), rnd.randint(1, 9))
        b = Fraction(rnd.randint(-30, 30), rnd.randint(1, 9))
        m = rnd.choice([2, 3, 5, -1, 13])
        x = QuadScalar(a, b, m)
        assert parse_scalar(print_scalar(x), m) == x
        assert parse_scalar(print_scalar(a)) == a


def test_sign_examples():
    assert sign(QuadScalar(1, -1, 2)) == -1
    assert sign(Fraction(0)) == 0
    assert sign(QuadScalar(3, -2, 2)) == 1
    assert sign(QuadScalar(0, 1, 5)) == 1
    assert sign(QuadScalar(0, -1, 5)) == -1


def test_sign_imaginary_rejected():
    with pytest.raises(ValueError):
        sign(QuadScalar(1, 1, -1))
    # rational elements of an imaginary field still have a sign
    assert sign(QuadScalar(-3, 0, -1)) == -1


def test_sign_matches_float_oracle():
    rnd = random.Random(11)
    for _ in range(10**4):
        m = rnd.choice([2, 3, 5, 7, 13])
        x = QuadScalar(Fraction(rnd.randint(-50, 50), rnd.randint(1, 20)),
                       Fraction(rnd.randint(-50, 50), rnd.randint(1, 20)), m)
        y = QuadScalar(Fraction(rnd.randint(-50, 50), rnd.randint(1, 20)),
                       Fraction(rnd.randint(-50, 50), rnd.randint(1, 20)), m)
        for value in (x + y, x * y):
            approx = float(value.a) + float(value.b) * math.sqrt(m)
            if abs(approx) > 1e-12:
                assert value.sign() == (1 if approx > 0 else -1)


def test_conjugate_examples():
    assert conjugate(QuadScalar(0, 1, 2)) == QuadScalar(0, -1, 2)
    assert conjugate(Fraction(5, 3)) == Fraction(5, 3)
    x = QuadScalar(1, 1, 5)
    assert conjugate(conjugate(x)) == x


def test_conjugate_is_ring_homomorphism(rnd):
    for _ in range(300):
        m = rnd.choice([2, 5, -1, 17])
        x = QuadScalar(Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)),
                       Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)), m)
        y = QuadScalar(Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)),
                       Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)), m)
        assert conjugate(x * y) == conjugate(x) * conjugate(y)
        assert conjugate(x + y) == conjugate(x) + conjugate(y)


def test_canonical_form_idempotent():
    x = parse_scalar("2/4+6/4*sqrt(5)")
    again = parse_scalar(print_scalar(x), 5)
    assert print_scalar(again) == print_scalar(x) == "1/2+3/2*sqrt(5)"


def test_field_mixing_rejected():
    with pytest.raises(ValueError):
        QuadScalar(0, 1, 2) + QuadScalar(0, 1, 3)
    # rationals embed into any field
    assert QuadScalar(2, 0, 2) + QuadScalar(1, 1, 3) == QuadScalar(3, 1, 3)


def test_rational_times_scalar_of_another_field():
    """A rational scalar of Q(sqrt 3) times an irrational one of Q(sqrt 5)
    is their product in Q(sqrt 5)."""
    product = QuadScalar(Fraction(2, 3), 0, 3) * QuadScalar(1, 2, 5)
    assert (product.a, product.b, product.m) == (Fraction(2, 3), Fraction(4, 3), 5)


_COORD = st.one_of(st.integers(-20, 20),
                   st.fractions(min_value=-20, max_value=20, max_denominator=6))
_QUAD = st.builds(QuadScalar, _COORD, st.one_of(st.just(0), _COORD),
                  st.sampled_from([2, 3, 5, -1]))


def _sum_outcome(op):
    """The coordinates and field of a result, or the ValueError's message."""
    try:
        r = op()
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(r, QuadScalar):
        return "quad", r.a, r.b, r.m
    return type(r).__name__, r


@settings(max_examples=300, deadline=None)
@given(_QUAD, st.one_of(_QUAD, st.integers(-20, 20), st.fractions(max_denominator=6)))
def test_sub_is_add_of_negation(x, y):
    # same coordinates and field, the same mixed-field error, and a rational
    # minuend adopts the subtrahend's field
    assert _sum_outcome(lambda: x - y) == _sum_outcome(lambda: x + (-y))


def test_sub_field_rules():
    assert _sum_outcome(lambda: QuadScalar(2, 0, 2) - QuadScalar(1, 1, 3)) == \
        ("quad", 1, -1, 3)
    assert _sum_outcome(lambda: QuadScalar(2, 1, 2) - QuadScalar(1, 0, 3)) == \
        ("quad", 1, 1, 2)
    with pytest.raises(ValueError, match="cannot mix"):
        QuadScalar(0, 1, 2) - QuadScalar(0, 1, 3)


def test_division_and_inverse():
    x = QuadScalar(1, 1, 2)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        QuadScalar(0, 0, 2).inverse()


def test_ordering_operators():
    assert QuadScalar(0, 1, 2) > 1
    assert QuadScalar(0, 1, 2) < Fraction(3, 2)
    assert QuadScalar(1, 1, 2) >= QuadScalar(1, 1, 2)


_HUGE = st.integers(-10**30, 10**30)
_BIG_RATIONAL = st.one_of(_HUGE, st.integers(-3, 3),
                          st.builds(Fraction, _HUGE, st.integers(1, 10**30)))
_ORDER = [(operator.lt, lambda s: s < 0), (operator.le, lambda s: s <= 0),
          (operator.gt, lambda s: s > 0), (operator.ge, lambda s: s >= 0),
          (operator.eq, lambda s: s == 0), (operator.ne, lambda s: s != 0)]
_FIELDS = [2, 3, 5, 13]


@st.composite
def _order_case(draw):
    """(m, x, y, (a, b)): x of Q(sqrt(m)) and y one of: a value of the same
    field, a rational QuadScalar of another field, an int or a Fraction;
    y - x is a + b*sqrt(m)."""
    m = draw(st.sampled_from(_FIELDS))
    a, b = draw(_BIG_RATIONAL), draw(st.one_of(_BIG_RATIONAL, st.just(0)))
    x = QuadScalar(a, b, m)
    kind = draw(st.sampled_from(["field", "other field", "rational"]))
    c = draw(_BIG_RATIONAL)
    if kind == "rational":
        return m, x, c, (c - a, -b)
    d = draw(_BIG_RATIONAL) if kind == "field" else 0
    y_m = m if kind == "field" else draw(st.sampled_from([k for k in _FIELDS if k != m]))
    return m, x, QuadScalar(c, d, y_m), (c - a, d - b)


@settings(max_examples=500, deadline=None)
@given(_order_case(), st.booleans())
@example((2, QuadScalar(1, -1, 2), 0, (-1, 1)), False)
@example((5, QuadScalar(Fraction(10**30, 10**30 - 1), 0, 5), QuadScalar(1, 0, 3),
          (Fraction(-1, 10**30 - 1), 0)), True)
def test_sign_and_order_match_the_fraction_oracle(case, swap):
    """sign() and the six comparisons, on either side of a rational value of
    another field, an int or a Fraction, agree with the sign by squaring
    Fractions."""
    m, x, y, (a, b) = case
    assert x.sign() == oracle_quad_sign(x.a, x.b, m)
    left, right, s = (y, x, oracle_quad_sign(a, b, m)) if swap else \
        (x, y, -oracle_quad_sign(a, b, m))
    for op, test in _ORDER:
        assert op(left, right) == test(s)


@given(_HUGE, _HUGE, st.sampled_from(_FIELDS))
def test_quad_scalar_hashes_like_the_quad_int(a, b, m):
    assert hash(QuadScalar(Fraction(a), Fraction(b), m)) == hash(QuadInt(a, b, m))


def test_order_against_another_type_raises():
    with pytest.raises(TypeError):
        QuadScalar(1, 1, 2) < object()


_ARITH_FIELDS = [2, 3, 5, 13, -1, -3]
_ARITH_COORD = st.one_of(st.integers(-3, 3), _HUGE, st.fractions(max_denominator=6),
                         st.builds(Fraction, _HUGE, st.integers(1, 10**30)))


@st.composite
def _arith_case(draw):
    """(x, y): x a QuadScalar with int or Fraction coordinates (b = int 0
    too); y a value of x's field, an int, a Fraction, a rational QuadScalar
    of another field or an irrational one."""
    m = draw(st.sampled_from(_ARITH_FIELDS))
    b = st.one_of(st.just(0), st.just(Fraction(0)), _ARITH_COORD)
    x = QuadScalar(draw(_ARITH_COORD), draw(b), m)
    kind = draw(st.sampled_from(["field", "int", "fraction", "rational", "other"]))
    if kind == "int":
        return x, draw(st.one_of(st.integers(-3, 3), _HUGE))
    if kind == "fraction":
        return x, draw(st.one_of(st.fractions(max_denominator=6),
                                 st.builds(Fraction, _HUGE, st.integers(1, 10**30))))
    y_m = m if kind == "field" else \
        draw(st.sampled_from([k for k in _ARITH_FIELDS if k != m]))
    y_b = st.sampled_from([0, Fraction(0)]) if kind == "rational" else b
    return x, QuadScalar(draw(_ARITH_COORD), draw(y_b), y_m)


def _repr_outcome(op):
    try:
        return repr(op())
    except (ValueError, ZeroDivisionError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@settings(max_examples=500, deadline=None)
@given(_arith_case())
@example((QuadScalar(Fraction(1), 0, 2), 2))
@example((QuadScalar(Fraction(3, 1), Fraction(0, 1), 2), 2))
@example((QuadScalar(Fraction(3, 1), 0, 2), QuadScalar(1, 1, 2)))
@example((QuadScalar(0, Fraction(0), 3), Fraction(0)))
@example((QuadScalar(Fraction(2, 3), 0, 5), QuadScalar(1, Fraction(-1, 2), 13)))
def test_arithmetic_matches_the_fraction_oracle(case):
    """+, -, *, / both ways round, ** (k = -2..3), negation and conjugation
    give the repr of the coordinate-wise int and Fraction formulas, so equal
    values and the same coordinate types (an int exactly where those
    formulas give one), or the same mixed-field or division-by-zero
    error."""
    x, y = case
    quad = isinstance(y, QuadScalar)
    checks = [(lambda: x + y, ("+", x, y)), (lambda: x - y, ("-", x, y)),
              (lambda: x * y, ("*", x, y)), (lambda: x / y, ("/", x, y)),
              (lambda: y + x, ("+", y, x) if quad else ("r+", x, y)),
              (lambda: y - x, ("-", y, x) if quad else ("r-", x, y)),
              (lambda: y * x, ("*", y, x) if quad else ("r*", x, y)),
              (lambda: y / x, ("/", y, x) if quad else ("r/", x, y)),
              (lambda: -x, ("neg", x)), (x.conjugate, ("conj", x))]
    checks += [(lambda k=k: x ** k, ("**", x, k)) for k in range(-2, 4)]
    if quad:
        checks += [(lambda: -y, ("neg", y)), (y.conjugate, ("conj", y))]
        checks += [(lambda k=k: y ** k, ("**", y, k)) for k in (-1, 2)]
    for op, args in checks:
        assert _repr_outcome(op) == _repr_outcome(lambda: oracle_quad_arith(*args))


def test_reflected_subtraction_of_a_non_scalar_names_minus():
    with pytest.raises(TypeError, match="for -: 'float' and 'QuadScalar'"):
        1.5 - QuadScalar(1, 1, 2)


def test_arithmetic_does_not_revalidate_the_field(monkeypatch):
    """Results of + - * /, inverses, powers, negation, conjugation and the
    ring lifts and quotients are built from operands whose m was validated
    when they were constructed, so none validates m again; QuadScalar(a, b,
    m) called directly still does."""
    ring = QuadIntRing(5)
    x, y = QuadScalar(Fraction(1, 2), 3, 5), QuadScalar(2, Fraction(-1, 3), 5)
    other = QuadScalar(Fraction(2, 3), 0, 3)
    calls = []

    def counted(m):
        calls.append(m)
        return validate_field_param(m)

    monkeypatch.setattr(scalars, "validate_field_param", counted)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x + 2,
               lambda: 2 + x, lambda: x - Fraction(1, 3), lambda: Fraction(1, 3) - x,
               lambda: x * 3, lambda: 3 * x, lambda: other * y, lambda: other - y,
               lambda: -x, x.conjugate, lambda: ring.lift(QuadInt(3, -1, 5)),
               lambda: ring.quotient(QuadInt(3, -1, 5), 4),
               lambda: ring.quotient(QuadInt(3, -1, 5), QuadInt(6, 0, 5)),
               lambda: x / 3, lambda: x / Fraction(2, 7), lambda: x / other,
               lambda: x / y, x.inverse, lambda: x ** -2, lambda: x ** 0,
               lambda: x ** 3, lambda: ring.quotient(QuadInt(3, -1, 5), QuadInt(6, 1, 5))):
        op()
    assert calls == []
    for m in (4, 1):
        with pytest.raises(ValueError):
            QuadScalar(1, 1, m)
    assert calls == [4, 1]


_FRAC = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _field_values(draw):
    """(m, values): values of Q (m None) or Q(sqrt(m)), m = 2 or 5, mixing
    ints, Fractions with denominators, QuadScalars with b = 0 of any field
    and (m given) irrational QuadScalars of Q(sqrt(m))."""
    m = draw(st.sampled_from([None, 2, 5]))
    kinds = [st.integers(-30, 30), _FRAC,
             st.builds(lambda a, k: QuadScalar(a, 0, k), _FRAC, st.sampled_from([2, 3, 5]))]
    if m is not None:
        kinds.append(st.builds(lambda a, b: QuadScalar(a, b, m), _FRAC,
                               _FRAC.filter(bool)))
    return m, draw(st.lists(st.one_of(kinds), max_size=8))


def _in_ring(entry, ring):
    if ring.m is None:
        return type(entry) is int
    return (type(entry) is QuadInt and entry.m == ring.m
            and type(entry.a) is int and type(entry.b) is int)


@settings(max_examples=300, deadline=None)
@given(_field_values())
@example((2, [Fraction(1, 2), QuadScalar(Fraction(1, 3), Fraction(1, 4), 2), 3,
              QuadScalar(Fraction(2, 5), 0, 7)]))
def test_to_ring_clears_denominators_into_the_ring(case):
    m, values = case
    ring, scale, entries = to_ring(values)
    assert ring.m == quadratic_field_of(values)
    assert scale == denominator_lcm(values) and len(entries) == len(values)
    # entries are ints exactly when the ring is Z, and quotient returns to the field
    assert all(_in_ring(e, ring) for e in entries)
    assert all(ring.quotient(e, scale) == v for e, v in zip(entries, values))
    if m is not None:
        # an explicit field: Z[sqrt(m)] even for rational values
        ring, scale, entries = to_ring(values, m)
        assert ring.m == m and scale == denominator_lcm(values)
        assert all(_in_ring(e, ring) and ring.quotient(e, scale) == v
                   for e, v in zip(entries, values))
        # a value outside the given field
        with pytest.raises(ValueError, match="does not lie in Q\\(sqrt\\(3\\)\\)"):
            to_ring(values + [QuadScalar(0, 1, m)], 3)
    # mixed fields raise, unless every other value is rational
    mixed = values + [QuadScalar(1, 1, 3)]
    if quadratic_field_of(values) is None:
        assert to_ring(mixed)[0].m == 3
    else:
        with pytest.raises(ValueError, match="cannot mix"):
            to_ring(mixed)


def test_to_ring_examples():
    half, r2 = Fraction(1, 2), QuadScalar(Fraction(1, 3), Fraction(1, 4), 2)
    values = [half, r2, 3, QuadScalar(Fraction(2, 5), 0, 7)]
    ring, scale, entries = to_ring(values)
    assert ring.m == 2 and scale == 60
    assert entries == [QuadInt(30, 0, 2), QuadInt(20, 15, 2),
                       QuadInt(180, 0, 2), QuadInt(24, 0, 2)]
    assert to_ring([half, 3, QuadScalar(Fraction(2, 5), 0, 7)]) == (IntRing, 10, [5, 30, 4])
    assert to_ring([]) == (IntRing, 1, [])
    with pytest.raises(TypeError):
        to_ring([0.5])


def _ring_element(m):
    small = st.integers(-50, 50)
    if m is None:
        return small
    return st.builds(lambda a, b: QuadInt(a, b, m), small, small)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([None, 2, 5, -1]).flatmap(
    lambda m: st.tuples(st.just(m), _ring_element(m), _ring_element(m).filter(bool))))
def test_exact_div_and_quotient_invert_products(case):
    m, x, y = case
    ring = IntRing if m is None else QuadIntRing(m)
    product = x * y
    assert ring.exact_div(product, y) == x
    assert ring.quotient(product, y) == ring.lift(x)
    assert _in_ring(ring.exact_div(product, y), ring)
