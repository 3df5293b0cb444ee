"""latlab.rings: QuadInt against QuadScalar on the same coordinates, and the
boundary rule that no public result is a ring element."""

import operator
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latlab import (
    DiagForm,
    EuclideanLattice,
    ExactMatrix,
    GroupSpec,
    NumberFieldDesc,
    adjoint_systole,
    covol_sq,
    gso,
    isotropic_search,
    systole_sq,
    uniformity_verdict,
)
from latlab.errors import BudgetExceededError
from latlab.rings import QuadInt, QuadIntRing
from latlab.scalars import QuadScalar

SRC = str(Path(__file__).resolve().parents[1] / "src")

_BIG = st.integers(-10**30, 10**30)
_SMALL = st.integers(-3, 3)
_COORD = st.one_of(_SMALL, _BIG)


@st.composite
def _operands(draw):
    """(m, (a, b), (c, d), k): two elements of Z[sqrt(m)] and an int, with
    coordinates up to 10^30 and small ones, so that ties, zeros and rational
    elements occur."""
    m = draw(st.sampled_from([2, 3, 5, 6, 7, 13]))
    return (m, (draw(_COORD), draw(_COORD)), (draw(_COORD), draw(_COORD)),
            draw(st.one_of(_SMALL, _BIG)))


def _same(ring_value, field_value):
    """A QuadInt result equals the QuadScalar one coordinate by coordinate."""
    return (type(ring_value) is QuadInt and type(field_value) is QuadScalar
            and (ring_value.a, ring_value.b, ring_value.m)
            == (field_value.a, field_value.b, field_value.m))


_ARITHMETIC = (operator.add, operator.sub, operator.mul)
_COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


@settings(max_examples=400, deadline=None)
@given(_operands())
@example((2, (0, 0), (0, 0), 0))
@example((3, (5, 0), (5, 0), 5))
@example((5, (1, 1), (1, -1), 0))
@example((13, (10**30, -10**30), (10**30 - 1, -10**30), -10**30))
def test_quad_int_matches_quad_scalar(case):
    m, (a, b), (c, d), k = case
    x, y = QuadInt(a, b, m), QuadInt(c, d, m)
    fx, fy = QuadScalar(a, b, m), QuadScalar(c, d, m)
    for op in _ARITHMETIC:
        assert _same(op(x, y), op(fx, fy))
        assert _same(op(x, k), op(fx, k))
        assert _same(op(k, x), op(k, fx))
    assert _same(-x, -fx)
    assert _same(x.conjugate(), fx.conjugate())
    assert x.sign() == fx.sign()
    for op in _COMPARISONS:
        assert op(x, y) == op(fx, fy)
        assert op(x, k) == op(fx, k)
        assert op(k, x) == op(k, fx)
    assert hash(x) == hash(fx) and bool(x) == bool(fx)
    assert x == QuadInt(a, b, m) and hash(x) == hash(QuadInt(a, b, m))


@settings(max_examples=400, deadline=None)
@given(_operands())
@example((2, (3, 2), (2, 0), 0))             # (3 + 2 sqrt 2)/2 = 2.91... -> 3
@example((5, (1, 0), (2, 0), 0))             # a tie, 1/2, rounds up
def test_ring_operations_match_the_field(case):
    m, (a, b), (c, d), k = case
    ring = QuadIntRing(m)
    x, y = QuadInt(a, b, m), QuadInt(c, d, m)
    fx, fy = QuadScalar(a, b, m), QuadScalar(c, d, m)
    assert repr(ring.lift(x)) == repr(fx) and ring.zero == 0 and ring.one == 1
    if k:
        assert ring.quotient(x, k) == fx / k
    if not y:
        return
    assert ring.exact_div(x * y, y) == x
    assert ring.quotient(x, y) == fx / fy
    # nearest(x, den) for den > 0 is the integer z with z <= x/den + 1/2 < z + 1
    den, fden = (y, fy) if fy > 0 else (-y, -fy)
    z = ring.nearest(x, den)
    shifted = fx / fden + Fraction(1, 2)
    assert type(z) is int and z <= shifted < z + 1


# a nonzero divisor: an int (negative too), a rational QuadInt (c, 0) or an
# irrational one (c, d != 0), as coordinates
_NONZERO = _COORD.filter(bool)
_DIVISORS = st.one_of(_NONZERO, st.tuples(_NONZERO, st.just(0)), st.tuples(_COORD, _NONZERO))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5]), _COORD, _COORD, _DIVISORS)
@example(2, 7, -3, -4)              # a negative int
@example(3, 10**30, 1, (-6, 0))     # a negative rational QuadInt
@example(5, 1, 1, (1, 1))           # an irrational one
def test_quotient_matches_the_field_division(m, a, b, d):
    """quotient(x, d) is lift(x) / lift(d) in value and in type: a rational
    divisor divides each coordinate once, an irrational one in the field."""
    ring = QuadIntRing(m)
    x = QuadInt(a, b, m)
    c, e = (d, 0) if type(d) is int else d
    if type(d) is tuple:
        d = QuadInt(c, e, m)
    assert repr(ring.quotient(x, d)) == repr(ring.lift(x) / QuadScalar(c, e, m))


def test_quotient_by_zero_raises():
    ring = QuadIntRing(2)
    for zero in (0, ring.zero):
        with pytest.raises(ZeroDivisionError):
            ring.quotient(QuadInt(1, 1, 2), zero)


def test_quad_int_ordering_in_an_imaginary_field():
    """Like QuadScalar, the order raises for an irrational element of an
    imaginary field and holds for a rational one."""
    i, fi = QuadInt(0, 1, -1), QuadScalar(0, 1, -1)
    for value in (i, fi):
        with pytest.raises(ValueError, match=r"imaginary field Q\(sqrt\(-1\)\)"):
            value.sign()
        with pytest.raises(ValueError, match=r"imaginary field"):
            value < 1
    assert QuadInt(2, 0, -1) > 1 and QuadInt(2, 0, -1).sign() == QuadScalar(2, 0, -1).sign()


def test_quad_int_does_not_meet_field_values():
    """A ring element never equals or combines with a QuadScalar or a
    Fraction: a value that leaked out of the ring layer shows as an error."""
    x, fx = QuadInt(1, 2, 2), QuadScalar(1, 2, 2)
    assert x != fx and fx != x and QuadInt(1, 0, 2) != Fraction(1)
    for other in (fx, Fraction(1, 2)):
        for op in _ARITHMETIC:
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        with pytest.raises(TypeError):
            x < other


# -- no public result is a ring element ------------------------------------------


def _leaks(value):
    """The ring elements in a public result, looked for through containers,
    matrices, verdicts and adjoint systoles."""
    if type(value) is QuadInt:
        return [value]
    if isinstance(value, (int, Fraction, QuadScalar, str, type(None))):
        return []
    if isinstance(value, ExactMatrix):
        return _leaks(value.data)
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _leaks(v)]
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return [x for name in slots for x in _leaks(getattr(value, name))]
    raise AssertionError("unexpected result type %r" % (value,))


K2 = NumberFieldDesc(m=2)
R2, R5 = QuadScalar(0, 1, 2), QuadScalar(0, 1, 5)


def _public_results():
    lattice = EuclideanLattice([[1 + R2, Fraction(1, 3)], [R2, 2 - R2]])
    lattice5 = EuclideanLattice([[R5, 1, 0], [2, R5 - 1, 1], [0, 1, 3 + R5]])
    matrix = ExactMatrix.from_rows([[R2, 1, Fraction(1, 2)], [1, R2, 0], [2, 0, 1 + R2]])
    rational_quad = ExactMatrix.from_rows([[QuadScalar(2, 0, 2), 1], [1, QuadScalar(3, 0, 2)]])
    verdict = uniformity_verdict(GroupSpec("SO", form=DiagForm([1, R2, -1 - R2], K2)), 3)
    binary = uniformity_verdict(GroupSpec("SO", form=DiagForm([1, -2], K2)))
    yield "systole", systole_sq(lattice)
    yield "systole over Z[sqrt 5]", systole_sq(lattice5)
    yield "gso", gso(lattice5)
    yield "covolume", covol_sq(lattice5)
    yield "det", matrix.det()
    yield "inv", matrix.inv()
    yield "solve", matrix.solve([1, R2, Fraction(1, 3)])
    yield "rational entries over Q(sqrt 2)", (rational_quad.det(), rational_quad.inv(),
                                              rational_quad.solve([1, 2]))
    yield "verdict", verdict
    yield "isotropic vector", isotropic_search(DiagForm([1, R2, -1 - R2], K2), 3)
    yield "binary verdict", binary
    yield "adjoint systole", adjoint_systole(
        ExactMatrix.from_rows([[1 + R2, 0], [0, R2 - 1]]), 2)
    with pytest.raises(BudgetExceededError) as cut:
        systole_sq(lattice5, node_budget=2)
    yield "budget error", (cut.value.best, cut.value.nodes, cut.value.budget)


def test_no_public_result_is_a_ring_element():
    results = list(_public_results())
    assert len(results) == 13
    verdict = dict(results)["verdict"]
    assert verdict.witness is not None and verdict.isotropic_vector is not None
    for name, value in results:
        assert _leaks(value) == [], name


# -- the isotropic search's tables under a memory limit ---------------------------


def _limit_address_space():
    limit = 300 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_isotropic_tables_past_the_budget_exit_3_under_a_memory_limit(tmp_path):
    """height 499 over Q(sqrt 2) needs 999^2 * 3 table entries, more than the
    default budget of 10^6: the search refuses before it builds them, so the
    call exits 3 with one line on stderr within 300 MB of address space."""
    doc = tmp_path / "so.json"
    doc.write_text('{"kind": "SO", "coeffs": ["1", "1", "-7"], "field": {"quad": 2}}')
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "latlab", "group", "verdict", str(doc),
                           "--height", "499"], env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limit_address_space)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
