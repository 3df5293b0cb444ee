from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latlab.matrices import ExactMatrix, fraction_free_adjugate
from latlab.scalars import QuadScalar


def test_det_examples():
    assert ExactMatrix.identity(3).det() == 1
    assert ExactMatrix.from_rows([[2, 0], [1, 1]]).det() == 2
    assert ExactMatrix.from_rows([[0, 2], [1, 0]]).det() == -2


def test_inverse_roundtrip():
    m = ExactMatrix.from_rows([[2, 1], [1, 1]])
    assert (m * m.inv()).is_identity()
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [2, 4]]).inv()


def test_singular_det_is_zero():
    assert ExactMatrix.from_rows([[1, 2], [2, 4]]).det() == 0


def test_det_multiplicative_on_random_4x4(rnd):
    for _ in range(60):
        a = ExactMatrix.from_rows(
            [[Fraction(rnd.randint(-6, 6), rnd.randint(1, 3)) for _ in range(4)]
             for _ in range(4)])
        b = ExactMatrix.from_rows(
            [[Fraction(rnd.randint(-6, 6), rnd.randint(1, 3)) for _ in range(4)]
             for _ in range(4)])
        assert (a * b).det() == a.det() * b.det()


def test_quadratic_entries():
    s = QuadScalar(0, 1, 2)
    m = ExactMatrix.from_rows([[s, 1], [0, s]])
    assert m.det() == QuadScalar(2, 0, 2)
    inv = m.inv()
    assert (m * inv).is_identity()


def test_transpose_trace_pow():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert m.transpose().to_rows() == [[1, 3], [2, 4]]
    assert m.trace() == 5
    assert (m ** 0).is_identity()
    assert (m ** 2) == m * m


def test_shape_errors():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    a = ExactMatrix.identity(2)
    b = ExactMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        b.det()


def test_solve_and_integrality():
    m = ExactMatrix.from_rows([[2, 1], [1, 1]])
    x = m.solve([3, 2])
    assert x == [Fraction(1), Fraction(1)]
    assert m.is_integral()
    assert not ExactMatrix.from_rows([[Fraction(1, 2)]]).is_integral()


@st.composite
def _ring_matrix(draw):
    """Row-major entries of an n x n matrix over Z, Z[sqrt 2] or Z[sqrt 5],
    n = 1..5, with many zeros so that pivots swap and some matrices are
    singular."""
    m = draw(st.sampled_from([None, 2, 5]))
    n = draw(st.integers(1, 5))
    small = st.one_of(st.just(0), st.integers(-4, 4))
    entry = small if m is None else st.builds(lambda a, b: QuadScalar(a, b, m),
                                              small, small)
    return draw(st.lists(entry, min_size=n * n, max_size=n * n)), n


@settings(max_examples=150, deadline=None)
@given(_ring_matrix())
def test_fraction_free_adjugate_matches_exact_inverse(case):
    entries, n = case
    g = ExactMatrix(n, n, entries)
    det, adj = fraction_free_adjugate(entries, n)
    assert det == g.det()
    if det == 0:
        assert adj is None
        return
    assert all(x == det * y for x, y in zip(adj, g.inv().data))
    # the adjugate stays in the ring
    if isinstance(entries[0], QuadScalar):
        assert all(Fraction(x.a).denominator == Fraction(x.b).denominator == 1 for x in adj)
    else:
        assert all(isinstance(x, int) for x in adj)
