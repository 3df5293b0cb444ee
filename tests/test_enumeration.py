from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latlab import _svp
from latlab.enumeration import BudgetExceededError, shortest_vector
from latlab.scalars import QuadScalar

from conftest import brute_force_minimum, oracle_witness_key, random_integer_basis


def _gram_of(basis):
    n = len(basis)
    return [[sum(basis[i][k] * basis[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_identity_lattice():
    value, witness, nodes = shortest_vector([[1, 0], [0, 1]])
    assert value == 1 and witness == (1, 0) and nodes > 0


def test_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        shortest_vector([[1, 0], [0, 1]], node_budget=2)


def test_agrees_with_brute_force(rnd):
    for _ in range(60):
        basis = random_integer_basis(rnd, 3)
        gram = _gram_of(basis)
        value, witness, _ = shortest_vector(gram)
        oracle_value, minimizers = brute_force_minimum(gram)
        assert value == oracle_value
        canonical = min(oracle_witness_key(v) for v in minimizers)[1]
        assert witness == canonical


def test_rational_gram_scaling():
    gram = [[Fraction(1), Fraction(9, 10)],
            [Fraction(9, 10), Fraction(82, 100)]]
    value, witness, _ = shortest_vector(gram)
    assert value == Fraction(1, 50)
    assert witness == (1, -1)


def test_quadratic_gram():
    # Gram of the basis (1, 0), (sqrt(2), 1) over Q(sqrt(2))
    s = QuadScalar(0, 1, 2)
    gram = [[QuadScalar(1, 0, 2), s], [s, QuadScalar(3, 0, 2)]]
    value, witness, _ = shortest_vector(gram)
    assert value == QuadScalar(1, 0, 2)
    assert witness == (1, 0)


def test_quadratic_gram_with_irrational_minimum():
    # diag(3 - sqrt(2), 4): minimum is the irrational 3 - sqrt(2)
    gram = [[QuadScalar(3, -1, 2), QuadScalar(0, 0, 2)],
            [QuadScalar(0, 0, 2), QuadScalar(4, 0, 2)]]
    value, witness, _ = shortest_vector(gram)
    assert value == QuadScalar(3, -1, 2)
    assert witness == (1, 0)


def test_imaginary_gram_rejected():
    gram = [[QuadScalar(1, 1, -1)]]
    with pytest.raises(ValueError):
        shortest_vector(gram)


def test_not_positive_definite_rejected():
    with pytest.raises(ValueError):
        shortest_vector([[1, 0], [0, -1]])


def test_deterministic_node_counts():
    gram = _gram_of([[3, 1, 0], [1, 2, 1], [0, 1, 4]])
    first = shortest_vector(gram)
    second = shortest_vector(gram)
    assert first == second


def test_nearest_helpers():
    ring = _svp.QuadIntRing(2)
    # nearest integer to (3 + 2*sqrt(2)) / 2 = 2.914... -> 3
    num = QuadScalar(3, 2, 2)
    den = QuadScalar(2, 0, 2)
    assert ring.nearest(num, den) == 3
    assert _svp.IntRing.nearest(-3, 2) == -1
    assert _svp.IntRing.nearest(3, 2) == 2


def test_pure_fallback_on_huge_entries():
    # entries far beyond machine-word range
    big = 1 << 80
    gram = [[big, 1], [1, 2]]
    value, witness, _ = shortest_vector(gram)
    assert value == 2 and witness == (0, 1)


def test_quad_floor_helpers_are_exact(rnd):
    for _ in range(3000):
        m = rnd.choice([2, 3, 5, 7, 13])
        ring = _svp.QuadIntRing(m)
        p = rnd.randint(-10**6, 10**6)
        q = rnd.randint(-10**6, 10**6)
        r = rnd.randint(1, 10**4)
        z = ring._floor_ratio(p, q, r)
        # z is certified by z*r <= p + q*sqrt(m) < (z+1)*r, both exact
        assert _svp._int_le_sqrt(z * r - p, q, m)
        assert not _svp._int_le_sqrt((z + 1) * r - p, q, m)


# -- integral Gram-Schmidt against the fraction-field oracle ----------------------


def _ring_element(m):
    if m is None:
        return st.integers(-5, 5)
    return st.builds(lambda a, b: QuadScalar(a, b, m),
                     st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def _ring_square(draw, symmetric):
    """(m, matrix) with entries in Z (m None) or Z[sqrt(m)]: a Gram matrix
    B B^T of random rows, or a random symmetric matrix."""
    m = draw(st.sampled_from([None, 2, 5]))
    n = draw(st.integers(1, 6 if m is None else 4))
    elem = _ring_element(m)
    if symmetric:
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(elem)
        return m, rows
    basis = [[draw(elem) for _ in range(n)] for _ in range(n)]
    zero = 0 if m is None else QuadScalar(0, 0, m)
    gram = [[sum((x * y for x, y in zip(u, v)), start=zero) for v in basis]
            for u in basis]
    return m, gram


def _oracle_integral_gso(gram):
    """d and lam derived from the fraction-field Gram-Schmidt data."""
    mu, norms = _svp.gso_from_gram(gram)
    n = len(gram)
    d = [Fraction(1)]
    for b in norms:
        d.append(d[-1] * b)
    lam = [[mu[i][j] * d[j + 1] if j < i else 0 for j in range(n)]
           for i in range(n)]
    return d, lam


def _check_against_oracle(gram):
    try:
        expected = _oracle_integral_gso(gram)
    except ValueError:
        with pytest.raises(ValueError):
            _svp.integral_gso(gram)
        return False
    assert _svp.integral_gso(gram) == expected
    return True


@settings(max_examples=150, deadline=None)
@given(_ring_square(symmetric=False))
def test_integral_gso_matches_fraction_gso(case):
    _, gram = case
    if _check_against_oracle(gram):
        # the negated Gram matrix is negative definite
        negated = [[-e for e in row] for row in gram]
        with pytest.raises(ValueError):
            _svp.integral_gso(negated)


@settings(max_examples=150, deadline=None)
@given(_ring_square(symmetric=True))
def test_integral_gso_on_symmetric_matrices(case):
    # mostly indefinite: must raise exactly when the oracle does
    _check_against_oracle(case[1])
