import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latlab import _svp
from latlab.enumeration import BudgetExceededError, IntegralGram, shortest_vector
from latlab.scalars import QuadScalar

from conftest import (
    brute_force_minimum,
    gso_from_gram,
    oracle_search,
    oracle_witness_key,
    random_integer_basis,
    random_unimodular,
)


def _gram_of(basis):
    n = len(basis)
    zero = basis[0][0] * 0
    return [[sum((basis[i][k] * basis[j][k] for k in range(n)), start=zero)
             for j in range(n)] for i in range(n)]


def test_identity_lattice():
    value, witness, nodes = shortest_vector(IntegralGram([[1, 0], [0, 1]]))
    assert value == 1 and witness == (1, 0) and nodes > 0


def test_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        shortest_vector(IntegralGram([[1, 0], [0, 1]]), node_budget=2)


def test_agrees_with_brute_force(rnd):
    for _ in range(60):
        basis = random_integer_basis(rnd, 3)
        gram = _gram_of(basis)
        value, witness, _ = shortest_vector(IntegralGram(gram))
        oracle_value, minimizers = brute_force_minimum(gram)
        assert value == oracle_value
        canonical = min(oracle_witness_key(v) for v in minimizers)[1]
        assert witness == canonical


def test_rational_gram_scaling():
    gram = [[Fraction(1), Fraction(9, 10)],
            [Fraction(9, 10), Fraction(82, 100)]]
    value, witness, _ = shortest_vector(IntegralGram(gram))
    assert value == Fraction(1, 50)
    assert witness == (1, -1)


def test_quadratic_gram():
    # Gram of the basis (1, 0), (sqrt(2), 1) over Q(sqrt(2))
    s = QuadScalar(0, 1, 2)
    gram = [[QuadScalar(1, 0, 2), s], [s, QuadScalar(3, 0, 2)]]
    value, witness, _ = shortest_vector(IntegralGram(gram))
    assert value == QuadScalar(1, 0, 2)
    assert witness == (1, 0)


def test_quadratic_gram_with_irrational_minimum():
    # diag(3 - sqrt(2), 4): minimum is the irrational 3 - sqrt(2)
    gram = [[QuadScalar(3, -1, 2), QuadScalar(0, 0, 2)],
            [QuadScalar(0, 0, 2), QuadScalar(4, 0, 2)]]
    value, witness, _ = shortest_vector(IntegralGram(gram))
    assert value == QuadScalar(3, -1, 2)
    assert witness == (1, 0)


def test_imaginary_gram_rejected():
    gram = [[QuadScalar(1, 1, -1)]]
    with pytest.raises(ValueError):
        shortest_vector(IntegralGram(gram))


def test_not_positive_definite_rejected():
    with pytest.raises(ValueError):
        shortest_vector(IntegralGram([[1, 0], [0, -1]]))


def _q5(a, b):
    return QuadScalar(a, b, 5)


def _skewed_rows():
    u = random_unimodular(random.Random(7), 10, steps=90, shear=3)
    return [[int(u[i, j]) for j in range(10)] for i in range(10)]


# (basis, value, witness, nodes), the nodes counted by the recursive search
# that the iterative kernel replaced: the visit order must not change
GOLDEN = [
    ([[3, 1, 0], [1, 2, 1], [0, 1, 4]], Fraction(6), (1, -1, 0), 11),
    (_skewed_rows(), Fraction(1), (1, -1, -1, 0, 0, 12, 4, 0, 1, 2), 3762),
    ([[_q5(3, 1), _q5(-1, 2), _q5(0, 1)], [_q5(1, -1), _q5(2, 0), _q5(-2, 1)],
      [_q5(0, 2), _q5(1, 1), _q5(4, -1)]], _q5(59, -26), (1, 0, -1), 32),
]


@pytest.mark.parametrize("basis, value, witness, nodes", GOLDEN,
                         ids=["gram3x3", "skewed_z10", "z_sqrt5"])
def test_golden_node_counts(basis, value, witness, nodes):
    assert shortest_vector(IntegralGram(_gram_of(basis))) == (value, witness, nodes)


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
    value, witness, _ = shortest_vector(IntegralGram(gram))
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
    mu, norms = gso_from_gram(gram)
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


# -- the iterative kernel against the recursive oracle --------------------------


def _outcome(kernel, form, budget, box=None, accept=None):
    """repr of (value, witness, nodes), or of the budget at which it gave up."""
    c0, seed = _svp.initial_bound(form.gram)
    try:
        return repr(kernel(form.gram, form.d, form.lam, c0, seed, budget, form.ring,
                           box, accept))
    except BudgetExceededError as exc:
        return "budget %r" % exc.budget


def _first_coordinates_bounded(k, h):
    """Symmetric, admits every unit vector: the shape of the adjoint
    systole's bound on its forced entry."""
    return lambda c: abs(sum(c[:k])) <= h


def _assert_kernel_matches_oracle(gram, budget, box, accept_k):
    try:
        form = IntegralGram(gram)
    except ValueError:
        return False
    accept = None if accept_k is None else _first_coordinates_bounded(accept_k, box or 2)
    assert _outcome(_svp.search, form, budget, box, accept) == \
        _outcome(oracle_search, form, budget, box, accept)
    return True


def test_kernel_matches_oracle_on_seeded_inputs(rnd):
    """1,000 searches over Z, Z[sqrt 2] and Z[sqrt 5], with and without a
    box and an accept predicate, some of them cut by their budget."""
    checked = 0
    while checked < 1000:
        m = rnd.choice([None, None, 2, 5])
        n = rnd.randint(1, 7 if m is None else 4)
        if m is None:
            basis = [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        else:
            basis = [[QuadScalar(rnd.randint(-3, 3), rnd.randint(-2, 2), m)
                      for _ in range(n)] for _ in range(n)]
        box = rnd.choice([None, None, 1, 2, 3])
        accept_k = rnd.choice([None, None, rnd.randint(1, n)])
        budget = rnd.choice([3, 40, 400, 10**6])
        checked += _assert_kernel_matches_oracle(_gram_of(basis), budget, box, accept_k)


@settings(max_examples=150, deadline=None)
@given(_ring_square(symmetric=False), st.sampled_from([None, 1, 2, 3]),
       st.sampled_from([None, 1, 2]), st.sampled_from([2, 10, 60, 10**6]))
def test_kernel_matches_oracle(case, box, accept_k, budget):
    _, gram = case
    if accept_k is not None:
        accept_k = min(accept_k, len(gram))
    _assert_kernel_matches_oracle(gram, budget, box, accept_k)


def test_budget_error_carries_the_best_vector_so_far(rnd):
    """An exhausted search reports the nodes it visited and the best
    (value, witness) so far, scaled back to the given Gram matrix: the value
    is Q(witness), and no smaller than the true minimum.  Without a box the
    last node is a rejection at the top level, so a search cut one node
    short has already found what it returns in full."""
    exhausted = 0
    for k in range(40):
        basis = random_integer_basis(rnd, rnd.randint(4, 7))
        scale = Fraction(1, rnd.randint(1, 4))       # denominators to unscale
        gram = [[e * scale for e in row] for row in _gram_of(basis)]
        form = IntegralGram(gram)
        c0, seed = _svp.initial_bound(form.gram)
        minimum = form.unscale(oracle_search(form.gram, form.d, form.lam, c0, seed,
                                             10**6, form.ring)[0])
        full_value, full_witness, nodes = shortest_vector(form)
        with pytest.raises(BudgetExceededError) as cut:
            shortest_vector(form, nodes - 1)
        assert cut.value.best == (full_value, full_witness)
        budget = rnd.randint(2, 60)
        try:
            shortest_vector(form, budget)
            continue
        except BudgetExceededError as exc:
            value, witness = exc.best
            assert exc.budget == exc.nodes == budget
        exhausted += 1
        n = len(gram)
        assert value == sum(gram[i][j] * witness[i] * witness[j]
                            for i in range(n) for j in range(n))
        assert value >= minimum and any(witness)
        assert witness == _svp.canonical_witness(witness)
    assert exhausted >= 20
