import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from latlab import _svp
from latlab.enumeration import BudgetExceededError, IntegralGram, shortest_vector
from latlab.errors import NotPositiveDefiniteError
from latlab.matrices import ExactMatrix
from latlab import rings
from latlab.rings import IntRing, QuadIntRing, to_ring
from latlab.scalars import QuadScalar

from conftest import (
    brute_force_minimum,
    canonical_witness,
    gso_from_gram,
    oracle_lll,
    oracle_search,
    oracle_witness_key,
    random_integer_basis,
    random_unimodular,
    skewed_basis,
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


# (basis, value, witness, nodes): the kernel on the caller's Gram matrix,
# counted as the recursive search (``oracle_search``) counts them, so the
# visit order must not change
GOLDEN = [
    ([[3, 1, 0], [1, 2, 1], [0, 1, 4]], Fraction(6), (1, -1, 0), 11),
    (_skewed_rows(), Fraction(1), (1, -1, -1, 0, 0, 12, 4, 0, 1, 2), 3762),
    ([[_q5(3, 1), _q5(-1, 2), _q5(0, 1)], [_q5(1, -1), _q5(2, 0), _q5(-2, 1)],
      [_q5(0, 2), _q5(1, 1), _q5(4, -1)]], _q5(59, -26), (1, 0, -1), 32),
]
GOLDEN_IDS = ["gram3x3", "skewed_z10", "z_sqrt5"]

# the nodes of shortest_vector, which searches the LLL-reduced basis over Z:
# the same value and witness
GOLDEN_NODES_AFTER_LLL = [11, 165, 32]


@pytest.mark.parametrize("basis, value, witness, nodes", GOLDEN, ids=GOLDEN_IDS)
def test_golden_node_counts(basis, value, witness, nodes):
    form = IntegralGram(_gram_of(basis))
    c0, seed = _svp.initial_bound(form.gram)
    got, got_witness, got_nodes = _svp.search(form.d, form.lam, c0, seed, 10**6, form.ring)
    assert (form.ring.quotient(got, form.scale), got_witness, got_nodes) == \
        (value, witness, nodes)


@pytest.mark.parametrize("golden, nodes", zip(GOLDEN, GOLDEN_NODES_AFTER_LLL),
                         ids=GOLDEN_IDS)
def test_golden_node_counts_after_lll(golden, nodes):
    basis, value, witness, _ = golden
    assert shortest_vector(IntegralGram(_gram_of(basis))) == (value, witness, nodes)


def test_nearest_helpers():
    ring = QuadIntRing(2)
    # nearest integer to (3 + 2*sqrt(2)) / 2 = 2.914... -> 3
    num = QuadScalar(3, 2, 2)
    den = QuadScalar(2, 0, 2)
    assert ring.nearest(num, den) == 3
    assert IntRing.nearest(-3, 2) == -1
    assert IntRing.nearest(3, 2) == 2


def test_pure_fallback_on_huge_entries():
    # entries far beyond machine-word range
    big = 1 << 80
    gram = [[big, 1], [1, 2]]
    value, witness, _ = shortest_vector(IntegralGram(gram))
    assert value == 2 and witness == (0, 1)


def test_quad_floor_helpers_are_exact(rnd):
    for _ in range(3000):
        m = rnd.choice([2, 3, 5, 7, 13])
        ring = QuadIntRing(m)
        p = rnd.randint(-10**6, 10**6)
        q = rnd.randint(-10**6, 10**6)
        r = rnd.randint(1, 10**4)
        z = ring._floor_ratio(p, q, r)
        # z is certified by z*r <= p + q*sqrt(m) < (z+1)*r, both exact
        assert rings._int_le_sqrt(z * r - p, q, m)
        assert not rings._int_le_sqrt((z + 1) * r - p, q, m)
    # up to 300 digits each, where one floor division has to be exact too
    for _ in range(600):
        m = rnd.choice([2, 3, 5, 7, 13])
        ring = QuadIntRing(m)
        p, q, r = (rnd.randint(-10**k, 10**k) for k in rnd.choices(range(1, 301), k=3))
        r = abs(r) or 1
        z = ring._floor_ratio(p, q, r)
        assert rings._int_le_sqrt(z * r - p, q, m)
        assert not rings._int_le_sqrt((z + 1) * r - p, q, m)


# -- integral Gram-Schmidt against the fraction-field oracle ----------------------


def _ring(m):
    return IntRing if m is None else QuadIntRing(m)


def _in_ring(gram, ring):
    """A Gram matrix of field values with integer coordinates as the ring
    elements the ring routines take (to_ring with scale 1)."""
    _, _, flat = to_ring([e for row in gram for e in row], ring.m)
    entries = iter(flat)
    return [[next(entries) for _ in row] for row in gram]


def _lifted(values, ring):
    """Ring values (ints among them) back in the field, to meet a field oracle."""
    return [x if type(x) is int else ring.lift(x) for x in values]


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


def _check_against_oracle(gram, ring):
    try:
        expected = _oracle_integral_gso(gram)
    except ValueError:
        with pytest.raises(ValueError):
            _svp.integral_gso(_in_ring(gram, ring), ring)
        return False
    d, lam = _svp.integral_gso(_in_ring(gram, ring), ring)
    assert (_lifted(d, ring), [_lifted(row, ring) for row in lam]) == expected
    return True


@settings(max_examples=150, deadline=None)
@given(_ring_square(symmetric=False))
def test_integral_gso_matches_fraction_gso(case):
    m, gram = case
    if _check_against_oracle(gram, _ring(m)):
        # the negated Gram matrix is negative definite
        negated = [[-e for e in row] for row in gram]
        with pytest.raises(ValueError):
            _svp.integral_gso(_in_ring(negated, _ring(m)), _ring(m))


@settings(max_examples=150, deadline=None)
@given(_ring_square(symmetric=True))
def test_integral_gso_on_symmetric_matrices(case):
    # mostly indefinite: must raise exactly when the oracle does
    _check_against_oracle(case[1], _ring(case[0]))


# -- the iterative kernel against the recursive oracle --------------------------


def _outcome(kernel, form, budget, box=None, accept=None):
    """repr of (value, witness, nodes), or of the budget at which it gave up."""
    c0, seed = _svp.initial_bound(form.gram)
    try:
        return repr(kernel(form.d, form.lam, c0, seed, budget, form.ring, box, accept))
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
        _outcome(partial(oracle_search, form.gram), form, budget, box, accept)
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
    short has already found what it returns in full.  Each budget is drawn
    below the search's own node count, so that it is cut."""
    exhausted = 0
    for k in range(40):
        basis = random_integer_basis(rnd, rnd.randint(4, 7))
        scale = Fraction(1, rnd.randint(1, 4))       # denominators to unscale
        gram = [[e * scale for e in row] for row in _gram_of(basis)]
        form = IntegralGram(gram)
        c0, seed = _svp.initial_bound(form.gram)
        minimum = form.ring.quotient(oracle_search(form.gram, form.d, form.lam, c0, seed,
                                                   10**6, form.ring)[0], form.scale)
        full_value, full_witness, nodes = shortest_vector(form)
        with pytest.raises(BudgetExceededError) as cut:
            shortest_vector(form, nodes - 1)
        assert cut.value.best == (full_value, full_witness)
        budget = rnd.randint(1, nodes - 1)
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
        assert witness == canonical_witness(witness)
    assert exhausted >= 20


# -- integral LLL --------------------------------------------------------------


def _congruent(gram, cols):
    """H^T G H for H with columns ``cols``, by plain sums."""
    zero = gram[0][0] * 0
    n = len(gram)
    return [[sum((a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n)),
                 start=zero) for b in cols] for a in cols]


def _oracle_lll_reduced(gram):
    """Size reduction and the Lovasz test with delta = 3/4 on the
    fraction-field Gram-Schmidt data."""
    mu, norms = gso_from_gram(gram)
    return all(all(-1 <= 2 * mu[i][j] <= 1 for j in range(i)) and
               norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]
               for i in range(1, len(gram)))


def test_is_lll_reduced_examples():
    def reduced(gram):
        return _svp.is_lll_reduced(*_svp.integral_gso(gram, IntRing))
    assert reduced([[1, 0], [0, 4]]) and reduced([[2, 1], [1, 2]])
    assert not reduced([[4, 0], [0, 1]])        # size-reduced, fails Lovasz
    assert not reduced([[2, 3], [3, 5]])        # fails size reduction


def _assert_lll_output(gram, ring):
    basis, reduced, d, lam = _svp.lll(gram, *_svp.integral_gso(gram, ring), ring)
    assert all(type(e) is int for col in basis for e in col)
    assert abs(ExactMatrix.from_rows(basis).det()) == 1
    assert reduced == _congruent(gram, basis)
    assert (d, lam) == _svp.integral_gso(reduced, ring)
    assert _svp.is_lll_reduced(d, lam)
    assert _oracle_lll_reduced([_lifted(row, ring) for row in reduced])


def test_lll_on_seeded_inputs(rnd):
    """Random bases over Z, Z[sqrt 2] and Z[sqrt 5], and skewed bases of Z^n."""
    for _ in range(150):
        m = rnd.choice([None, None, 2, 5])
        n = rnd.randint(1, 8 if m is None else 4)
        if m is None:
            basis = random_integer_basis(rnd, n)
            ring = IntRing
        else:
            basis = [[QuadScalar(rnd.randint(-3, 3), rnd.randint(-2, 2), m)
                      for _ in range(n)] for _ in range(n)]
            ring = QuadIntRing(m)
        gram = _in_ring(_gram_of(basis), ring)
        try:
            _svp.integral_gso(gram, ring)
        except ValueError:
            continue
        _assert_lll_output(gram, ring)
    for n in (8, 10, 12):
        rows, _ = skewed_basis(rnd, n)
        assert not _svp.is_lll_reduced(*_svp.integral_gso(_gram_of(rows), IntRing))
        _assert_lll_output(_gram_of(rows), IntRing)


@settings(max_examples=100, deadline=None)
@given(_ring_square(symmetric=False))
def test_lll_invariants(case):
    m, field_gram = case
    ring = _ring(m)
    gram = _in_ring(field_gram, ring)
    try:
        _svp.integral_gso(gram, ring)
    except ValueError:
        with pytest.raises(NotPositiveDefiniteError):
            _svp.integral_gso(gram, ring)
        return
    assert _svp.is_lll_reduced(*_svp.integral_gso(gram, ring)) == \
        _oracle_lll_reduced(field_gram)
    _assert_lll_output(gram, ring)


def _assert_lll_matches_oracle(gram, ring):
    """The LLL started from the form's Gram-Schmidt data returns the lazy
    oracle's basis, reduced Gram matrix, d and lam; both refuse a matrix
    that is not positive definite."""
    try:
        d, lam = _svp.integral_gso(gram, ring)
    except NotPositiveDefiniteError:
        with pytest.raises(NotPositiveDefiniteError):
            oracle_lll(gram, ring)
        return
    assert repr(_svp.lll(gram, d, lam, ring)) == repr(oracle_lll(gram, ring))


@settings(max_examples=150, deadline=None)
@given(_ring_square(symmetric=False))
def test_lll_matches_oracle(case):
    m, gram = case
    _assert_lll_matches_oracle(_in_ring(gram, _ring(m)), _ring(m))


def test_lll_matches_oracle_on_skewed_bases(rnd):
    for n in (8, 10, 12):
        for _ in range(3):
            rows, _ = skewed_basis(rnd, n)
            _assert_lll_matches_oracle(_gram_of(rows), IntRing)


def _forbid_lll(monkeypatch):
    def fail(gram, d, lam, ring):
        raise AssertionError("LLL ran")
    monkeypatch.setattr(_svp, "lll", fail)


def test_reduced_input_skips_lll(rnd, monkeypatch):
    """A basis that is already LLL-reduced is searched as given: the node
    count is the kernel's on that basis."""
    grams = []
    for n in (3, 6, 9, 12):
        rows, _ = skewed_basis(rnd, n)
        gram = _gram_of(rows)
        grams.append(_svp.lll(gram, *_svp.integral_gso(gram, IntRing), IntRing)[1])
    grams.append([[1, 0], [0, 1]])
    _forbid_lll(monkeypatch)
    for gram in grams:
        form = IntegralGram(gram)
        assert _svp.is_lll_reduced(form.d, form.lam)
        c0, seed = _svp.initial_bound(form.gram)
        assert shortest_vector(form) == _svp.search(form.d, form.lam, c0, seed, 10**6,
                                                    form.ring)


def test_lll_skipped_with_box_accept_or_quadratic_ring(rnd, monkeypatch):
    """A change of basis does not keep a box, and over Z[sqrt m] LLL costs
    more than it saves: these searches run on the caller's basis."""
    rows, _ = skewed_basis(rnd, 6, steps=40)
    form = IntegralGram(_gram_of(rows))
    assert not _svp.is_lll_reduced(form.d, form.lam)
    c0, seed = _svp.initial_bound(form.gram)
    accept = _first_coordinates_bounded(2, 3)
    quad = IntegralGram(_gram_of(GOLDEN[2][0]))
    expected = [
        _svp.search(form.d, form.lam, c0, seed, 10**6, form.ring, 2),
        _svp.search(form.d, form.lam, c0, seed, 10**6, form.ring, None, accept),
        (GOLDEN[2][1], GOLDEN[2][2], GOLDEN[2][3]),
    ]
    _forbid_lll(monkeypatch)
    assert [shortest_vector(form, box=2), shortest_vector(form, accept=accept),
            shortest_vector(quad)] == expected
    with pytest.raises(AssertionError, match="LLL ran"):
        shortest_vector(form)


def test_lll_runs_once_on_a_size_reduced_basis_that_fails_lovasz(monkeypatch):
    """[[16, 8], [8, 11]] is size-reduced (2*8 <= 16) and fails the Lovasz
    test, 4*112 = 448 < 3*16^2 - 4*8^2 = 512, while 448 = 3*16^2 - 5*8^2: the
    search runs on its LLL-reduced basis, found by one call."""
    calls = []
    real = _svp.lll

    def counted(gram, d, lam, ring):
        calls.append(gram)
        return real(gram, d, lam, ring)

    monkeypatch.setattr(_svp, "lll", counted)
    gram = [[16, 8], [8, 11]]
    value, witness, _ = shortest_vector(IntegralGram(gram))
    assert calls == [gram]
    minimum, vectors = brute_force_minimum(gram)
    assert value == minimum and tuple(witness) in map(tuple, vectors)


@st.composite
def _near_lovasz_gram(draw):
    """A symmetric integer matrix whose block [[a, b], [b, c]] is
    size-reduced, 2|b| <= a, with 4c near the Lovasz threshold 3a, alone or
    below a first row (h, e, f)."""
    a = draw(st.integers(1, 80))
    b = draw(st.integers(-(a // 2), a // 2))
    c = draw(st.integers(max(1, 3 * a // 4 - 3), 3 * a // 4 + 3))
    if draw(st.booleans()):
        return [[a, b], [b, c]]
    h = draw(st.integers(1, 100))
    e, f = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return [[h, e, f], [e, a, b], [f, b, c]]


@settings(max_examples=300, deadline=None)
@given(_near_lovasz_gram())
@example([[16, 8], [8, 11]])
@example([[20, 0, 0], [0, 16, 8], [0, 8, 11]])
def test_is_lll_reduced_matches_the_fraction_oracle(gram):
    """is_lll_reduced on the integral data is |mu_ij| <= 1/2 and
    B_i >= (3/4 - mu_(i,i-1)^2) B_(i-1) on the Fraction Gram-Schmidt data,
    also near the Lovasz threshold, where a wrong coefficient flips it."""
    try:
        d, lam = _svp.integral_gso(gram, IntRing)
    except NotPositiveDefiniteError:
        return
    assert _svp.is_lll_reduced(d, lam) == _oracle_lll_reduced(gram)


def test_budget_error_best_in_callers_coordinates(rnd):
    """On skewed bases, which LLL changes, an exhausted search reports
    Q(witness) for the caller's Gram matrix and a canonical witness."""
    for _ in range(12):
        rows, canonical = skewed_basis(rnd, rnd.randint(6, 10), steps=60)
        scale = Fraction(1, rnd.randint(1, 3))
        gram = [[e * scale for e in row] for row in _gram_of(rows)]
        form = IntegralGram(gram)
        assert not _svp.is_lll_reduced(form.d, form.lam)
        value, witness, nodes = shortest_vector(form)
        assert (value, witness) == (scale, canonical)
        for budget in sorted({1, rnd.randint(1, nodes - 1), nodes - 1}):
            with pytest.raises(BudgetExceededError) as cut:
                shortest_vector(form, budget)
            value, witness = cut.value.best
            n = len(gram)
            assert value == sum(gram[i][j] * witness[i] * witness[j]
                                for i in range(n) for j in range(n))
            assert value >= scale
            assert witness == oracle_witness_key(witness)[1]


def test_shortest_vector_matches_oracle_on_seeded_inputs(rnd):
    """Values and witnesses of the LLL-reduced search are the recursive
    oracle's on the caller's Gram matrix: 1,000 small inputs over Q with
    denominators, Z[sqrt 2] and Z[sqrt 5], and skewed Z^n with n = 8..12,
    whose minimum 1 and canonical witness are known in closed form."""
    checked = 0
    while checked < 1000:
        m = rnd.choice([None, None, None, 2, 5])
        n = rnd.randint(1, 6 if m is None else 4)
        if m is None:
            basis = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(n)]
                     for _ in range(n)]
        else:
            basis = [[QuadScalar(Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)),
                                 rnd.randint(-2, 2), m) for _ in range(n)]
                     for _ in range(n)]
        try:
            form = IntegralGram(_gram_of(basis))
        except ValueError:
            continue
        c0, seed = _svp.initial_bound(form.gram)
        value, witness, _ = oracle_search(form.gram, form.d, form.lam, c0, seed,
                                          10**6, form.ring)
        assert shortest_vector(form)[:2] == (form.ring.quotient(value, form.scale), witness)
        checked += 1
    searched = 0
    for n in (8, 9, 10, 11, 12):
        rows, canonical = skewed_basis(rnd, n, steps=60)
        form = IntegralGram(_gram_of(rows))
        assert shortest_vector(form)[:2] == (1, canonical)
        c0, seed = _svp.initial_bound(form.gram)
        try:
            expected = oracle_search(form.gram, form.d, form.lam, c0, seed, 30000,
                                     form.ring)[:2]
        except BudgetExceededError:
            continue
        assert expected == (1, canonical)
        searched += 1
    assert searched >= 3
