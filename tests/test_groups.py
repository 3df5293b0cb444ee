import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latlab import groups
from latlab.enumeration import IntegralGram, shortest_vector
from latlab.errors import BudgetExceededError
from latlab.groups import (
    DiagForm,
    GroupSpec,
    Verdict,
    ad_action,
    adjoint_systole,
    conjugate_form,
    exp_nilpotent,
    is_definite,
    is_nilpotent,
    is_unipotent,
    isotropic_search,
    preserves_form,
    unipotent_from_isotropic,
    uniformity_verdict,
)
from latlab.matrices import ExactMatrix
from latlab.numfield import NumberFieldDesc, ring_of_integers
from latlab.scalars import QuadScalar

from conftest import (
    adjoint_box_scan,
    oracle_adjoint_gram,
    oracle_inv,
    oracle_is_nilpotent,
    oracle_isotropic_scan,
    oracle_isotropic_search,
    oracle_is_unipotent,
    oracle_preserves_form,
    oracle_transvection,
    random_unimodular,
)

K2 = NumberFieldDesc(m=2)
SQRT2 = QuadScalar(0, 1, 2)


def _e(i, j, n):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return ExactMatrix.from_rows(rows)


def test_conjugate_form_examples():
    f = DiagForm([-SQRT2, 1, 1, 1], K2)
    fc = conjugate_form(f, 1)
    assert fc.coeffs[0] == SQRT2
    rational = DiagForm([1, -1])
    assert conjugate_form(rational, 0) is rational
    with pytest.raises(ValueError):
        conjugate_form(rational, 1)
    k5 = NumberFieldDesc(m=5)
    # rational coefficients over a quadratic field are fixed by sigma
    fixed = conjugate_form(DiagForm([1, -1], k5), 1)
    assert fixed.coeffs == (1, -1)
    f5 = conjugate_form(DiagForm([QuadScalar(1, 1, 5), -1], k5), 1)
    assert f5.coeffs[0] == QuadScalar(1, -1, 5)


def test_is_definite_examples():
    assert is_definite(DiagForm([SQRT2, 1, 1, 1], K2))
    assert not is_definite(DiagForm([-SQRT2, 1, 1], K2))
    assert is_definite(DiagForm([-1, -1]))
    imaginary = DiagForm([QuadScalar(1, 1, -1), 1], NumberFieldDesc(m=-1))
    with pytest.raises(ValueError):
        is_definite(imaginary)


def test_preserves_form_examples():
    assert preserves_form(ExactMatrix.identity(2), DiagForm([1, 1]))
    rotation = ExactMatrix.from_rows([[0, -1], [1, 0]])
    assert preserves_form(rotation, DiagForm([1, 1]))
    boost = ExactMatrix.from_rows(
        [[Fraction(5, 3), Fraction(4, 3)], [Fraction(4, 3), Fraction(5, 3)]])
    assert preserves_form(boost, DiagForm([1, -1]))
    assert not preserves_form(2 * ExactMatrix.identity(2), DiagForm([1, 1]))


def test_unipotent_examples():
    assert is_unipotent(ExactMatrix.identity(3))
    assert is_unipotent(ExactMatrix.from_rows([[1, 1], [0, 1]]))
    assert not is_unipotent(ExactMatrix.from_rows([[2, 0], [0, Fraction(1, 2)]]))


def test_trace_power_equivalence(rnd):
    # half generic (almost never nilpotent), half conjugated strict triangulars
    for trial in range(300):
        if trial % 2 == 0:
            x = ExactMatrix.from_rows(
                [[rnd.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        else:
            strict = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i + 1, 3):
                    strict[i][j] = rnd.randint(-4, 4)
            u = random_unimodular(rnd, 3)
            x = u * ExactMatrix.from_rows(strict) * u.inv()
        power = (x ** 3).is_zero()
        traces_vanish = all((x ** j).trace() == 0 for j in (1, 2, 3))
        assert power == traces_vanish
        assert is_nilpotent(x) == power


def test_exp_nilpotent_examples():
    n2 = ExactMatrix.identity(2)
    assert exp_nilpotent(ExactMatrix.zero(2, 2)) == n2
    e12 = _e(0, 1, 2)
    assert exp_nilpotent(e12) == n2 + e12
    x = _e(0, 1, 3) + _e(1, 2, 3)
    expected = (ExactMatrix.identity(3) + x
                + _e(0, 2, 3) * Fraction(1, 2))
    assert exp_nilpotent(x) == expected
    with pytest.raises(ValueError):
        exp_nilpotent(ExactMatrix.identity(2))


def test_exp_nilpotent_is_unipotent(rnd):
    for _ in range(40):
        strict = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                strict[i][j] = rnd.randint(-5, 5)
        u = random_unimodular(rnd, 3)
        x = u * ExactMatrix.from_rows(strict) * u.inv()
        g = exp_nilpotent(x)
        assert is_unipotent(g)
        assert is_nilpotent(g - ExactMatrix.identity(3))


def test_ad_action_examples():
    x = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert ad_action(ExactMatrix.identity(2), x) == x
    g = ExactMatrix.from_rows([[2, 0], [0, Fraction(1, 2)]])
    assert ad_action(g, _e(0, 1, 2)) == 4 * _e(0, 1, 2)
    assert ad_action(g, x).trace() == x.trace()


def test_ad_action_is_group_action(rnd):
    for _ in range(50):
        g = random_unimodular(rnd, 3)
        h = random_unimodular(rnd, 3)
        x = ExactMatrix.from_rows(
            [[rnd.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        assert ad_action(g * h, x) == ad_action(g, ad_action(h, x))


def test_adjoint_systole_examples():
    res = adjoint_systole(ExactMatrix.identity(2), 2)
    assert res.min_norm_sq == 1
    assert res.witness == _e(0, 1, 2)
    assert res.witness_nilpotent
    for t, expected in ((2, Fraction(1, 16)), (4, Fraction(1, 256))):
        g = ExactMatrix.from_rows([[t, 0], [0, Fraction(1, t)]])
        res = adjoint_systole(g, 3)
        assert res.min_norm_sq == expected
        assert res.witness == _e(1, 0, 2)
        assert res.witness_nilpotent


def test_adjoint_systole_strictly_decreasing():
    values = []
    for t in (2, 4, 8):
        g = ExactMatrix.from_rows([[t, 0], [0, Fraction(1, t)]])
        res = adjoint_systole(g, 3)
        assert res.witness_nilpotent
        values.append(res.min_norm_sq)
    assert values[0] > values[1] > values[2]


def test_adjoint_systole_validation():
    with pytest.raises(ValueError):
        adjoint_systole(ExactMatrix.from_rows([[2, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        adjoint_systole(ExactMatrix.identity(1), 2)   # no nonzero trace-zero X


def test_adjoint_systole_node_budget():
    # the box search visits 48 nodes where the box has 601^3 points
    g = ExactMatrix.from_rows([[2, 1], [1, 1]])
    res = adjoint_systole(g, 300)
    assert res.min_norm_sq == 1
    assert res.witness == ExactMatrix.from_rows([[1, 1], [-1, -1]])
    assert res.witness_nilpotent
    res = adjoint_systole(ExactMatrix.identity(4), 1)     # 3^15 box points
    assert (res.min_norm_sq, res.witness) == (1, _e(0, 1, 4))
    with pytest.raises(BudgetExceededError):
        adjoint_systole(g, 300, node_budget=5)
    with pytest.raises(ValueError):
        adjoint_systole(g, 3, node_budget=0)


def _adjoint_by_candidates(g, h):
    """Reference adjoint systole: conjugate every trace-zero integer matrix in
    the box and take its Frobenius norm; ties go to the first nonzero
    row-major entry, sign-normalized, then lexicographic order."""
    n = g.rows
    g_inv = oracle_inv(g)
    best = None
    for flat in itertools.product(range(-h, h + 1), repeat=n * n - 1):
        last = -sum(flat[i * n + i] for i in range(n - 1))
        entries = flat + (last,)
        if abs(last) > h or not any(entries):
            continue
        y = g * ExactMatrix(n, n, list(entries)) * g_inv
        value = sum((e * e for e in y.data), start=Fraction(0))
        first = next(k for k, e in enumerate(entries) if e)
        if entries[first] < 0:
            entries = tuple(-e for e in entries)
        key = (value, first, entries)
        if best is None or key < best:
            best = key
    return best[0], ExactMatrix(n, n, list(best[2]))


def _sl_shears(rnd, n, steps, bound=2):
    """A product of elementary shears: an element of SL_n(Z)."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rnd.sample(range(n), 2)
        c = rnd.choice([k for k in range(-bound, bound + 1) if k])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return ExactMatrix.from_rows(rows)


def _assert_matches_oracle(g, h):
    res = adjoint_systole(g, h)
    value, witness = _adjoint_by_candidates(g, h)
    assert (res.min_norm_sq, res.witness) == (value, witness)
    assert res.witness_nilpotent == is_nilpotent(witness)


def test_adjoint_systole_matches_candidate_loop_sl2(rnd):
    for _ in range(12):
        g = _sl_shears(rnd, 2, rnd.randint(1, 5))
        for h in (1, 2, 3, 4):
            _assert_matches_oracle(g, h)


def test_adjoint_systole_matches_candidate_loop_diagonal():
    for t in (2, 3, Fraction(3, 2), Fraction(1, 5)):
        g = ExactMatrix.from_rows([[t, 0], [0, 1 / Fraction(t)]])
        for h in (1, 2, 3):
            _assert_matches_oracle(g, h)


def test_adjoint_systole_matches_candidate_loop_sl3(rnd):
    _assert_matches_oracle(_sl_shears(rnd, 3, 4), 1)


_UNITS = {2: QuadScalar(1, 1, 2), 5: QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)}


@st.composite
def _adjoint_case(draw):
    """(g, h): g of determinant 1 over Q, Q(sqrt 2) or Q(sqrt 5), a product of
    shears with denominators and one diagonal element, sometimes behind a
    rotation that puts a zero in the leading entry, with n = 2 at heights 1-5
    or n = 3 at height 1."""
    m = draw(st.sampled_from([None, 2, 5]))
    n = draw(st.integers(2, 3))
    h = draw(st.integers(1, 5)) if n == 2 else 1
    if m is None:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
        diagonal = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
    else:
        scalar = st.builds(lambda a, b: QuadScalar(a, b, m),
                           st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)),
                           st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)))
        diagonal = st.builds(lambda k: _UNITS[m] ** k, st.integers(-2, 2))
    g = ExactMatrix.identity(n)
    # long products put the unconstrained minimum outside the box
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(n)))[:2]
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[i][j] = draw(scalar)
        g = g * ExactMatrix.from_rows(rows)
    t = draw(diagonal)
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    rows[0][0], rows[1][1] = t, 1 / t
    g = g * ExactMatrix.from_rows(rows)
    if draw(st.booleans()):
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = 0, -1, 1, 0
        g = ExactMatrix.from_rows(rows) * g
    return g, h


@settings(max_examples=60, deadline=None)
@given(_adjoint_case())
# diag(1, 1, -2) commutes with g and would win, but its last entry leaves the box
@example((ExactMatrix.from_rows([[1, -2, 0], [-4, 9, 0], [0, 0, 1]]), 1))
def test_adjoint_systole_matches_box_scan(case):
    g, h = case
    res = adjoint_systole(g, h)
    assert (res.min_norm_sq, res.witness) == adjoint_box_scan(g, h)
    assert res.witness_nilpotent == oracle_is_nilpotent(res.witness)


def _oracle_adjoint_systole(g, h):
    """(value, witness, nilpotent) searched on oracle_adjoint_gram with the
    same box and trace bound: the adjoint systole before its ring Gram
    matrix."""
    n = g.rows
    diag = [i * n + i for i in range(n - 1)]
    value, coords, _ = shortest_vector(
        IntegralGram(oracle_adjoint_gram(g)), box=h,
        accept=lambda c: abs(sum(c[k] for k in diag)) <= h)
    witness = ExactMatrix(n, n, list(coords) + [-sum(coords[k] for k in diag)])
    return value, witness, oracle_is_nilpotent(witness)


_ROOT2 = QuadScalar(0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(_adjoint_case())
# g over Q(sqrt 2) whose adjoint Gram matrix is rational: searched over Z
@example((ExactMatrix.from_rows([[_ROOT2, _ROOT2], [0, _ROOT2 / 2]]), 3))
def test_adjoint_ring_gram_matches_oracle(case):
    g, h = case
    gram, divisor, _ = groups._adjoint_gram(g)
    oracle = oracle_adjoint_gram(g)
    assert all(x == divisor * y for row, o_row in zip(gram, oracle)
               for x, y in zip(row, o_row))
    # the two ring Gram matrices are positive multiples of each other
    ring, o_ring = IntegralGram(gram).gram, IntegralGram(oracle).gram
    assert ring[0][0] > 0 and o_ring[0][0] > 0
    assert all(x * o_ring[0][0] == y * ring[0][0] for row, o_row in zip(ring, o_ring)
               for x, y in zip(row, o_row))
    res = adjoint_systole(g, h)
    value, witness, nilpotent = _oracle_adjoint_systole(g, h)
    assert repr(res.min_norm_sq) == repr(value)
    assert repr(res.witness) == repr(witness)
    assert res.witness_nilpotent == nilpotent


def test_adjoint_systole_calls_no_exact_det_or_inverse(monkeypatch, rnd):
    cases = [(_sl_shears(rnd, n, 5), h) for n, h in ((2, 4), (3, 1), (2, 2))]
    rotation = ExactMatrix.from_rows([[0, -1], [1, 0]])
    cases.append((rotation * cases[0][0], 3))          # a zero leading entry
    expected = [adjoint_systole(g, h) for g, h in cases]

    def forbidden(self):
        raise AssertionError("ExactMatrix.det or ExactMatrix.inv called")

    monkeypatch.setattr(ExactMatrix, "det", forbidden)
    monkeypatch.setattr(ExactMatrix, "inv", forbidden)
    for (g, h), before in zip(cases, expected):
        res = adjoint_systole(g, h)
        assert (res.min_norm_sq, res.witness, res.witness_nilpotent) == \
            (before.min_norm_sq, before.witness, before.witness_nilpotent)
    for bad in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="^matrix must have determinant 1$"):
            adjoint_systole(ExactMatrix.from_rows(bad), 2)


def test_adjoint_systole_over_quadratic_field():
    unit = QuadScalar(1, 1, 2)                     # 1 + sqrt(2), inverse sqrt(2) - 1
    g = ExactMatrix.from_rows([[unit, 0], [0, unit.inverse()]])
    res = adjoint_systole(g, 2)
    assert res.min_norm_sq == QuadScalar(17, -12, 2)
    assert res.witness == _e(1, 0, 2) and res.witness_nilpotent
    shear = ExactMatrix.from_rows([[1, SQRT2], [0, 1]])
    for h in (1, 2):
        _assert_matches_oracle(g * shear, h)


def test_isotropic_search_examples():
    assert isotropic_search(DiagForm([1, -1]), 1) == (1, 1)
    assert isotropic_search(DiagForm([1, 1]), 4) is None
    assert isotropic_search(DiagForm([1, 1, -1]), 1) == (1, 0, 1)
    f = DiagForm([-SQRT2, 1, 1], K2)
    assert isotropic_search(f, 10) is None


def test_isotropic_search_quadratic_witness():
    f = DiagForm([SQRT2, 1, -1], K2)
    vec = isotropic_search(f, 2)
    assert vec is not None
    assert f.value(vec) == 0


def test_unipotent_from_isotropic():
    f = DiagForm([1, 1, -1])
    g = unipotent_from_isotropic(f, (1, 0, 1))
    assert preserves_form(g, f) and is_unipotent(g) and not g.is_identity()
    f2 = DiagForm([1, -1, 1])
    g2 = unipotent_from_isotropic(f2, (1, 1, 0))
    assert preserves_form(g2, f2) and is_unipotent(g2) and not g2.is_identity()
    with pytest.raises(ValueError):
        unipotent_from_isotropic(f, (1, 1, 1))
    with pytest.raises(ValueError):
        unipotent_from_isotropic(DiagForm([1, -1]), (1, 1))


def test_verdict_sl():
    verdict = uniformity_verdict(GroupSpec("SL", n=2))
    assert verdict.status == Verdict.NOT_UNIFORM
    assert verdict.witness == ExactMatrix.from_rows([[1, 1], [0, 1]])
    assert is_unipotent(verdict.witness)


def test_verdict_so_definite_conjugate():
    spec = GroupSpec("SO", form=DiagForm([-SQRT2, 1, 1, 1], K2))
    verdict = uniformity_verdict(spec, height=10)
    assert verdict.status == Verdict.UNIFORM
    assert verdict.conjugate_name == "sqrt(2) -> -sqrt(2)"
    assert verdict.witness is None


def test_verdict_so_isotropic():
    spec = GroupSpec("SO", form=DiagForm([1, 1, -1]))
    verdict = uniformity_verdict(spec, height=1)
    assert verdict.status == Verdict.NOT_UNIFORM
    assert verdict.isotropic_vector == (1, 0, 1)
    assert spec.form.value(verdict.isotropic_vector) == 0
    assert preserves_form(verdict.witness, spec.form)
    assert is_unipotent(verdict.witness)
    assert not verdict.witness.is_identity()


def test_verdict_inconclusive():
    spec = GroupSpec("SO", form=DiagForm([1, 1, -7]))
    verdict = uniformity_verdict(spec, height=3)
    assert verdict.status == Verdict.INCONCLUSIVE
    assert verdict.search_bound == 3
    assert verdict.witness is None


def test_verdict_never_uniform_without_definite_conjugate():
    # all conjugates indefinite: only NotUniform or Inconclusive possible
    spec = GroupSpec("SO", form=DiagForm([QuadScalar(1, 1, 5), 1, -1],
                                         NumberFieldDesc(m=5)))
    verdict = uniformity_verdict(spec, height=2)
    assert verdict.status in (Verdict.NOT_UNIFORM, Verdict.INCONCLUSIVE)


def _assert_split_torus_witness(verdict, form):
    g = verdict.witness
    assert verdict.status == Verdict.NOT_UNIFORM
    assert form.value(verdict.isotropic_vector) == 0
    assert oracle_preserves_form(g, form) and g.det() == 1
    assert g.trace() not in (2, -2)


@pytest.mark.parametrize("coeffs, m, status", [
    ((1, -1), None, Verdict.NOT_UNIFORM),
    ((1, -3), None, Verdict.UNIFORM),
    ((1, -3), 3, Verdict.NOT_UNIFORM),
    ((2, -8), None, Verdict.NOT_UNIFORM),
    ((Fraction(3, 2), Fraction(-1, 6)), None, Verdict.NOT_UNIFORM),
    ((1, -2), 2, Verdict.NOT_UNIFORM),
    ((QuadScalar(3, 2, 2), -1), 2, Verdict.NOT_UNIFORM),   # (1 + sqrt 2)^2
    ((QuadScalar(1, 1, 2), -1), 2, Verdict.UNIFORM),       # definite conjugate
    ((1, -2), 5, Verdict.UNIFORM),
    ((1, 1), None, Verdict.UNIFORM),                       # definite
])
def test_binary_forms_decided_by_their_torus(coeffs, m, status):
    form = DiagForm(list(coeffs), _field_desc(m))
    verdict = uniformity_verdict(GroupSpec("SO", form=form), height=1)
    assert verdict.status == status
    if status == Verdict.NOT_UNIFORM:
        _assert_split_torus_witness(verdict, form)
        assert verdict.criterion == "Godement criterion (split torus)"
    else:
        assert verdict.witness is None


# a non-square of each field: -1, and a rational that stays a non-square
_NON_SQUARES = {None: [-1, 2, 3], 2: [-1, 3, QuadScalar(1, 1, 2)], 3: [-1, 2],
                5: [-1, 2, 3]}


@st.composite
def _binary_form(draw):
    """(form, split): c1 x^2 + c2 y^2 with -c1*c2 = k * s^2 for a nonzero s of
    the field, k = 1 (split) or a non-square k (anisotropic)."""
    m = draw(st.sampled_from(FIELDS))
    c1, s = draw(_nonzero(m, False)), draw(_nonzero(m, False))
    split = draw(st.booleans())
    k = 1 if split else draw(st.sampled_from(_NON_SQUARES[m]))
    return DiagForm([c1, -k * s * s / c1], _field_desc(m)), split


@settings(max_examples=80, deadline=None)
@given(_binary_form())
def test_binary_verdict_by_construction(case):
    form, split = case
    verdict = uniformity_verdict(GroupSpec("SO", form=form), height=1)
    if split:
        _assert_split_torus_witness(verdict, form)
    else:
        assert verdict.status == Verdict.UNIFORM and verdict.witness is None


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("SL", n=1)
    with pytest.raises(ValueError):
        GroupSpec("SO")
    with pytest.raises(ValueError):
        DiagForm([1])
    with pytest.raises(ValueError):
        DiagForm([1, 0])


# -- witness verification on ring integers against the ExactMatrix oracles ----------

FIELDS = [None, 2, 3, 5]


def _field_desc(m):
    return None if m is None else NumberFieldDesc(m=m)


def _rational(big=True):
    """Rationals with denominators; with ``big``, some with 300-digit numerators."""
    small = st.integers(-6, 6)
    return st.builds(Fraction,
                     st.one_of(small, st.integers(-10**300, 10**300)) if big else small,
                     st.integers(1, 12))


def _scalar(m, big=True):
    if m is None:
        return _rational(big)
    return st.builds(lambda a, b: QuadScalar(a, b, m), _rational(big), _rational(big))


def _nonzero(m, big=True):
    return _scalar(m, big).filter(lambda x: x != 0)


@st.composite
def _conjugated_nilpotent(draw):
    """u N u^-1 for a strictly upper-triangular N (some 300-digit entries)
    and an invertible u with small entries."""
    m = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    strict = [[draw(_scalar(m)) if j > i else 0 for j in range(n)] for i in range(n)]
    u = ExactMatrix.from_rows(
        [[draw(_nonzero(m, False)) if i == j else (draw(_scalar(m, False)) if j > i else 0)
          for j in range(n)] for i in range(n)])
    lower = ExactMatrix.from_rows(
        [[1 if i == j else (draw(st.integers(-3, 3)) if j < i else 0)
          for j in range(n)] for i in range(n)])
    u = lower * u
    return u * ExactMatrix.from_rows(strict) * u.inv()


@st.composite
def _square(draw):
    m = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    return ExactMatrix.from_rows([[draw(_scalar(m)) for _ in range(n)] for _ in range(n)])


@st.composite
def _isotropic_form(draw, fields=FIELDS, nvars=st.integers(3, 5), entry=_scalar):
    """(form, isotropic vector) over Q or Q(sqrt m), built around the vector,
    whose entries ``entry(m)`` draws."""
    m = draw(st.sampled_from(fields))
    n = draw(nvars)
    v = [draw(entry(m)) for _ in range(n - 1)] + [draw(entry(m).filter(lambda x: x != 0))]
    d = [draw(_nonzero(m, False)) for _ in range(n - 1)]
    rest = sum((di * vi * vi for di, vi in zip(d, v)), Fraction(0))
    assume(rest != 0)
    last = -rest / (v[-1] * v[-1])
    return DiagForm(d + [last], _field_desc(m)), tuple(v)


@settings(max_examples=50, deadline=None)
@given(_conjugated_nilpotent(), st.sampled_from([0, Fraction(1, 7), 3]))
def test_nilpotent_matches_oracle_on_conjugated_strict(x, shift):
    n = x.rows
    shifted = x + shift * ExactMatrix.identity(n)
    assert is_nilpotent(x) and oracle_is_nilpotent(x)
    assert is_nilpotent(shifted) == oracle_is_nilpotent(shifted) == (shift == 0)
    g = ExactMatrix.identity(n) + x
    assert is_unipotent(g) and oracle_is_unipotent(g)
    assert is_unipotent(g + shifted) == oracle_is_unipotent(g + shifted)


@settings(max_examples=60, deadline=None)
@given(_square())
def test_nilpotent_matches_oracle_on_random_matrices(x):
    assert is_nilpotent(x) == oracle_is_nilpotent(x)
    assert is_unipotent(x) == oracle_is_unipotent(x)


@settings(max_examples=40, deadline=None)
@given(_isotropic_form(), st.data())
def test_transvection_verification_matches_oracle(form_and_vector, data):
    form, v = form_and_vector
    n = form.nvars
    g = unipotent_from_isotropic(form, v)
    assert preserves_form(g, form) and oracle_preserves_form(g, form)
    assert is_unipotent(g) and oracle_is_unipotent(g)
    assert not g.is_identity()
    # a multiple of the form has the same orthogonal group
    scaled = DiagForm([Fraction(-5, 3) * c for c in form.coeffs], form.field)
    assert preserves_form(g, scaled)
    # one perturbed entry
    m = form.field.m if form.field is not None else None
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows = g.to_rows()
    rows[i][j] = rows[i][j] + data.draw(_nonzero(m))
    h = ExactMatrix.from_rows(rows)
    assert preserves_form(h, form) == oracle_preserves_form(h, form)
    assert is_unipotent(h) == oracle_is_unipotent(h)


# -- the isotropic search against the per-point scan it replaced --------------------

SEARCH_FIELDS = FIELDS + [13]
# over Q(sqrt m), the largest height per number of variables that keeps the
# oracle's (n-1)-fold box within 25^3 points
QUADRATIC_HEIGHT = {2: 3, 3: 3, 4: 2, 5: 1}


def _ring_integer(m):
    """p + q*omega with |p|, |q| <= 2 in the integer ring of Q or Q(sqrt m)."""
    small = st.integers(-2, 2)
    if m is None:
        return small.map(Fraction)
    omega = ring_of_integers(NumberFieldDesc(m=m)).omega
    return st.builds(lambda p, q: p + q * omega, small, small)


@st.composite
def _random_form(draw, fields):
    m = draw(st.sampled_from(fields))
    n = draw(st.integers(2, 5))
    return DiagForm([draw(_nonzero(m, False)) for _ in range(n)], _field_desc(m))


def _assert_search_matches_oracle(form, height):
    found = isotropic_search(form, height)
    expected = oracle_isotropic_search(form, height)
    assert found == expected
    if found is not None:
        assert [(type(x), repr(x)) for x in found] == \
            [(type(x), repr(x)) for x in expected]
    return found


@settings(max_examples=150, deadline=None)
@given(st.one_of(_random_form(SEARCH_FIELDS),
                 _isotropic_form(SEARCH_FIELDS, st.integers(2, 5), _ring_integer)
                 .map(lambda form_and_vector: form_and_vector[0])),
       st.integers(1, 3))
def test_isotropic_search_matches_oracle(form, height):
    """Random forms with denominators, and forms built around a small ring
    vector, over Q, Q(sqrt 2), Q(sqrt 3), Q(sqrt 5) and Q(sqrt 13)."""
    if form.field is not None:
        height = min(height, QUADRATIC_HEIGHT[form.nvars])
    _assert_search_matches_oracle(form, height)


def _search_outcome(search, form, height, budget):
    """("found", entries), ("none", None) or ("budget", error)."""
    try:
        found = search(form, height, budget)
    except BudgetExceededError as exc:
        return "budget", exc
    if found is None:
        return "none", None
    return "found", [(type(x), repr(x)) for x in found]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_random_form(SEARCH_FIELDS),
                 _isotropic_form(SEARCH_FIELDS, st.integers(2, 5), _ring_integer)
                 .map(lambda form_and_vector: form_and_vector[0])),
       st.integers(1, 3), st.data())
def test_isotropic_search_budget_edges_match_scan(form, height, data):
    """Budgets at and around one coordinate's box and the whole (n-1)-fold
    box: the same vector as the per-point root-table scan, or the same
    BudgetExceededError, whose ``nodes`` counts the points scanned."""
    if form.field is not None:
        height = min(height, QUADRATIC_HEIGHT[form.nvars])
    side = 2 * height + 1
    width = side if form.field is None else side * side
    total = width ** (form.nvars - 1)
    budget = data.draw(st.one_of(
        st.sampled_from([width - 1, width, width + 1, total - 1, total, total + 1]),
        st.integers(width - 1, total + 1)))
    kind, found = _search_outcome(isotropic_search, form, height, budget)
    expected = _search_outcome(oracle_isotropic_scan, form, height, budget)
    assert kind == expected[0]
    if kind == "budget":
        assert str(found) == str(expected[1]) and found.budget == budget
        assert found.nodes == (0 if width > budget else budget)
    else:
        assert found == expected[1]


@pytest.mark.parametrize("m", SEARCH_FIELDS)
def test_isotropic_search_finds_omega_vectors(m):
    # a form built around (1 + omega, 1, 1): the search finds a zero, the same
    # one as the oracle
    field = _field_desc(m)
    x = 1 + (Fraction(1) if m is None else ring_of_integers(field).omega)
    form = DiagForm([1, 3, -(x * x + 3)], field)
    assert _assert_search_matches_oracle(form, 2) is not None


def test_isotropic_search_node_budget():
    f = DiagForm([1, 1, -7])
    assert isotropic_search(f, 3, node_budget=49) is None   # the whole 7 x 7 box
    with pytest.raises(BudgetExceededError) as scan:
        isotropic_search(f, 3, node_budget=48)
    assert scan.value.nodes == 48 and scan.value.best is None
    with pytest.raises(BudgetExceededError) as box:         # one coordinate: 7 points
        isotropic_search(f, 3, node_budget=6)
    assert box.value.nodes == 0 and box.value.best is None
    # a budget that ends inside a row of the last coordinate
    with pytest.raises(BudgetExceededError) as partial:
        isotropic_search(f, 3, node_budget=10)
    assert partial.value.nodes == 10
    # the first zero of (1, 1, -2) is the ninth point, (x1, x2) = (1, 1): the
    # second point of the second row of the last coordinate
    assert isotropic_search(DiagForm([1, 1, -2]), 3, node_budget=9) == (1, 1, 1)
    with pytest.raises(BudgetExceededError) as short:
        isotropic_search(DiagForm([1, 1, -2]), 3, node_budget=8)
    assert short.value.nodes == 8
    # a zero within the budget is returned although the box is larger
    assert isotropic_search(DiagForm([1, 1, -1]), 3, node_budget=7) == (1, 0, 1)
    # over Q(sqrt 2) one coordinate's box at height 3000 has 6001^2 points
    with pytest.raises(BudgetExceededError):
        isotropic_search(DiagForm([1, 1, -7], K2), 3000)
    with pytest.raises(ValueError):
        isotropic_search(f, 3, node_budget=0)
    with pytest.raises(BudgetExceededError):
        uniformity_verdict(GroupSpec("SO", form=f), 3, node_budget=48)
    assert uniformity_verdict(GroupSpec("SO", form=f), 3,
                              node_budget=49).status == Verdict.INCONCLUSIVE


def test_nilpotency_cross_check_raises_on_a_wrong_power(monkeypatch):
    # tr(X) = 1, so X is not nilpotent; a product that wrongly returns zero
    # rows makes the power test claim X^2 = 0, which the trace test refutes
    x = ExactMatrix.from_rows([[1, 1], [0, 0]])
    assert not is_nilpotent(x)
    monkeypatch.setattr(groups, "_sparse_row_times", lambda row, x_rows: {})
    with pytest.raises(AssertionError, match="disagree"):
        is_nilpotent(x)


# -- the transvection on ring integers against the field-value build it replaced -----

TRANSVECTION_FIELDS = [None, 2, 3, 5, 13, -1, -3]


def _entry(m, big):
    """A vector entry or coefficient: a rational with a denominator, a small
    ring integer p + q*omega, or (over Q(sqrt m)) a QuadScalar with rational
    coordinates."""
    if m is None:
        return st.one_of(_rational(big), _ring_integer(m))
    return st.one_of(_rational(big), _ring_integer(m), _scalar(m, big))


@st.composite
def _transvection_case(draw):
    """(form, isotropic vector) over Q or Q(sqrt m), n = 3..6, built around a
    vector whose first ``zeros`` coordinates are 0."""
    m = draw(st.sampled_from(TRANSVECTION_FIELDS))
    n = draw(st.integers(3, 6))
    zeros = draw(st.integers(0, n - 2))
    big = draw(st.booleans())
    v = [0] * zeros + [draw(_entry(m, big)) for _ in range(zeros, n - 1)]
    v.append(draw(_entry(m, big).filter(lambda x: x != 0)))
    d = [draw(_entry(m, False).filter(lambda x: x != 0)) for _ in range(n - 1)]
    rest = sum((di * vi * vi for di, vi in zip(d, v)), Fraction(0))
    assume(rest != 0)
    return DiagForm(d + [-rest / (v[-1] * v[-1])], _field_desc(m)), tuple(v)


def _entries(g):
    return [(type(x), repr(x)) for x in g.data]


@settings(max_examples=150, deadline=None)
@given(_transvection_case())
@example((DiagForm([Fraction(1, 2), 3, Fraction(-1, 2)]), (Fraction(3, 2), 0, Fraction(3, 2))))
@example((DiagForm([1, 1, 1, -SQRT2], K2), (0, 0, 0, 0)))
def test_transvection_matches_field_oracle(case):
    """The witness equals the field-value build entry by entry, in type and
    repr; a zero vector raises the same error."""
    form, v = case
    assert _outcome(unipotent_from_isotropic, form, v) == \
        _outcome(oracle_transvection, form, v)


def _outcome(build, form, v):
    try:
        return "witness", _entries(build(form, v))
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("form, v, message", [
    (DiagForm([1, 1, -1]), (1, 0), "vector length does not match the form"),
    (DiagForm([1, 1, -2], K2), (0, SQRT2 - SQRT2, Fraction(0)),
     "isotropic vector must be nonzero"),
    (DiagForm([1, 1, -1]), (1, 1, 1), "vector is not isotropic for the form"),
    (DiagForm([SQRT2, 1, -1], K2), (1, 0, 1), "vector is not isotropic for the form"),
    (DiagForm([1, -1]), (1, 1), "degenerate transvection: binary forms have no "
                                "nontrivial unipotent"),
    (DiagForm([2, Fraction(-1, 2)], K2), (Fraction(1, 2), 1), "degenerate transvection: "
     "binary forms have no nontrivial unipotent"),
])
def test_transvection_errors_match_field_oracle(form, v, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        unipotent_from_isotropic(form, v)
    assert _outcome(unipotent_from_isotropic, form, v) == \
        _outcome(oracle_transvection, form, v) == (ValueError, message)


def test_transvection_clears_denominators_once(monkeypatch):
    """One to_ring per witness; no ExactMatrix product and no field-value
    re-verification."""
    cases = [(DiagForm([Fraction(1, 2), 3, Fraction(-1, 2)]), (Fraction(3, 2), 0, Fraction(3, 2))),
             (DiagForm([1, 1, -1, 5]), (0, 1, 1, 0)),
             (DiagForm([SQRT2, 1, 1, -1], K2), (0, 1, 0, 1))]
    for m, coeffs in ((5, [1, 1, -3]), (-3, [1, 1, 1])):
        form = DiagForm(coeffs, _field_desc(m))
        cases.append((form, isotropic_search(form, 2)))
    expected = [_entries(unipotent_from_isotropic(form, v)) for form, v in cases]
    calls = []
    real = groups.to_ring

    def counted(*args):
        calls.append(args)
        return real(*args)

    def forbidden(*args):
        raise AssertionError("ExactMatrix product or field-value verification called")

    monkeypatch.setattr(groups, "to_ring", counted)
    monkeypatch.setattr(ExactMatrix, "__mul__", forbidden)
    monkeypatch.setattr(groups, "preserves_form", forbidden)
    monkeypatch.setattr(groups, "is_unipotent", forbidden)
    for (form, v), before in zip(cases, expected):
        calls.clear()
        assert _entries(unipotent_from_isotropic(form, v)) == before
        assert len(calls) == 1


def test_transvection_rejects_a_vector_of_another_field():
    r3 = QuadScalar(0, 1, 3)
    with pytest.raises(ValueError, match=r"^0\+1\*sqrt\(3\) does not lie in Q\(sqrt\(2\)\)$"):
        unipotent_from_isotropic(DiagForm([1, 1, -1], K2), (r3, 0, r3))
