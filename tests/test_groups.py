import itertools
from fractions import Fraction

import pytest

from latlab.enumeration import DEFAULT_NODE_BUDGET
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
from latlab.numfield import NumberFieldDesc
from latlab.scalars import QuadScalar

from conftest import random_unimodular

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


def test_adjoint_systole_box_budget():
    # 101^3 > DEFAULT_NODE_BUDGET box points are refused before the scan
    assert 101 ** 3 > DEFAULT_NODE_BUDGET >= 5 ** 8
    g = ExactMatrix.from_rows([[2, 1], [1, 1]])
    with pytest.raises(BudgetExceededError):
        adjoint_systole(g, 50)
    with pytest.raises(BudgetExceededError):
        adjoint_systole(ExactMatrix.identity(4), 1)     # 3^15 points


def _adjoint_by_candidates(g, h):
    """Reference adjoint systole: conjugate every trace-zero integer matrix in
    the box and take its Frobenius norm; ties go to the first nonzero
    row-major entry, sign-normalized, then lexicographic order."""
    n = g.rows
    g_inv = g.inv()
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


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("SL", n=1)
    with pytest.raises(ValueError):
        GroupSpec("SO")
    with pytest.raises(ValueError):
        DiagForm([1])
    with pytest.raises(ValueError):
        DiagForm([1, 0])
