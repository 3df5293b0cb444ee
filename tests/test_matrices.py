from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latlab.groups import DiagForm, adjoint_systole, is_nilpotent, is_unipotent, preserves_form
from latlab.matrices import ExactMatrix, fraction_free_adjugate
from latlab.numfield import NumberFieldDesc
from latlab.resk import res_matrix
from latlab.rings import IntRing, QuadInt, QuadIntRing, to_ring
from latlab.scalars import QuadScalar

from conftest import oracle_det, oracle_inv, oracle_solve


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
    ring = IntRing if m is None else QuadIntRing(m)
    return draw(st.lists(entry, min_size=n * n, max_size=n * n)), n, ring


@settings(max_examples=150, deadline=None)
@given(_ring_matrix())
def test_fraction_free_adjugate_matches_exact_inverse(case):
    entries, n, ring = case
    g = ExactMatrix(n, n, entries)
    # the same integer coordinates as ring elements, met by the field oracles lifted
    det, adj = fraction_free_adjugate(to_ring(entries, ring.m)[2], n, ring)
    assert ring.lift(det) == oracle_det(g)
    if det == 0:
        assert adj is None
        return
    assert all(ring.lift(x) == ring.lift(det) * y for x, y in zip(adj, oracle_inv(g).data))
    # the adjugate stays in the ring
    if ring.m is not None:
        assert all(type(x) is QuadInt and type(x.a) is type(x.b) is int for x in adj)
    else:
        assert all(isinstance(x, int) for x in adj)


def test_fraction_free_adjugate_of_the_empty_matrix():
    assert fraction_free_adjugate([], 0, IntRing) == (1, [])


@st.composite
def _field_entry(draw, m):
    """A Fraction with a denominator, or (m given) a QuadScalar of Q(sqrt(m)),
    possibly rational; zero often, so that pivots need row swaps."""
    small = st.one_of(st.just(0), st.integers(-5, 5))
    den = st.integers(1, 4)
    a = Fraction(draw(small), draw(den))
    if m is None or draw(st.booleans()):
        return a
    return QuadScalar(a, Fraction(draw(small), draw(den)), m)


@st.composite
def _field_matrix(draw):
    """(matrix, rhs) over Q, Q(sqrt 2) or Q(sqrt 5), n = 0..4, with mixed
    Fraction/QuadScalar entries; a row may be a multiple of another, so some
    matrices are singular, and rhs sometimes has the wrong length."""
    m = draw(st.sampled_from([None, 2, 5]))
    n = draw(st.integers(0, 4))
    rows = [[draw(_field_entry(m)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(_field_entry(m))
        rows[i] = [c * x for x in rows[j]]
    size = n + draw(st.sampled_from([0, 0, 0, 1]))
    rhs = [draw(_field_entry(m)) for _ in range(size)]
    return ExactMatrix(n, n, [e for row in rows for e in row]), rhs


def _outcome(fn, *args):
    """(values, their strings) of fn(*args), or its error and message."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    values = list(out.data) if isinstance(out, ExactMatrix) else out
    values = values if isinstance(values, list) else [values]
    return values, [str(x) for x in values]


def _typed(values, entries):
    quad = any(isinstance(x, QuadScalar) for x in entries)
    return all(isinstance(x, QuadScalar if quad else Fraction) for x in values)


@settings(max_examples=300, deadline=None)
@given(_field_matrix())
def test_det_inv_solve_match_the_field_elimination_oracles(case):
    a, rhs = case
    for got, want in ((_outcome(a.det), _outcome(oracle_det, a)),
                      (_outcome(a.inv), _outcome(oracle_inv, a)),
                      (_outcome(a.solve, rhs), _outcome(oracle_solve, a, rhs))):
        assert got == want      # values by ==, and their printed forms
    det = a.det()
    assert _typed([det], a.data)
    if det != 0 and a.rows:
        assert _typed(a.inv().data, a.data)
        if len(rhs) == a.rows:
            assert _typed(a.solve(rhs), list(a.data) + rhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from([None, 2, 5]), st.data())
def test_non_square_messages_match_the_oracles(rows, cols, m, data):
    if rows == cols:
        cols += 1
    a = ExactMatrix(rows, cols, [data.draw(_field_entry(m)) for _ in range(rows * cols)])
    for method, oracle, message in ((a.det, oracle_det, "determinant needs a square matrix"),
                                    (a.inv, oracle_inv, "inverse needs a square matrix")):
        assert _outcome(method) == _outcome(oracle, a) == (ValueError, message)
    assert _outcome(a.solve, [1]) == _outcome(oracle_solve, a, [1]) \
        == (ValueError, "inverse needs a square matrix")


def test_result_type_rule_and_edge_cases():
    r2 = QuadScalar(0, 1, 2)
    rational_quad = ExactMatrix.from_rows([[QuadScalar(2, 0, 2), 0], [1, QuadScalar(3, 0, 2)]])
    det = rational_quad.det()
    assert isinstance(det, QuadScalar) and det.m == 2 and str(det) == "6"
    assert all(isinstance(x, QuadScalar) for x in rational_quad.inv().data)
    assert [str(x) for x in rational_quad.inv().data] == ["1/2", "0", "-1/6", "1/3"]
    zero = ExactMatrix.from_rows([[r2, 1], [2, r2]]).det()
    assert isinstance(zero, QuadScalar) and zero == 0 and str(zero) == "0"
    assert type(ExactMatrix.from_rows([[1, 2], [3, 4]]).det()) is Fraction
    x = ExactMatrix.from_rows([[2, 1], [1, 1]]).solve([r2, 0])
    assert all(isinstance(v, QuadScalar) for v in x) and [str(v) for v in x] == \
        ["0+1*sqrt(2)", "0-1*sqrt(2)"]
    # 0 x 0: determinant 1, trace 0, no inverse; 1 x 1
    empty = ExactMatrix(0, 0, [])
    assert type(empty.det()) is Fraction and empty.det() == 1
    assert type(empty.trace()) is Fraction and empty.trace() == 0
    for call in (empty.inv, lambda: empty.solve([])):
        with pytest.raises(ValueError, match="matrix needs at least one row"):
            call()
    one = ExactMatrix.from_rows([[Fraction(-2, 3)]])
    assert str(one.det()) == "-2/3" and str(one.inv()[0, 0]) == "-3/2"
    assert one.solve([1]) == [Fraction(-3, 2)]
    with pytest.raises(ValueError, match="matrix is singular"):
        ExactMatrix.from_rows([[0]]).solve([1])


def test_solve_reports_a_singular_matrix_before_mixing_fields():
    """The ring is chosen from the matrix alone: a singular matrix over
    Q(sqrt 2) with a Q(sqrt 3) right-hand side is reported singular, and a
    regular one fails on mixing the fields, both as the oracle does."""
    r2, r3 = QuadScalar(0, 1, 2), QuadScalar(0, 1, 3)
    singular = ExactMatrix.from_rows([[r2, 1], [2, r2]])
    regular = ExactMatrix.from_rows([[r2, 1], [1, r2]])
    assert _outcome(singular.solve, [r3, 0]) == _outcome(oracle_solve, singular, [r3, 0]) \
        == (ValueError, "matrix is singular")
    assert _outcome(regular.solve, [r3, 0]) == _outcome(oracle_solve, regular, [r3, 0]) \
        == (ValueError, "cannot mix Q(sqrt(2)) and Q(sqrt(3))")


def test_imaginary_field_entries():
    i = QuadScalar(0, 1, -1)
    a = ExactMatrix.from_rows([[i, 1], [1, 2]])
    assert a.det() == QuadScalar(-1, 2, -1) == oracle_det(a)
    assert a.inv() == oracle_inv(a) and a * a.inv() == ExactMatrix.identity(2)


def _slot_case(rnd, m):
    """Row-major entries of a seeded n x n matrix, n = 1..3, over Q (m None)
    or Q(sqrt(m)) with denominators; a fifth of the entries are rational
    QuadScalars typed in Q(sqrt(3)) or Q(sqrt(7)).  Half the matrices are
    unipotent upper triangular, so of determinant 1."""
    n = rnd.randint(1, 3)

    def entry():
        a, roll = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)), rnd.random()
        if roll < 0.2:
            return QuadScalar(a, 0, rnd.choice([3, 7]))
        if m is None or roll < 0.5:
            return a
        return QuadScalar(a, Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)), m)

    unipotent = rnd.random() < 0.5
    return [Fraction(i == j) if unipotent and j <= i else entry()
            for i in range(n) for j in range(n)], n


def _slot_readers(n):
    size = max(n, 2)
    over_q = DiagForm([1, -1, 2][:size])
    over_k2 = DiagForm([1, QuadScalar(0, 1, 2), 1][:size], NumberFieldDesc(m=2))
    return {
        "det": ExactMatrix.det,
        "inv": ExactMatrix.inv,
        "solve": lambda g: g.solve(list(range(1, n + 1))),
        "is_integral": ExactMatrix.is_integral,
        "is_unipotent": is_unipotent,
        "is_nilpotent": is_nilpotent,
        "preserves_form": lambda g: preserves_form(g, over_q),
        "preserves_form_k2": lambda g: preserves_form(g, over_k2),
        "adjoint_systole": lambda g: adjoint_systole(g, 1),
        "res_matrix": lambda g: res_matrix(g).matrix,
    }


def _read(reader, g):
    try:
        return repr(reader(g))
    except ValueError as exc:
        return "ValueError: %s" % exc


def _rule_m(data):
    """The m of the irrational entries, else of the first QuadScalar."""
    irrational = {x.m for x in data if isinstance(x, QuadScalar) and x.b}
    if irrational:
        (m,) = irrational
        return m
    return next((x.m for x in data if isinstance(x, QuadScalar)), None)


def test_cleared_slot_reads_the_same_in_any_order(rnd):
    """Every reader of the cleared slot gives, in any order of calls on one
    matrix (is_unipotent first in some), what it gives on a fresh matrix,
    and the slot still holds to_ring(data, m) for the rule's m at the end."""
    for m in (None, 2, 5, -1):
        for _ in range(12):
            data, n = _slot_case(rnd, m)
            readers = _slot_readers(n)
            fresh = {name: _read(f, ExactMatrix(n, n, data)) for name, f in readers.items()}
            for run in range(3):
                names = sorted(readers, key=lambda _: rnd.random())
                if run == 0:
                    names.remove("is_unipotent")
                    names.insert(0, "is_unipotent")
                g = ExactMatrix(n, n, data)
                for name in names:
                    assert _read(readers[name], g) == fresh[name], (name, names)
                ring, scale, entries = g.cleared()
                want_ring, want_scale, want = to_ring(data, _rule_m(data))
                assert type(entries) is tuple
                assert (ring.m, scale, repr(entries)) == \
                    (want_ring.m, want_scale, repr(tuple(want)))


def test_mixed_fields_are_refused_by_the_slot():
    mixed = ExactMatrix(1, 2, [QuadScalar(0, 1, 3), QuadScalar(0, 1, 2)])
    for reader in (mixed.cleared, mixed.is_integral):
        with pytest.raises(ValueError, match=r"^cannot mix Q\(sqrt\(3\)\) and Q\(sqrt\(2\)\)$"):
            reader()
