from fractions import Fraction

import pytest

from latlab.groups import is_unipotent
from latlab.matrices import ExactMatrix
from latlab.numfield import NumberFieldDesc, field_norm, ring_of_integers
from latlab.resk import (
    RestrictedMatrix,
    recover_embeddings,
    res_element,
    res_matrix,
    res_stabilizer_check,
    res_stabilizes_zlattice,
)
from latlab.scalars import QuadScalar


def _rand_quad(rnd, m, span=5, dmax=3):
    return QuadScalar(Fraction(rnd.randint(-span, span), rnd.randint(1, dmax)),
                      Fraction(rnd.randint(-span, span), rnd.randint(1, dmax)), m)


def test_res_element_examples():
    assert res_element(QuadScalar(1, 0, 2)).is_identity()
    assert res_element(QuadScalar(0, 1, 2)).to_rows() == [[0, 2], [1, 0]]
    golden = res_element(QuadScalar(Fraction(1, 2), Fraction(1, 2), 5))
    assert golden.to_rows() == [[Fraction(1, 2), Fraction(5, 2)],
                                [Fraction(1, 2), Fraction(1, 2)]]


def test_res_element_charpoly():
    x = QuadScalar(3, -2, 2)
    r = res_element(x)
    # characteristic polynomial t^2 - Tr t + N
    assert r.trace() == x.trace()
    assert r.det() == x.norm()


def test_res_matrix_unipotent_block():
    g = ExactMatrix.from_rows([[QuadScalar(1, 0, 2), QuadScalar(0, 1, 2)],
                               [QuadScalar(0, 0, 2), QuadScalar(1, 0, 2)]])
    restricted = res_matrix(g)
    assert restricted.matrix.to_rows() == [
        [1, 0, 0, 2],
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert is_unipotent(restricted.matrix)
    assert res_matrix(ExactMatrix.identity(3), m=2).matrix.is_identity()


def test_res_matrix_takes_the_field_of_the_cleared_matrix():
    """m None restricts over the field of the irrational entries, even when
    a rational entry is typed in another field; two irrational fields and an
    all-Fraction matrix are refused."""
    g = ExactMatrix(2, 2, [QuadScalar(3, 0, 3), QuadScalar(0, 1, 2), 0, 1])
    restricted = res_matrix(g)
    assert restricted.m == 2
    assert restricted.matrix == res_matrix(g, 2).matrix
    assert restricted.matrix.to_rows()[:2] == [[3, 0, 0, 2], [0, 3, 1, 0]]
    with pytest.raises(ValueError, match="^matrix entries live in different fields$"):
        res_matrix(ExactMatrix(2, 2, [QuadScalar(0, 1, 3), QuadScalar(0, 1, 2), 0, 1]))
    with pytest.raises(ValueError, match="^specify m for a matrix with purely rational entries$"):
        res_matrix(ExactMatrix(2, 2, [Fraction(1, 2), 0, 0, 1]))


def test_res_matrix_block_shape_validated():
    bad = ExactMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        RestrictedMatrix(1, 2, bad)


def test_multiplicativity(rnd):
    for _ in range(100):
        m = rnd.choice([2, 5, -1])
        g = ExactMatrix.from_rows([[_rand_quad(rnd, m) for _ in range(2)]
                                   for _ in range(2)])
        h = ExactMatrix.from_rows([[_rand_quad(rnd, m) for _ in range(2)]
                                   for _ in range(2)])
        assert res_matrix(g * h, m).matrix == \
            res_matrix(g, m).matrix * res_matrix(h, m).matrix


def test_det_equals_norm(rnd):
    for _ in range(100):
        m = rnd.choice([2, 5, 13])
        g = ExactMatrix.from_rows([[_rand_quad(rnd, m) for _ in range(2)]
                                   for _ in range(2)])
        det = g.det()
        if not isinstance(det, QuadScalar):
            det = QuadScalar(det, 0, m)
        assert res_matrix(g, m).matrix.det() == field_norm(det)
        x = _rand_quad(rnd, m)
        assert res_element(x).det() == field_norm(x)


def test_recover_embeddings_examples():
    assert recover_embeddings(res_matrix(
        ExactMatrix(1, 1, [QuadScalar(0, 1, 2)]))) == [-2, 0, 1]
    assert recover_embeddings(res_matrix(
        ExactMatrix(1, 1, [QuadScalar(1, 1, 2)]))) == [-1, -2, 1]
    # rational element: char poly (t - x)^2
    r = recover_embeddings(res_matrix(ExactMatrix(1, 1, [QuadScalar(3, 0, 2)])))
    assert r == [9, -6, 1]
    with pytest.raises(ValueError):
        recover_embeddings(res_matrix(ExactMatrix.identity(2), m=2))


def test_unipotent_correspondence():
    m = 2
    s = QuadScalar(0, 1, m)
    one = QuadScalar(1, 0, m)
    zero = QuadScalar(0, 0, m)
    unipotents = [
        ExactMatrix.from_rows([[one, s], [zero, one]]),
        ExactMatrix.from_rows([[one, QuadScalar(3, -2, m)], [zero, one]]),
        ExactMatrix.identity(2),
        ExactMatrix.from_rows([[one, zero], [s, one]]),
        ExactMatrix.from_rows([[one, s, QuadScalar(1, 1, m)],
                               [zero, one, QuadScalar(5, 0, m)],
                               [zero, zero, one]]),
    ]
    others = [
        ExactMatrix.from_rows([[QuadScalar(2, 0, m), zero],
                               [zero, QuadScalar(Fraction(1, 2), 0, m)]]),
        ExactMatrix.from_rows([[s, zero], [zero, s]]),
        ExactMatrix.from_rows([[one + s, zero], [zero, one]]),
        ExactMatrix.from_rows([[zero, one], [one, zero]]),
        ExactMatrix.from_rows([[QuadScalar(3, 2, m), one], [one, one]]),
    ]
    for g in unipotents:
        assert is_unipotent(g)
        assert is_unipotent(res_matrix(g, m).matrix)
    for g in others:
        assert not is_unipotent(g)
        assert not is_unipotent(res_matrix(g, m).matrix)


def test_stabilizer_examples():
    ring2 = ring_of_integers(NumberFieldDesc(m=2))
    g = ExactMatrix.from_rows([[QuadScalar(1, 0, 2), QuadScalar(0, 1, 2)],
                               [QuadScalar(0, 0, 2), QuadScalar(1, 0, 2)]])
    assert res_stabilizer_check(g, ring2)
    bad = ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
    assert not res_stabilizer_check(bad, ring2)
    ring5 = ring_of_integers(NumberFieldDesc(m=5))
    omega = ring5.omega
    assert field_norm(omega) == -1  # omega is a unit
    g5 = ExactMatrix.from_rows([[omega, QuadScalar(0, 0, 5)],
                                [QuadScalar(0, 0, 5), omega.inverse()]])
    assert res_stabilizer_check(g5, ring5)


def test_stabilizer_routes_agree(rnd):
    for m in (2, 5):
        ring = ring_of_integers(NumberFieldDesc(m=m))
        omega = ring.omega
        cases = 0
        while cases < 50:
            # random unimodular-over-O matrix: product of elementary shears
            g = ExactMatrix.identity(2)
            g = ExactMatrix.from_rows(
                [[QuadScalar(Fraction(e), 0, m) for e in row] for row in g.to_rows()])
            for _ in range(4):
                i, j = rnd.choice([(0, 1), (1, 0)])
                shear = [[QuadScalar(Fraction(int(a == b)), 0, m) for b in range(2)]
                         for a in range(2)]
                coeff = rnd.randint(-2, 2)
                shear[i][j] = QuadScalar(Fraction(coeff), 0, m) + \
                    rnd.randint(-1, 1) * omega
                g = g * ExactMatrix.from_rows(shear)
            cases += 1
            assert res_stabilizer_check(g, ring)
            assert res_stabilizes_zlattice(g, ring)
        # and a matrix that fails both routes identically
        half = ExactMatrix.from_rows(
            [[QuadScalar(Fraction(1, 2), 0, m), QuadScalar(0, 0, m)],
             [QuadScalar(0, 0, m), QuadScalar(2, 0, m)]])
        assert not res_stabilizer_check(half, ring)
        assert not res_stabilizes_zlattice(half, ring)


def test_singular_rejected():
    ring2 = ring_of_integers(NumberFieldDesc(m=2))
    singular = ExactMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="^matrix is singular$"):
        res_stabilizer_check(singular, ring2)
    # entries outside the ring do not hide the singularity
    halves = ExactMatrix.from_rows([[Fraction(1, 2), 1], [Fraction(1, 2), 1]])
    with pytest.raises(ValueError, match="^matrix is singular$"):
        res_stabilizer_check(halves, ring2)
