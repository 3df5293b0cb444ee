"""Restriction of scalars from Q(sqrt(m)) to Q.

An element a + b*sqrt(m) becomes the 2x2 rational block [[a, m*b], [b, a]]
(the matrix of multiplication by the element in the basis (1, sqrt(m))), and
an n x n matrix over the field becomes the 2n x 2n rational matrix of blocks.
The block model is literal for the ring basis (e_i, sqrt(m) e_i); for
m = 1 mod 4 the integer ring uses omega = (1+sqrt(m))/2 and the stabilizer
test conjugates by the block-diagonal change of basis accordingly.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import ExactMatrix
from .numfield import IntegerRing
from .scalars import QuadScalar, validate_field_param


class RestrictedMatrix:
    """A 2n x 2n rational matrix whose 2x2 blocks have shape [[a, m b], [b, a]]."""

    __slots__ = ("n", "m", "matrix")

    def __init__(self, n: int, m: int, matrix: ExactMatrix):
        if matrix.rows != 2 * n or matrix.cols != 2 * n:
            raise ValueError("restricted matrix must be 2n x 2n")
        for i in range(n):
            for j in range(n):
                a = matrix[2 * i, 2 * j]
                top = matrix[2 * i, 2 * j + 1]
                b = matrix[2 * i + 1, 2 * j]
                d = matrix[2 * i + 1, 2 * j + 1]
                if a != d or top != m * b:
                    raise ValueError("block (%d, %d) is not of restricted shape" % (i, j))
        self.n = n
        self.m = m
        self.matrix = matrix

    def block(self, i: int, j: int) -> QuadScalar:
        """The field element encoded by block (i, j)."""
        a = Fraction(self.matrix[2 * i, 2 * j])
        b = Fraction(self.matrix[2 * i + 1, 2 * j])
        return QuadScalar(a, b, self.m)

    def __repr__(self):
        return "RestrictedMatrix(n=%d, m=%d)" % (self.n, self.m)


def res_element(x: QuadScalar) -> ExactMatrix:
    """The 2x2 rational matrix [[a, m b], [b, a]] of a + b*sqrt(m)."""
    if not isinstance(x, QuadScalar):
        raise TypeError("res_element needs an element of a quadratic field")
    a = Fraction(x.a)
    b = Fraction(x.b)
    return ExactMatrix.from_rows([[a, x.m * b], [b, a]])


def res_matrix(g: ExactMatrix, m: int | None = None) -> RestrictedMatrix:
    """Blockwise restriction of an n x n matrix over Q(sqrt(m)), m that of g.cleared() if None."""
    if not g.is_square:
        raise ValueError("restriction needs a square matrix")
    if m is None:
        try:
            m = g.cleared()[0].m
        except ValueError:
            raise ValueError("matrix entries live in different fields") from None
        if m is None:
            raise ValueError("specify m for a matrix with purely rational entries")
    validate_field_param(m)
    n = g.rows
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            e = g[i, j]
            if isinstance(e, QuadScalar) and e.b != 0 and e.m != m:
                raise ValueError("matrix entries live in different fields")
            a, b = (e.a, e.b) if isinstance(e, QuadScalar) else (e, 0)
            rows[2 * i][2 * j:2 * j + 2] = [a, m * b]
            rows[2 * i + 1][2 * j:2 * j + 2] = [b, a]
    return RestrictedMatrix(n, m, ExactMatrix.from_rows(rows))


def recover_embeddings(restricted: RestrictedMatrix):
    """Characteristic polynomial coefficients (ascending, monic) of a 1x1 block.

    The two roots are the images of the element under both embeddings:
    t^2 - 2a t + (a^2 - m b^2).
    """
    if restricted.n != 1:
        raise ValueError("embedding recovery expects the 2x2 element model")
    x = restricted.block(0, 0)
    return [x.norm(), -x.trace(), Fraction(1)]


def entries_in_ring(g: ExactMatrix, ring: IntegerRing) -> bool:
    return all(ring.contains(e) for e in g.data)


def res_stabilizer_check(g: ExactMatrix, ring: IntegerRing) -> bool:
    """True iff g and g^-1 have all entries in the ring of integers.

    Equivalent to the restricted matrix stabilizing Z^(2n) in the
    omega-adapted basis; :func:`res_stabilizes_zlattice` computes that other
    route directly so the two can be cross-checked.
    """
    if not g.is_square:
        raise ValueError("stabilizer check needs a square matrix")
    inverse = g.inv()     # ValueError for a singular g, integral or not
    return entries_in_ring(g, ring) and entries_in_ring(inverse, ring)


def omega_basis_matrix(n: int, ring: IntegerRing) -> ExactMatrix:
    """Block-diagonal change of basis from (1, sqrt(m)) to (1, omega) blocks."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[2 * i][2 * i:2 * i + 2] = [1, ring.omega.a]
        rows[2 * i + 1][2 * i + 1] = ring.omega.b
    return ExactMatrix.from_rows(rows)


def res_stabilizes_zlattice(g: ExactMatrix, ring: IntegerRing) -> bool:
    """Does the restricted matrix stabilize Z^(2n) in the omega-adapted basis?"""
    from .arith import ZLattice, stabilizes

    restricted = res_matrix(g, ring.m)
    basis = omega_basis_matrix(g.rows, ring)
    lattice = ZLattice([[basis[r, c] for r in range(basis.rows)]
                        for c in range(basis.cols)])
    return stabilizes(restricted.matrix, lattice)
