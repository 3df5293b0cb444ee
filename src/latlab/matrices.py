"""Dense exact matrices over Q or Q(sqrt(m)).

Entries are Fractions or QuadScalars (integers are promoted to Fraction on
construction so that true division never falls back to floats).  There is one
elimination, :func:`fraction_free_adjugate`: a Bareiss pass over the ring
integers Z or Z[sqrt(m)] that never leaves the ring it is given.
:meth:`ExactMatrix.cleared` writes a matrix as G/D with G over the ring, by
one ``rings.to_ring``, and keeps that triple for ``det``, ``inv``, ``solve``,
``is_integral`` and the ring tests of :mod:`latlab.groups`.  ``det``, ``inv``
and ``solve`` run the pass once on G and divide once at the end, so exact
entries grow only as minors of G do.  The ring is Z[sqrt(m)] as soon as one
entry is a QuadScalar, rational or not, so that results are QuadScalars
exactly then; the pass runs on ints or :class:`latlab.rings.QuadInt` elements,
which the ring's ``quotient`` and ``lift`` turn back into field values.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .rings import _typed_field, to_ring
from .scalars import QuadScalar, promote_entry


class ExactMatrix:
    __slots__ = ("rows", "cols", "data", "_cleared")

    def __init__(self, rows: int, cols: int, entries):
        entries = [promote_entry(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(
                "expected %d entries for a %dx%d matrix, got %d"
                % (rows * cols, rows, cols, len(entries))
            )
        self.rows = rows
        self.cols = cols
        self.data = tuple(entries)
        self._cleared = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [Fraction(1) if i == j else Fraction(0)
                          for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix size mismatch")
        return ExactMatrix(
            self.rows, self.cols,
            [x + y for x, y in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix size mismatch")
        return ExactMatrix(
            self.rows, self.cols,
            [x - y for x, y in zip(self.data, other.data)],
        )

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-x for x in self.data])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    "cannot multiply %dx%d by %dx%d"
                    % (self.rows, self.cols, other.rows, other.cols)
                )
            out = []
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(other.cols):
                    acc = ri[0] * other.data[j]
                    for k in range(1, self.cols):
                        acc = acc + ri[k] * other.data[k * other.cols + j]
                    out.append(acc)
            return ExactMatrix(self.rows, other.cols, out)
        if isinstance(other, (int, Fraction, QuadScalar)):
            return ExactMatrix(self.rows, self.cols,
                               [x * other for x in self.data])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadScalar)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not self.is_square or k < 0:
            raise ValueError("powers need a square matrix and k >= 0")
        out = ExactMatrix.identity(self.rows)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            x == y for x, y in zip(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows,
            [self.data[i * self.cols + j]
             for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self):
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        if not self.rows:
            return Fraction(0)
        acc = self.data[0]
        for i in range(1, self.rows):
            acc = acc + self.data[i * self.cols + i]
        return acc

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def is_identity(self) -> bool:
        return self.is_square and all(
            self.data[i * self.cols + j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols)
        )

    # -- elimination ------------------------------------------------------------

    def cleared(self):
        """(ring, D, G) with self = G/D, G the row-major tuple of entries over
        Z or Z[sqrt(m)] for the m of ``rings._typed_field``.  One ``to_ring``
        on first use, kept: data is a tuple, and readers copy G to change it."""
        if self._cleared is None:
            ring, scale, entries = to_ring(self.data, _typed_field(self.data))
            self._cleared = ring, scale, tuple(entries)
        return self._cleared

    def _adjugate(self, what):
        """(ring, D, det G, adj G) for self = G/D as :meth:`cleared` gives
        it, by one fraction-free pass; adj G is None when self is singular."""
        if not self.is_square:
            raise ValueError("%s needs a square matrix" % what)
        ring, scale, entries = self.cleared()
        return (ring, scale) + fraction_free_adjugate(entries, self.rows, ring)

    def det(self):
        """det(G/D) = det G / D^n, and 1 for the 0 x 0 matrix.  A Fraction
        when no entry is a QuadScalar, else a QuadScalar in the entries' field
        (0 included)."""
        ring, scale, det, _ = self._adjugate("determinant")
        return ring.quotient(det, scale ** self.rows)

    def inv(self) -> "ExactMatrix":
        """(G/D)^-1 = D adj G / det G; ValueError if singular or 0 x 0.
        Entries are Fractions when no entry is a QuadScalar, else QuadScalars
        in the entries' field."""
        ring, scale, det, adj = self._adjugate("inverse")
        if adj is None:
            raise ValueError("matrix is singular")
        n = self.rows
        return ExactMatrix.from_rows(
            [[ring.quotient(scale * e, det) for e in adj[i * n:(i + 1) * n]] for i in range(n)])

    def solve(self, rhs):
        """Solve self * x = rhs (rhs a flat vector) exactly; self square:
        x = D adj G rhs / det G, with no inverse formed.  Errors as inv's,
        raised before rhs is read; Fractions when no entry of self or rhs is
        a QuadScalar, else QuadScalars.  The ring is that of self alone: adj G
        and det G are lifted to its field, and D adj G rhs, a Fraction or a
        QuadScalar, is divided by det G there."""
        ring, scale, det, adj = self._adjugate("inverse")
        if adj is None:
            raise ValueError("matrix is singular")
        n = self.rows
        if n == 0:
            raise ValueError("matrix needs at least one row")
        rhs = [promote_entry(v) for v in rhs]
        if len(rhs) != n:
            raise ValueError("right-hand side has wrong length")
        lift = ring.lift
        return [scale * sum(map(operator.mul, map(lift, adj[i * n:(i + 1) * n]), rhs))
                / lift(det) for i in range(n)]

    def is_integral(self) -> bool:
        """Every entry a rational integer (D = 1, G rational); ValueError if fields mix."""
        ring, scale, entries = self.cleared()
        return scale == 1 and (ring.m is None or not any(e.b for e in entries))

    def __repr__(self):
        return "ExactMatrix(%r)" % (self.to_rows(),)


def fraction_free_adjugate(entries, n: int, ring):
    """(det G, adj G) of the n x n matrix G with row-major entries in
    ``ring``, Z or Z[sqrt(m)] as :func:`latlab.rings.to_ring` returns it;
    adj G is row-major and G adj G = det G * I.  A singular G gives
    (ring.zero, None), and n = 0 gives (ring.one, []).

    One fraction-free Gauss-Jordan pass on [G | I] (Bareiss 1968; Cohen, A
    Course in Computational Algebraic Number Theory, 2.2): step k replaces
    every row r but the pivot row by (p_k row_r - row_r[k] row_k) / p_(k-1),
    where p_k is the k-th pivot and p_(-1) = 1.  Every entry stays a minor of
    [G | I], so each division is exact in the ring.  The left block ends as
    delta * I with delta = p_(n-1) = +-det G, the sign being that of the row
    swaps, and the right block as delta * G^-1.
    """
    div, one, zero = ring.exact_div, ring.one, ring.zero
    rows = [list(entries[i * n:(i + 1) * n]) + [one if j == i else zero for j in range(n)]
            for i in range(n)]
    prev, swaps = one, 0
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return zero, None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            swaps += 1
        top = rows[k]
        pivot = top[k]
        # columns left of k + 1 are no longer read: column k becomes zero off
        # the pivot row, and earlier pivot columns hold the diagonal pivot
        for r, row in enumerate(rows):
            if r != k:
                f = row[k]
                for j in range(k + 1, 2 * n):
                    row[j] = div(pivot * row[j] - f * top[j], prev)
        prev = pivot
    if swaps % 2:
        return -prev, [-e for row in rows for e in row[n:]]
    return prev, [e for row in rows for e in row[n:]]
