"""Dense exact matrices over Q or Q(sqrt(m)).

Entries are Fractions or QuadScalars (integers are promoted to Fraction on
construction so that true division never falls back to floats).  Elimination
uses exact field division with first-nonzero pivoting; there is no numerical
stability concern, only growth of exact entries, which is fine at the small
sizes this package works with.  :func:`fraction_free_adjugate` inverts a
matrix over the ring integers Z or Z[sqrt(m)] without leaving the ring.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import QuadScalar, quad_exact_div


def _promote(entry):
    if isinstance(entry, int):
        return Fraction(entry)
    if isinstance(entry, (Fraction, QuadScalar)):
        return entry
    raise TypeError("matrix entries must be exact scalars, got %r" % (entry,))


class ExactMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries):
        entries = [_promote(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(
                "expected %d entries for a %dx%d matrix, got %d"
                % (rows * cols, rows, cols, len(entries))
            )
        self.rows = rows
        self.cols = cols
        self.data = tuple(entries)

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

    def det(self):
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        work = self.to_rows()
        sign_flips = 0
        det = None
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if work[r][col] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                sign_flips ^= 1
            pivot = work[col][col]
            det = pivot if det is None else det * pivot
            for r in range(col + 1, n):
                factor = work[r][col] / pivot
                if factor == 0:
                    continue
                row = work[r]
                prow = work[col]
                for c in range(col, n):
                    row[c] = row[c] - factor * prow[c]
        return -det if sign_flips else det

    def inv(self) -> "ExactMatrix":
        if not self.is_square:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        work = self.to_rows()
        aug = ExactMatrix.identity(n).to_rows()
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if work[r][col] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise ValueError("matrix is singular")
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot = work[col][col]
            work[col] = [x / pivot for x in work[col]]
            aug[col] = [x / pivot for x in aug[col]]
            for r in range(n):
                if r == col or work[r][col] == 0:
                    continue
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return ExactMatrix.from_rows(aug)

    def solve(self, rhs):
        """Solve self * x = rhs (rhs a flat vector) exactly; self square."""
        inv = self.inv()
        n = self.rows
        rhs = [_promote(v) for v in rhs]
        if len(rhs) != n:
            raise ValueError("right-hand side has wrong length")
        return [
            sum((inv[i, k] * rhs[k] for k in range(n)),
                start=Fraction(0))
            for i in range(n)
        ]

    def is_integral(self) -> bool:
        """Every entry a rational integer."""
        for x in self.data:
            if isinstance(x, QuadScalar):
                if x.b != 0 or Fraction(x.a).denominator != 1:
                    return False
            elif Fraction(x).denominator != 1:
                return False
        return True

    def __repr__(self):
        return "ExactMatrix(%r)" % (self.to_rows(),)


def fraction_free_adjugate(entries, n: int):
    """(det G, adj G) of the n x n matrix G with row-major entries in Z or
    Z[sqrt(m)] (all ints, or all QuadScalars with integer coordinates); adj G
    is row-major and G adj G = det G * I.  A singular G gives (0, None).

    One fraction-free Gauss-Jordan pass on [G | I] (Bareiss 1968; Cohen, A
    Course in Computational Algebraic Number Theory, 2.2): step k replaces
    every row r but the pivot row by (p_k row_r - row_r[k] row_k) / p_(k-1),
    where p_k is the k-th pivot and p_(-1) = 1.  Every entry stays a minor of
    [G | I], so each division is exact in the ring.  The left block ends as
    delta * I with delta = p_(n-1) = +-det G, the sign being that of the row
    swaps, and the right block as delta * G^-1.
    """
    quad = isinstance(entries[0], QuadScalar)
    div = quad_exact_div if quad else operator.floordiv
    if quad:
        m = entries[0].m
        one, zero = QuadScalar(1, 0, m), QuadScalar(0, 0, m)
    else:
        one, zero = 1, 0
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
