"""Arithmetic-subgroup bookkeeping over Z-lattices.

Stabilizer membership, the commensurability constant m with
m L <= L' <= (1/m) L, sublattice indices, counting of intermediate lattices
(as subgroups of the finite quotient), and principal congruence subgroups.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import ExactMatrix
from .scalars import as_fraction, denominator_lcm, factorize

CONGRUENCE_MAX_N = 16


class ZLattice:
    """Full-rank Z-lattice in Q^n given by basis columns with rational entries."""

    __slots__ = ("n", "basis", "_matrix")

    def __init__(self, basis):
        basis = [tuple(Fraction(e) for e in v) for v in basis]
        if not basis:
            raise ValueError("a lattice needs at least one basis vector")
        n = len(basis)
        if any(len(v) != n for v in basis):
            raise ValueError("basis must be square (full rank)")
        self.n = n
        self.basis = tuple(basis)
        self._matrix = ExactMatrix.from_rows(
            [[basis[j][i] for j in range(n)] for i in range(n)])
        if self._matrix.det() == 0:
            raise ValueError("basis does not span Q^n")

    @classmethod
    def standard(cls, n: int) -> "ZLattice":
        return cls([[Fraction(int(i == j)) for i in range(n)] for j in range(n)])

    def basis_matrix(self) -> ExactMatrix:
        return self._matrix

    def scaled(self, c) -> "ZLattice":
        c = Fraction(c)
        return ZLattice([[c * e for e in v] for v in self.basis])

    def __repr__(self):
        return "ZLattice(n=%d)" % self.n


def stabilizes(g: ExactMatrix, lattice: ZLattice) -> bool:
    """True iff g maps the lattice onto itself (so det g = +-1)."""
    if not g.is_square or g.rows != lattice.n:
        raise ValueError("matrix size does not match the lattice")
    det = g.det()
    if det == 0:
        raise ValueError("matrix is singular")
    # B^-1 g B has determinant det g; integral with determinant +-1, its
    # inverse is integral too
    if det != 1 and det != -1:
        return False
    b = lattice.basis_matrix()
    return (b.inv() * g * b).is_integral()


def commensurability_m(lattice: ZLattice, other: ZLattice) -> int:
    """Smallest m >= 1 with m*L inside L' and L' inside (1/m)*L."""
    if lattice.n != other.n:
        raise ValueError("lattices live in different ambient dimensions")
    b = lattice.basis_matrix()
    b_other = other.basis_matrix()
    into_other = b_other.inv() * b      # m * this inside other
    into_this = b.inv() * b_other       # m * other inside this
    return denominator_lcm(into_other.data + into_this.data)


def sublattice_index(sub: ZLattice, sup: ZLattice) -> int:
    """Index [sup : sub] = |det| of the integral transition matrix."""
    if sub.n != sup.n:
        raise ValueError("lattices live in different ambient dimensions")
    transition = sup.basis_matrix().inv() * sub.basis_matrix()
    if not transition.is_integral():
        raise ValueError("first lattice is not contained in the second")
    det = transition.det()
    index = abs(Fraction(det))
    assert index.denominator == 1 and index > 0
    return int(index)


def intermediate_lattices(lattice: ZLattice, m: int) -> int:
    """Count of lattices M with m*L <= M <= (1/m)*L.

    These correspond to subgroups of the quotient (1/m)L / mL = (Z/m^2)^n, a
    product over p^e || m of the subgroup counts of (Z/p^(2e))^n.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    count = 1
    for p, e in factorize(m):
        count *= _p_subgroup_count(p, 2 * e, lattice.n)
    return count


def _p_subgroup_count(p: int, k: int, n: int) -> int:
    """Number of subgroups of (Z/p^k)^n by Birkhoff's formula (Butler,
    Subgroup Lattices and Symmetric Functions, 1994): a subgroup type with
    conjugate partition n >= a_1 >= ... >= a_k >= a_{k+1} = 0 occurs
    prod_i p^(a_{i+1} (n - a_i)) [n - a_{i+1}, a_i - a_{i+1}]_p times.  The sum
    over types is a k-step transfer; ways[a] sums the tails below a_i = a."""
    ways = [1] + [0] * n
    for _ in range(k):
        ways = [sum(p ** (b * (n - a)) * _gaussian_binomial(n - b, a - b, p) * ways[b]
                    for b in range(a + 1))
                for a in range(n + 1)]
    return sum(ways)


def _gaussian_binomial(top: int, bottom: int, p: int) -> int:
    """The number of bottom-dimensional subspaces of F_p^top."""
    num = den = 1
    for i in range(bottom):
        num *= p ** (top - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def congruence_member(g: ExactMatrix, m: int) -> bool:
    """Is g = identity mod m entrywise?  Requires integral g with det 1."""
    if not g.is_square:
        raise ValueError("congruence membership is for square matrices")
    if not g.is_integral():
        raise ValueError("matrix must be integral")
    if g.det() != 1:
        raise ValueError("matrix must have determinant 1")
    if m < 1:
        raise ValueError("modulus must be positive")
    n = g.rows
    for i in range(n):
        for j in range(n):
            target = 1 if i == j else 0
            if (int(as_fraction(g[i, j])) - target) % m != 0:
                return False
    return True


def congruence_index(n: int, m: int) -> int:
    """[SL_n(Z) : Gamma(m)] = |SL_n(Z/m)|, the product over p^e || m of
    p^((e-1)(n^2-1)) |SL_n(F_p)|, |SL_n(F_p)| = p^(n(n-1)/2) prod_{k=2..n} (p^k - 1).

    Below m^(n^2-1) <= 10^(12 (n^2-1)): under 3100 digits for n <= 16, so the
    result stays within Python's int-to-str digit limit."""
    if n < 1:
        raise ValueError("matrix size n must be at least 1")
    if n > CONGRUENCE_MAX_N:
        raise ValueError("matrix size n = %d exceeds the supported maximum %d"
                         % (n, CONGRUENCE_MAX_N))
    if m < 1:
        raise ValueError("modulus must be positive")
    index = 1
    for p, e in factorize(m):
        index *= p ** ((e - 1) * (n * n - 1) + n * (n - 1) // 2)
        for k in range(2, n + 1):
            index *= p ** k - 1
    return index
