"""Arithmetic-subgroup bookkeeping over Z-lattices.

Stabilizer membership, the commensurability constant m with
m L <= L' <= (1/m) L, sublattice indices, counting of intermediate lattices
(as subgroups of the finite quotient), and principal congruence subgroups.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import BudgetExceededError
from .matrices import ExactMatrix
from .scalars import denominator_lcm

SUBGROUP_ENUM_BUDGET = 10**6


class ZLattice:
    """Full-rank Z-lattice in Q^n given by basis columns with rational entries."""

    __slots__ = ("n", "basis")

    def __init__(self, basis):
        basis = [tuple(Fraction(e) for e in v) for v in basis]
        if not basis:
            raise ValueError("a lattice needs at least one basis vector")
        n = len(basis)
        if any(len(v) != n for v in basis):
            raise ValueError("basis must be square (full rank)")
        self.n = n
        self.basis = tuple(basis)
        if self.basis_matrix().det() == 0:
            raise ValueError("basis does not span Q^n")

    @classmethod
    def standard(cls, n: int) -> "ZLattice":
        return cls([[Fraction(int(i == j)) for i in range(n)] for j in range(n)])

    def basis_matrix(self) -> ExactMatrix:
        return ExactMatrix.from_rows(
            [[self.basis[j][i] for j in range(self.n)] for i in range(self.n)]
        )

    def scaled(self, c) -> "ZLattice":
        c = Fraction(c)
        return ZLattice([[c * e for e in v] for v in self.basis])

    def __repr__(self):
        return "ZLattice(n=%d)" % self.n


def stabilizes(g: ExactMatrix, lattice: ZLattice) -> bool:
    """True iff g maps the lattice onto itself (so det g = +-1)."""
    if not g.is_square or g.rows != lattice.n:
        raise ValueError("matrix size does not match the lattice")
    if g.det() == 0:
        raise ValueError("matrix is singular")
    b = lattice.basis_matrix()
    b_inv = b.inv()
    fwd = b_inv * g * b
    if not fwd.is_integral():
        return False
    bwd = b_inv * g.inv() * b
    return bwd.is_integral()


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


def intermediate_lattices(lattice: ZLattice, m: int,
                          budget: int = SUBGROUP_ENUM_BUDGET) -> int:
    """Count of lattices M with m*L <= M <= (1/m)*L.

    These correspond to subgroups of the quotient (1/m)L / mL = (Z/m^2)^n,
    enumerated as closures of generating tuples of length <= n.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = lattice.n
    return _count_subgroups(m * m, n, budget)


def _count_subgroups(q: int, n: int, budget: int) -> int:
    """Number of subgroups of (Z/q)^n by generator-closure enumeration."""
    if q == 1:
        return 1
    elements = list(itertools.product(range(q), repeat=n))
    if len(elements) ** n > budget:
        raise BudgetExceededError(
            "subgroup enumeration over (Z/%d)^%d exceeds the %d-step budget"
            % (q, n, budget),
            budget=budget,
        )
    steps = 0
    seen = set()
    for gens in itertools.product(elements, repeat=n):
        group = {tuple([0] * n)}
        frontier = [tuple([0] * n)]
        while frontier:
            base = frontier.pop()
            for g in gens:
                nxt = tuple((a + b) % q for a, b in zip(base, g))
                steps += 1
                if steps > budget:
                    raise BudgetExceededError(
                        "subgroup enumeration exceeded the %d-step budget" % budget,
                        budget=budget,
                    )
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        seen.add(frozenset(group))
    return len(seen)


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
            if (int(Fraction(g[i, j])) - target) % m != 0:
                return False
    return True


def congruence_index(n: int, m: int) -> int:
    """|SL_n(Z/m)| by direct enumeration; budgeted to n = 2, m <= 7."""
    if n != 2:
        raise ValueError("enumeration budget covers n = 2 only")
    if not 1 <= m <= 7:
        raise ValueError("enumeration budget covers m <= 7 only")
    if m == 1:
        return 1
    count = 0
    rng = range(m)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if (a * d - b * c) % m == 1:
            count += 1
    return count
