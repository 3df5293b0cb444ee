import itertools
from fractions import Fraction

import pytest

from latlab.arith import (
    CONGRUENCE_MAX_N,
    ZLattice,
    _p_subgroup_count,
    commensurability_m,
    congruence_index,
    congruence_member,
    intermediate_lattices,
    stabilizes,
    sublattice_index,
)
from latlab import matrices
from latlab.matrices import ExactMatrix
from latlab.scalars import QuadScalar

from conftest import oracle_stabilizes, random_unimodular


def test_stabilizes_examples(rnd):
    z2 = ZLattice.standard(2)
    assert stabilizes(ExactMatrix.from_rows([[1, 1], [0, 1]]), z2)
    assert not stabilizes(ExactMatrix.from_rows([[2, 0], [0, 1]]), z2)
    for _ in range(20):
        u = random_unimodular(rnd, 3)
        assert stabilizes(u, ZLattice.standard(3))
    with pytest.raises(ValueError):
        stabilizes(ExactMatrix.from_rows([[1, 1], [1, 1]]), z2)


def test_stabilizes_scaled_basis():
    lattice = ZLattice([[Fraction(1, 2), 0], [0, 3]])
    g = ExactMatrix.from_rows([[1, 0], [0, -1]])
    assert stabilizes(g, lattice)
    # upper shear conjugates to [[1, 6], [0, 1]] (still integral) but the
    # lower shear picks up a 1/6 entry
    assert stabilizes(ExactMatrix.from_rows([[1, 1], [0, 1]]), lattice)
    assert not stabilizes(ExactMatrix.from_rows([[1, 0], [1, 1]]), lattice)


def test_stabilizes_matches_oracle(rnd):
    """360 seeded cases over Z^n and lattices with rational bases, n = 2..4:
    g = B U B^-1 for unimodular U (stabilizes), integral conjugates of
    determinant +-2 (B^-1 g B integral, its inverse not), and rational g of
    determinant +-1 that conjugates U by diag(2, 1, ..., 1)."""
    def diag(first, n):
        return ExactMatrix.from_rows([[(first if i == 0 else 1) if i == j else 0
                                       for j in range(n)] for i in range(n)])

    outside = 0
    for k in range(360):
        n = rnd.randint(2, 4)
        if k % 2:
            lattice = ZLattice.standard(n)
        else:
            while True:
                basis = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(n)]
                         for _ in range(n)]
                if ExactMatrix.from_rows(basis).det() != 0:
                    break
            lattice = ZLattice(basis)
        b = lattice.basis_matrix()
        u = random_unimodular(rnd, n, steps=8, shear=3)
        kind = k // 2 % 3
        if kind == 1:
            u = u * diag(rnd.choice((2, -2)), n)
        elif kind == 2:
            u = diag(2, n) * u * diag(Fraction(1, 2), n)
        g = b * u * b.inv()
        found = stabilizes(g, lattice)
        assert found == oracle_stabilizes(g, lattice)
        if kind == 0:
            assert found
        elif kind == 1:
            assert abs(g.det()) == 2 and not found
        else:
            assert abs(g.det()) == 1
            outside += not found
    assert outside >= 60


def test_commensurability_examples():
    z2 = ZLattice.standard(2)
    assert commensurability_m(z2, z2) == 1
    assert commensurability_m(z2, z2.scaled(2)) == 2
    third = ZLattice([[Fraction(1, 3), 0], [0, 1]])
    assert commensurability_m(z2, third) == 3


def test_commensurability_is_minimal(rnd):
    z3 = ZLattice.standard(3)
    for _ in range(25):
        u = random_unimodular(rnd, 3)
        scale = Fraction(rnd.randint(1, 4), rnd.randint(1, 4))
        other = ZLattice([[scale * Fraction(u[i, j]) for i in range(3)]
                          for j in range(3)])
        m = commensurability_m(z3, other)
        b = z3.basis_matrix()
        bo = other.basis_matrix()
        assert (bo.inv() * (m * b)).is_integral()          # m L <= L'
        assert (b.inv() * (m * bo)).is_integral()          # L' <= (1/m) L
        if m > 1:
            k = m - 1
            ok1 = (bo.inv() * (k * b)).is_integral()
            ok2 = (b.inv() * (k * bo)).is_integral()
            assert not (ok1 and ok2)


def test_sublattice_index_examples():
    z2 = ZLattice.standard(2)
    assert sublattice_index(z2.scaled(2), z2) == 4
    assert sublattice_index(ZLattice([[1, 0], [0, 3]]), z2) == 3
    assert sublattice_index(ZLattice([[2, 1], [0, 2]]), z2) == 4
    with pytest.raises(ValueError):
        sublattice_index(ZLattice([[Fraction(1, 2), 0], [0, 1]]), z2)


def test_sublattice_index_clears_each_basis_once(monkeypatch):
    """A lattice clears its basis matrix once, when it is built; the index
    then reuses that matrix and clears only the transition matrix."""
    calls = []
    real = matrices.to_ring
    monkeypatch.setattr(matrices, "to_ring",
                        lambda values, m=None: calls.append(values) or real(values, m))
    sub = ZLattice([[2, 1, Fraction(1, 3)], [0, 2, 0], [0, 0, 3]])
    sup = ZLattice([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]])
    assert len(calls) == 2
    assert sublattice_index(sub, sup) == 36
    assert calls.count(sub.basis_matrix().data) == calls.count(sup.basis_matrix().data) == 1
    assert len(calls) == 3


def test_index_power_law():
    for n in (1, 2, 3):
        lattice = ZLattice.standard(n)
        for m in (2, 3):
            assert sublattice_index(lattice.scaled(m), lattice) == m ** n


def test_index_multiplicative_along_chains(rnd):
    z2 = ZLattice.standard(2)
    for _ in range(20):
        mid_t = ExactMatrix.from_rows(
            [[rnd.randint(1, 3), rnd.randint(0, 2)], [0, rnd.randint(1, 3)]])
        low_t = ExactMatrix.from_rows(
            [[rnd.randint(1, 3), rnd.randint(0, 2)], [0, rnd.randint(1, 3)]])
        mid = ZLattice([[mid_t[i, j] for i in range(2)] for j in range(2)])
        low_mat = mid.basis_matrix() * low_t
        low = ZLattice([[low_mat[i, j] for i in range(2)] for j in range(2)])
        assert sublattice_index(low, z2) == \
            sublattice_index(low, mid) * sublattice_index(mid, z2)


def test_intermediate_lattices_counts():
    assert intermediate_lattices(ZLattice.standard(1), 1) == 1
    assert intermediate_lattices(ZLattice.standard(1), 2) == 3
    assert intermediate_lattices(ZLattice.standard(2), 2) == \
        _subgroups_by_hnf(4, 2)
    assert intermediate_lattices(ZLattice.standard(1), 3) == \
        _subgroups_by_hnf(9, 1)


def _subgroups_by_hnf(q, n):
    """Independent count of subgroups of (Z/q)^n: Hermite-form sublattices of
    Z^n containing q Z^n."""
    def divisors(x):
        return [d for d in range(1, x + 1) if x % d == 0]

    count = 0
    if n == 1:
        return len(divisors(q))
    assert n == 2
    for d1 in divisors(q):
        for d2 in divisors(q):
            for off in range(d1):
                h = ExactMatrix.from_rows([[d1, off], [0, d2]])
                # contains q Z^2 iff q * h^-1 is integral
                if (q * h.inv()).is_integral():
                    count += 1
    return count


def _subgroups_by_closure(q, n):
    """Reference count of subgroups of (Z/q)^n: the distinct closures of all
    n-tuples of generators (every subgroup of (Z/q)^n needs at most n)."""
    zero = (0,) * n
    elements = list(itertools.product(range(q), repeat=n))
    seen = set()
    for gens in itertools.product(elements, repeat=n):
        group = {zero}
        frontier = [zero]
        while frontier:
            base = frontier.pop()
            for g in gens:
                nxt = tuple((a + b) % q for a, b in zip(base, g))
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        seen.add(frozenset(group))
    return len(seen)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                  (3, 2), (4, 1), (6, 1)])
def test_intermediate_lattices_match_oracles(m, n):
    count = intermediate_lattices(ZLattice.standard(n), m)
    assert count == _subgroups_by_closure(m * m, n)
    assert count == _subgroups_by_hnf(m * m, n)


@pytest.mark.parametrize("p, k, n", [(2, 1, 3), (3, 1, 2), (5, 1, 2),
                                     (2, 3, 2), (2, 2, 2), (3, 3, 1)])
def test_birkhoff_count_matches_closure(p, k, n):
    # exponents k that no intermediate-lattice count reaches on its own
    assert _p_subgroup_count(p, k, n) == _subgroups_by_closure(p ** k, n)


def test_intermediate_lattices_z4_cubed():
    # (Z/4)^3: out of reach of the generator-closure enumeration
    assert intermediate_lattices(ZLattice.standard(3), 2) == 129


def test_intermediate_lattices_validation():
    with pytest.raises(ValueError):
        intermediate_lattices(ZLattice.standard(2), 0)
    with pytest.raises(ValueError):
        intermediate_lattices(ZLattice.standard(2), 10**12 + 1)


def test_congruence_member_examples():
    assert congruence_member(ExactMatrix.identity(2), 5)
    assert congruence_member(ExactMatrix.from_rows([[1, 2], [0, 1]]), 2)
    assert not congruence_member(ExactMatrix.from_rows([[1, 1], [0, 1]]), 2)
    with pytest.raises(ValueError):
        congruence_member(ExactMatrix.from_rows([[2, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        congruence_member(ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]]), 2)
    # a rational matrix typed in Q(sqrt(2))
    typed = ExactMatrix.from_rows([[QuadScalar(1, 0, 2), QuadScalar(2, 0, 2)],
                                   [QuadScalar(0, 0, 2), QuadScalar(1, 0, 2)]])
    assert congruence_member(typed, 2)
    assert not congruence_member(typed, 3)


def test_congruence_subgroup_closure(rnd):
    # products and inverses of level-2 members stay level-2 members
    gens = [
        ExactMatrix.from_rows([[1, 2], [0, 1]]),
        ExactMatrix.from_rows([[1, 0], [2, 1]]),
        ExactMatrix.from_rows([[3, 2], [4, 3]]),
    ]
    for g in gens:
        assert congruence_member(g, 2)
    for _ in range(40):
        a = rnd.choice(gens)
        b = rnd.choice(gens)
        assert congruence_member(a * b, 2)
        assert congruence_member(a.inv(), 2)


def test_congruence_index_values():
    assert congruence_index(2, 1) == 1
    assert congruence_index(2, 2) == 6
    assert congruence_index(2, 3) == 24
    assert congruence_index(2, 4) == 48
    assert congruence_index(3, 2) == 168
    assert congruence_index(2, 8) == 384


def _sl_count_by_loop(n, m):
    """Reference |SL_n(Z/m)|: every n x n matrix mod m, determinant by the
    Leibniz sum."""
    perms = [(perm, _perm_sign(perm))
             for perm in itertools.permutations(range(n))]
    count = 0
    for entries in itertools.product(range(m), repeat=n * n):
        det = 0
        for perm, sgn in perms:
            term = sgn
            for i, j in enumerate(perm):
                term *= entries[i * n + j]
            det += term
        if det % m == 1 % m:
            count += 1
    return count


def _perm_sign(perm):
    sgn = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sgn = -sgn
    return sgn


@pytest.mark.parametrize("n, m", [(2, m) for m in range(1, 13)] + [(3, 2), (3, 3)])
def test_congruence_index_matches_loop(n, m):
    assert congruence_index(n, m) == _sl_count_by_loop(n, m)


def test_congruence_index_closed_product():
    # n = 1: SL_1 is trivial; a prime power p^e lifts |SL_n(F_p)| by p^((e-1)(n^2-1))
    assert congruence_index(1, 10**12) == 1
    assert congruence_index(3, 8) == 168 * 2 ** 16
    assert congruence_index(4, 15) == congruence_index(4, 3) * congruence_index(4, 5)
    # the largest allowed case stays under the 4300-digit int-to-str limit
    big = congruence_index(CONGRUENCE_MAX_N, 10**12)
    assert len(str(big)) < 3100


def test_congruence_index_validation():
    for n, m in ((0, 2), (-1, 2), (2, 0), (2, -3),
                 (CONGRUENCE_MAX_N + 1, 2), (10**9, 2), (2, 10**12 + 1)):
        with pytest.raises(ValueError):
            congruence_index(n, m)
