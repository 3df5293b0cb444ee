"""Shared helpers: random lattice generation and an independent brute-force
shortest-vector oracle (box enumeration over the dual bound, no shared code
path with the tree search)."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from latlab import EuclideanLattice, ExactMatrix


def random_integer_basis(rnd, n, lo=-5, hi=5):
    """A nonsingular integer basis (list of column vectors)."""
    while True:
        basis = [[rnd.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if ExactMatrix.from_rows(basis).det() != 0:
            return basis


def random_lattice(rnd, n, lo=-5, hi=5):
    return EuclideanLattice(random_integer_basis(rnd, n, lo, hi))


def random_unimodular(rnd, n, steps=12, shear=5):
    """Product of elementary shears, swaps, and sign flips; det = +-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rnd.randrange(3)
        i = rnd.randrange(n)
        j = rnd.randrange(n)
        if kind == 0 and i != j:
            c = rnd.randint(-shear, shear)
            for k in range(n):
                rows[i][k] += c * rows[j][k]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return ExactMatrix.from_rows(rows)


def apply_basis_change(lattice, transform):
    """New lattice with basis columns B * U for an integer matrix U."""
    n = lattice.rank
    cols = []
    for j in range(n):
        coeffs = [int(Fraction(transform[i, j])) for i in range(n)]
        cols.append(list(lattice.vector(coeffs)))
    return EuclideanLattice(cols)


def brute_force_minimum(gram):
    """(min value, all minimizing vectors) by exhaustive box enumeration.

    The box bound per coordinate is |x_i| <= sqrt(C * (G^-1)_ii) with C the
    smallest diagonal entry, valid for any vector of squared norm <= C.
    """
    n = len(gram)
    g_int = [[int(e) for e in row] for row in gram]
    c0 = min(g_int[i][i] for i in range(n))
    g_inv = ExactMatrix.from_rows(g_int).inv()
    bounds = []
    for i in range(n):
        cap = Fraction(c0) * Fraction(g_inv[i, i])
        bounds.append(isqrt(cap.numerator // cap.denominator) + 1)
    best = None
    minimizers = []
    ranges = [range(-b, b + 1) for b in bounds]

    def rec(i, prefix):
        nonlocal best, minimizers
        if i == n:
            if all(v == 0 for v in prefix):
                return
            q = 0
            for a in range(n):
                if prefix[a]:
                    q += g_int[a][a] * prefix[a] * prefix[a]
                    for b in range(a + 1, n):
                        if prefix[b]:
                            q += 2 * g_int[a][b] * prefix[a] * prefix[b]
            if best is None or q < best:
                best = q
                minimizers = [tuple(prefix)]
            elif q == best:
                minimizers.append(tuple(prefix))
            return
        for v in ranges[i]:
            rec(i + 1, prefix + [v])

    rec(0, [])
    return Fraction(best), minimizers


def gso_from_gram(gram):
    """Exact Gram-Schmidt data (mu, B) of a positive-definite Gram matrix in
    the fraction field: the oracle of the fraction-free integral GSO.

    Entries may be ints, Fractions, or QuadScalars.  Raises ValueError if the
    matrix is not positive definite.
    """
    n = len(gram)
    mu = [[None] * n for _ in range(n)]
    norms = [None] * n
    for i in range(n):
        for j in range(i):
            s = _to_field(gram[i][j])
            for k in range(j):
                s = s - mu[i][k] * mu[j][k] * norms[k]
            mu[i][j] = s / norms[j]
        s = _to_field(gram[i][i])
        for k in range(i):
            s = s - mu[i][k] * mu[i][k] * norms[k]
        if not s > 0:
            raise ValueError("Gram matrix is not positive definite")
        norms[i] = s
    return mu, norms


def _to_field(x):
    return Fraction(x) if isinstance(x, int) else x


def oracle_witness_key(vec):
    """Independent restatement of the canonical witness order."""
    first = next(i for i, t in enumerate(vec) if t != 0)
    if vec[first] < 0:
        vec = tuple(-t for t in vec)
    return (first, tuple(vec))


def vector_norm_sq(lattice, coeffs):
    v = lattice.vector(coeffs)
    acc = Fraction(0)
    for e in v:
        acc = acc + e * e
    return acc


@pytest.fixture
def rnd():
    return random.Random(20240901)
