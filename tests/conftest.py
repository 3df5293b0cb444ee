"""Shared helpers: random lattice generation, an independent brute-force
shortest-vector oracle (box enumeration over the dual bound, no shared code
path with the tree search), the box scan that is the oracle of the adjoint
systole search, and ExactMatrix-product oracles of the witness verification
in latlab.groups."""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from latlab import EuclideanLattice, ExactMatrix
from latlab._svp import quad_form_value, witness_key
from latlab.enumeration import IntegralGram


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


def adjoint_box_scan(g, h):
    """(value, witness) of the adjoint systole by scanning the whole box: the
    (2h+1)^(n^2-1) trace-zero coordinate vectors with entries in [-h, h] and
    forced last diagonal entry in [-h, h], valued on the exact Gram matrix of
    X -> ||g X g^-1||_F^2 (trace-zero basis E_ij, E_ii - E_nn, row-major) and
    tie-broken by witness_key: the oracle of groups.adjoint_systole."""
    n = g.rows
    last = n - 1
    g_inv = g.inv()
    images = [[g[a, i] * g_inv[j, b] - (g[a, last] * g_inv[last, b] if i == j else 0)
               for a in range(n) for b in range(n)]
              for i in range(n) for j in range(n) if (i, j) != (last, last)]
    form = IntegralGram([[sum(x * y for x, y in zip(u, v)) for v in images]
                         for u in images])
    diag = [i * n + i for i in range(last)]
    best = None
    for coords in itertools.product(range(-h, h + 1), repeat=n * n - 1):
        if abs(sum(coords[k] for k in diag)) > h or not any(coords):
            continue
        value = quad_form_value(form.gram, coords, form.ring.zero)
        if best is None or value < best:
            best, best_key = value, witness_key(coords)
        elif value == best:
            best_key = min(best_key, witness_key(coords))
    coords = best_key[1]
    witness = ExactMatrix(n, n, list(coords) + [-sum(coords[k] for k in diag)])
    return form.unscale(best), witness


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


def oracle_preserves_form(g, form):
    """Exact test transpose(g) * A * g == A for A = diag(coeffs), by
    ExactMatrix products: the oracle of groups.preserves_form."""
    n = form.nvars
    if g.rows != n or g.cols != n:
        raise ValueError("matrix size does not match the form")
    a = form.matrix()
    return g.transpose() * a * g == a


def oracle_is_nilpotent(x):
    """X^n = 0, cross-checked against the exact trace test tr(X^j) = 0, by
    ExactMatrix products: the oracle of groups.is_nilpotent."""
    if not x.is_square:
        raise ValueError("nilpotency is for square matrices")
    n = x.rows
    power_test = (x ** n).is_zero()
    trace_test = True
    p = ExactMatrix.identity(n)
    for _ in range(n):
        p = p * x
        if p.trace() != 0:
            trace_test = False
            break
    if power_test != trace_test:
        raise AssertionError("power and trace nilpotency tests disagree")
    return power_test


def oracle_is_unipotent(g):
    return oracle_is_nilpotent(g - ExactMatrix.identity(g.rows))


@pytest.fixture
def rnd():
    return random.Random(20240901)
