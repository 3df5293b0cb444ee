"""Exact shortest-vector search by depth-first enumeration.

The search runs over the Gram-Schmidt cone of an integral Gram matrix
(Fincke-Pohst bounds, sweep order starting at the interval center) with every
comparison done by exact ring arithmetic: Python integers for rational
lattices, quadratic integers for lattices over a real quadratic field.  No
decision ever touches floating point.

Scaled bookkeeping.  With ``d_k`` the leading principal minors of the Gram
matrix G (d_0 = 1) and ``lam[i][j] = mu[i][j] * d_{j+1}`` the integral
Gram-Schmidt coefficients, the squared contribution of level i is

    term_i = (d_{i+1} x_i + S_i)^2 / (d_i d_{i+1}),   S_i = sum_{j>i} lam[j][i] x_j,

which stays in the ring once multiplied by suf[i] = prod_{l>=i} d_l d_{l+1}.
The search keeps W_i = (sum of the fixed terms above level i) * suf[i], so the
level-i admissibility test  term_i <= C - sum_{l>i} term_l  becomes the pure
ring inequality  T_i * suf[i+1] <= C * suf[i] - W_i.
"""

from __future__ import annotations

import operator
from math import isqrt

from .errors import BudgetExceededError, NotPositiveDefiniteError
from .scalars import QuadScalar


def integral_gso(gram):
    """Leading minors d (length n+1) and integral coefficients lam = mu*d.

    Fraction-free integral Gram-Schmidt (the recurrence of Cohen's integral
    LLL, Alg. 2.6.7) on a Gram matrix whose entries are all ints or all
    QuadScalars with integer coordinates: every intermediate value is a minor
    of the Gram matrix, so each division by d_k is exact in Z or Z[sqrt(m)].
    Raises NotPositiveDefiniteError (a ValueError) if the matrix is not
    positive definite.
    """
    n = len(gram)
    quad = any(isinstance(e, QuadScalar) for row in gram for e in row)
    div = _quad_exact_div if quad else operator.floordiv
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        lam_i = lam[i]
        for j in range(i + 1):
            lam_j = lam[j]
            u = gram[i][j]
            for k in range(j):
                u = d[k + 1] * u - lam_i[k] * lam_j[k]
                if k:
                    u = div(u, d[k])
            if j < i:
                lam_i[j] = u
            elif not u > 0:
                raise NotPositiveDefiniteError("Gram matrix is not positive definite")
            else:
                d[i + 1] = u
    return d, lam


def _quad_exact_div(x, y):
    """x / y in Z[sqrt(m)], known to be exact: x * conj(y) / norm(y)."""
    m = y.m
    norm = y.a * y.a - m * y.b * y.b
    return QuadScalar((x.a * y.a - m * x.b * y.b) // norm,
                      (x.b * y.a - x.a * y.b) // norm, m)


# -- ring adapters -------------------------------------------------------------


class IntRing:
    """Rational-integer coefficients; native Python int arithmetic."""

    zero = 0
    one = 1

    @staticmethod
    def nearest(num, den):
        """Nearest integer to num/den for den > 0 (ties round up)."""
        return (2 * num + den) // (2 * den)


def _floor_mul_sqrt(b: int, m: int) -> int:
    """floor(b * sqrt(m)) for squarefree m > 1 (never a perfect square)."""
    if b == 0:
        return 0
    r = isqrt(b * b * m)
    return r if b > 0 else -r - 1


def _int_le_sqrt(u: int, b: int, m: int) -> bool:
    """Exact test u <= b*sqrt(m); equality cannot occur for b != 0."""
    if b == 0:
        return u <= 0
    if b > 0:
        return u <= 0 or u * u < b * b * m
    return u < 0 and u * u > b * b * m


class QuadIntRing:
    """Coefficients in Z[sqrt(m)] with the positive-root embedding, m > 1."""

    def __init__(self, m: int):
        self.m = m
        self.zero = QuadScalar(0, 0, m)
        self.one = QuadScalar(1, 0, m)

    def nearest(self, num: QuadScalar, den: QuadScalar) -> int:
        """Nearest integer to num/den for den > 0 (ties round up)."""
        m = self.m
        # rationalize: num/den = (p + q*sqrt(m)) / r with integer p, q, r > 0
        p = num.a * den.a - num.b * den.b * m
        q = num.b * den.a - num.a * den.b
        r = den.a * den.a - den.b * den.b * m
        if r < 0:
            p, q, r = -p, -q, -r
        # nearest = floor((2p + r + 2q*sqrt(m)) / (2r))
        return self._floor_ratio(2 * p + r, 2 * q, 2 * r)

    def _floor_ratio(self, p: int, q: int, r: int) -> int:
        """floor((p + q*sqrt(m))/r) with r > 0, exact."""
        m = self.m
        z = (p + _floor_mul_sqrt(q, m)) // r
        # certify exactly: z*r <= p + q*sqrt(m) < (z+1)*r
        while _int_le_sqrt((z + 1) * r - p, q, m):
            z += 1
        while not _int_le_sqrt(z * r - p, q, m):
            z -= 1
        return z


# -- witness canonicalization ----------------------------------------------------


def witness_key(vec):
    """Deterministic order on nonzero coefficient vectors.

    The representative of {v, -v} with positive first nonzero coordinate is
    compared by (index of first support, lexicographic order); e_1 beats e_2,
    and among a +/- pair the sign-normalized vector wins.
    """
    idx = None
    for k, t in enumerate(vec):
        if t:
            idx = k
            break
    if idx is None:
        raise ValueError("zero vector has no witness key")
    if vec[idx] < 0:
        vec = tuple(-u for u in vec)
    else:
        vec = tuple(vec)
    return idx, vec


def canonical_witness(vec):
    return witness_key(vec)[1]


# -- the search ---------------------------------------------------------------


def quad_form_value(gram, x, zero):
    """x^T G x in ring arithmetic."""
    n = len(gram)
    acc = zero
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        acc = acc + gram[i][i] * (xi * xi)
        for j in range(i + 1, n):
            xj = x[j]
            if xj:
                acc = acc + gram[i][j] * (2 * xi * xj)
    return acc


def search(gram, d, lam, c0, seed, budget, ring):
    """Minimize x^T G x over nonzero integer x; returns (value, witness, nodes).

    ``c0``/``seed`` give the starting bound (a diagonal entry and its unit
    vector).  The bound shrinks as soon as a shorter vector is found; equal
    values are tie-broken by :func:`witness_key`.  Raises BudgetExceededError
    once more than ``budget`` nodes have been visited.
    """
    n = len(gram)
    den = [d[i] * d[i + 1] for i in range(n)]
    suf = [ring.one] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = den[i] * suf[i + 1]

    best_q = c0
    best_vec = tuple(seed)
    best_key = witness_key(best_vec)
    x = [0] * n
    nodes = 0

    def run_level(i, w, suffix_zero):
        nonlocal nodes, best_q, best_vec, best_key

        s = ring.zero
        for j in range(i + 1, n):
            if x[j]:
                s = s + lam[j][i] * x[j]
        di1 = d[i + 1]

        def attempt(xi):
            nonlocal nodes, best_q, best_vec, best_key
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    "enumeration exceeded the node budget of %d" % budget,
                    budget=budget,
                )
            t = di1 * xi + s
            big_t = t * t
            if big_t * suf[i + 1] > best_q * suf[i] - w:
                return False
            if i == 0:
                if not (suffix_zero and xi == 0):
                    x[0] = xi
                    value = quad_form_value(gram, x, ring.zero)
                    if value < best_q:
                        best_q = value
                        best_vec = tuple(x)
                        best_key = witness_key(best_vec)
                    elif value == best_q:
                        key = witness_key(tuple(x))
                        if key < best_key:
                            best_vec = tuple(x)
                            best_key = key
                return True
            x[i] = xi
            run_level(i - 1, den[i - 1] * (w + big_t * suf[i + 1]),
                      suffix_zero and xi == 0)
            return True

        if suffix_zero:
            xi = 0
            while attempt(xi):
                xi += 1
        else:
            start = ring.nearest(-s, di1)
            xi = start
            while attempt(xi):
                xi += 1
            xi = start - 1
            while attempt(xi):
                xi -= 1

    run_level(n - 1, ring.zero, True)
    return best_q, canonical_witness(best_vec), nodes


def initial_bound(gram):
    """Smallest diagonal entry and its unit vector as the starting bound."""
    n = len(gram)
    c0 = gram[0][0]
    k = 0
    for i in range(1, n):
        if gram[i][i] < c0:
            c0 = gram[i][i]
            k = i
    seed = tuple(1 if j == k else 0 for j in range(n))
    return c0, seed
