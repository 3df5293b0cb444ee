"""Independent exact arithmetic for the benchmark's output checks.

Nothing here calls latlab: elements of Q(sqrt(m)) are plain pairs (a, b)
of Fractions standing for a + b*sqrt(m), matrices are lists of rows, and the
shortest-vector oracle enumerates with floating-point bounds and exact
comparisons instead of the library's exact search tree.  A check
that reused the library's own code path could not catch its defects.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# -- Q(sqrt(m)) as pairs ---------------------------------------------------------


def pair(x):
    """(a, b) of a latlab scalar (Fraction, int or QuadScalar)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return Fraction(x.a), Fraction(x.b)


def p_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def p_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def p_mul(x, y, m):
    return x[0] * y[0] + m * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def p_sign(x, m):
    """Exact sign of a + b*sqrt(m) for squarefree m > 1 (or b = 0)."""
    a, b = x
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > m * b * b else sb


ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def p_dot(u, v, m):
    acc = ZERO
    for x, y in zip(u, v):
        acc = p_add(acc, p_mul(x, y, m))
    return acc


# -- matrices over Q(sqrt(m)) as lists of pair rows ---------------------------------


def mat_mul(a, b, m):
    cols = list(zip(*b))
    return [[p_dot(row, col, m) for col in cols] for row in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def is_zero_matrix(a):
    return all(e == ZERO for row in a for e in row)


def rational_det(rows):
    """Determinant of a square matrix of Fractions by plain elimination."""
    work = [[Fraction(e) for e in row] for row in rows]
    n = len(work)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for r in range(c + 1, n):
            f = work[r][c] / work[c][c]
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return det


def rational_solve(cols, target):
    """Coefficients t with sum_j t_j cols[j] = target (square, nonsingular)."""
    n = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(target[i])]
           for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [aug[i][n] for i in range(n)]


def integer_rank_full(rows) -> bool:
    """True iff the square integer matrix is nonsingular (fraction-free)."""
    work = [list(r) for r in rows]
    n = len(work)
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c] != 0), None)
        if piv is None:
            return False
        work[c], work[piv] = work[piv], work[c]
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                work[r][k] = (work[r][k] * work[c][c] - work[r][c] * work[c][k]) // prev
            work[r][c] = 0
        prev = work[c][c]
    return True


# -- lattices ----------------------------------------------------------------------


def lattice_vector(basis, coeffs, m):
    """sum_j coeffs[j] * basis[j] with pair entries."""
    dim = len(basis[0])
    out = [ZERO] * dim
    for c, vec in zip(coeffs, basis):
        if c:
            out = [p_add(o, (c * e[0], c * e[1])) for o, e in zip(out, vec)]
    return out


def norm_sq(basis, coeffs, m):
    v = lattice_vector(basis, coeffs, m)
    return p_dot(v, v, m)


def witness_key(vec):
    """The canonical witness order restated: first support index, then the
    sign-normalized vector lexicographically."""
    first = next(i for i, t in enumerate(vec) if t != 0)
    if vec[first] < 0:
        vec = tuple(-t for t in vec)
    return first, tuple(vec)


def short_vectors_minimum(basis, m, cap):
    """(minimum, minimizers) of ||x||^2 over the nonzero x with ||x||^2 <= cap.

    ``basis`` has integer pair entries.  Coordinates are enumerated inside
    the box that floating-point Gram-Schmidt bounds give for each level
    (Fincke-Pohst), each interval widened by a margin far above the rounding
    error; every candidate is then compared exactly.  With ``cap`` the claimed
    minimum, a shorter vector cannot escape the enumeration.
    """
    n = len(basis)
    gram = [[tuple(int(t) for t in p_dot(u, v, m)) for v in basis] for u in basis]
    fm = math.sqrt(m)
    g = [[a + b * fm for a, b in row] for row in gram]
    mu = [[0.0] * n for _ in range(n)]
    bstar = [0.0] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[i][k] * mu[j][k] * bstar[k]
                                      for k in range(j))) / bstar[j]
        bstar[i] = g[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i))
    best = None
    minimizers = []
    x = [0] * n

    def exact(x):
        qa = qb = 0
        for i in range(n):
            for j in range(n):
                if x[i] and x[j]:
                    a, b = gram[i][j]
                    qa += a * x[i] * x[j]
                    qb += b * x[i] * x[j]
        return qa, qb

    def level(j, used):
        nonlocal best, minimizers
        center = -sum(mu[i][j] * x[i] for i in range(j + 1, n))
        radius = math.sqrt(max(cap - used, 0.0) / bstar[j]) * (1 + 1e-6) + 1e-6
        for xj in range(math.ceil(center - radius), math.floor(center + radius) + 1):
            x[j] = xj
            if j:
                level(j - 1, used + bstar[j] * (xj - center) ** 2)
            elif any(x):
                q = exact(x)
                s = -1 if best is None else p_sign((q[0] - best[0], q[1] - best[1]), m)
                if s < 0:
                    best, minimizers = q, [tuple(x)]
                elif s == 0:
                    minimizers.append(tuple(x))
        x[j] = 0

    level(n - 1, 0.0)
    return (Fraction(best[0]), Fraction(best[1])), minimizers


def reduction_bound(n: int, a: float) -> float:
    """C(1,a) = a, C(n,a) = 2 (a/nu_n)^(1/n) + C(n-1, (2/sqrt 3) a^2)."""
    total = 0.0
    while n > 1:
        nu = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        total += 2.0 * (a / nu) ** (1.0 / n)
        a = (2.0 / math.sqrt(3.0)) * a * a
        n -= 1
    return total + a


# -- arithmetic groups -----------------------------------------------------------


def prime_factors(m: int):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def sl2_index(m: int) -> int:
    """|SL_2(Z/m)| = m^3 prod_{p | m} (1 - p^-2)."""
    value = Fraction(m ** 3)
    for p in prime_factors(m):
        value *= 1 - Fraction(1, p * p)
    return int(value)
