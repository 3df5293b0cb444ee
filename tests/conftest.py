"""Shared helpers: random lattice generation, an independent brute-force
shortest-vector oracle (box enumeration over the dual bound, no shared code
path with the tree search), the recursive search that is the oracle of the
iterative enumeration kernel, the Gram matrix and box scan that are the
oracles of the adjoint systole, the two per-point scans that are the
oracles of the isotropic search (square roots, and the budgeted root-table
scan), ExactMatrix-product oracles of the witness verification in
latlab.groups, the field-value transvection that is the oracle of the
witness built on ring integers, and the Fraction Gauss-Jordan eliminations
that are the oracles of ExactMatrix.det, inv and solve."""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from latlab import EuclideanLattice, ExactMatrix
from latlab._svp import canonical_witness, quad_form_value, witness_key
from latlab.enumeration import IntegralGram
from latlab.errors import DEFAULT_NODE_BUDGET, BudgetExceededError
from latlab.groups import _as_field, _form_m, is_unipotent, preserves_form
from latlab.matrices import promote_entry
from latlab.numfield import IntegerRing, ring_of_integers
from latlab.scalars import QuadScalar, to_ring


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


def skewed_basis(rnd, n, steps=90, shear=3):
    """Rows of a skewed basis of Z^n, and the canonical witness of its
    minimum 1: the basis is the rows of U, so U^T x = +-e_i gives the
    minimal vectors x = +-(row i of U^-1)."""
    u = random_unimodular(rnd, n, steps=steps, shear=shear)
    inv = u.inv()
    rows = [[int(u[i, j]) for j in range(n)] for i in range(n)]
    canonical = min(oracle_witness_key([int(inv[i, j]) for j in range(n)])
                    for i in range(n))[1]
    return rows, canonical


def apply_basis_change(lattice, transform):
    """New lattice with basis columns B * U for an integer matrix U."""
    n = lattice.rank
    cols = []
    for j in range(n):
        coeffs = [int(Fraction(transform[i, j])) for i in range(n)]
        cols.append(list(lattice.vector(coeffs)))
    return EuclideanLattice(cols)


# The field-division eliminations that ExactMatrix.det, inv and solve
# replaced by one fraction-free adjugate, kept verbatim (first-nonzero
# pivoting, exact Fraction or QuadScalar division): they share no code with
# matrices.fraction_free_adjugate.
def oracle_det(a):
    if not a.is_square:
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return Fraction(1)
    work = a.to_rows()
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


def oracle_inv(a):
    if not a.is_square:
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    work = a.to_rows()
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


def oracle_solve(a, rhs):
    """Solve a * x = rhs (rhs a flat vector) exactly; a square."""
    inv = oracle_inv(a)
    n = a.rows
    rhs = [promote_entry(v) for v in rhs]
    if len(rhs) != n:
        raise ValueError("right-hand side has wrong length")
    return [
        sum((inv[i, k] * rhs[k] for k in range(n)),
            start=Fraction(0))
        for i in range(n)
    ]


def brute_force_minimum(gram):
    """(min value, all minimizing vectors) by exhaustive box enumeration.

    The box bound per coordinate is |x_i| <= sqrt(C * (G^-1)_ii) with C the
    smallest diagonal entry, valid for any vector of squared norm <= C.
    """
    n = len(gram)
    g_int = [[int(e) for e in row] for row in gram]
    c0 = min(g_int[i][i] for i in range(n))
    g_inv = oracle_inv(ExactMatrix.from_rows(g_int))
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


# The recursive Fincke-Pohst search that latlab._svp.search replaced, kept
# verbatim: the kernel must return its (value, witness, nodes) and raise
# its BudgetExceededError at the same budget.
def oracle_search(gram, d, lam, c0, seed, budget, ring, box=None, accept=None):
    """Minimize x^T G x over nonzero integer x; returns (value, witness, nodes).

    ``c0``/``seed`` give the starting bound (a diagonal entry and its unit
    vector).  The bound shrinks as soon as a shorter vector is found; equal
    values are tie-broken by :func:`witness_key`.  Raises BudgetExceededError
    once more than ``budget`` nodes have been visited.

    ``box`` (an int H >= 1) restricts every coordinate to [-H, H]: each
    level's sweep starts at the interval center clamped into the box and stops
    at the box edge.  The term of a level is convex in x_i with its minimum at
    the center, so it is monotone on each side of the clamped start and the
    first rejected value still ends a sweep exactly.  ``accept`` is a
    predicate on the complete coordinate vector, checked at the leaves; only
    accepted vectors compete.  One of each pair {x, -x} is visited, so
    ``accept`` must be symmetric, and it must admit ``seed``.
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
                    if accept is not None and not accept(x):
                        return True
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

        if box is not None:
            start = 0 if suffix_zero else min(max(ring.nearest(-s, di1), -box), box)
            for xi in range(start, box + 1):
                if not attempt(xi):
                    break
            if not suffix_zero:
                for xi in range(start - 1, -box - 1, -1):
                    if not attempt(xi):
                        break
        elif suffix_zero:
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


def oracle_adjoint_gram(g):
    """The exact Gram matrix of X -> ||g X g^-1||_F^2 on the trace-zero basis
    E_ij (i != j), E_ii - E_nn in row-major order, over the field of g, from
    oracle_inv and field products: the oracle of the ring Gram matrix of
    groups.adjoint_systole."""
    n = g.rows
    last = n - 1
    g_inv = oracle_inv(g)
    images = [[g[a, i] * g_inv[j, b] - (g[a, last] * g_inv[last, b] if i == j else 0)
               for a in range(n) for b in range(n)]
              for i in range(n) for j in range(n) if (i, j) != (last, last)]
    return [[sum(x * y for x, y in zip(u, v)) for v in images] for u in images]


def adjoint_box_scan(g, h):
    """(value, witness) of the adjoint systole by scanning the whole box: the
    (2h+1)^(n^2-1) trace-zero coordinate vectors with entries in [-h, h] and
    forced last diagonal entry in [-h, h], valued on oracle_adjoint_gram and
    tie-broken by witness_key: the oracle of groups.adjoint_systole."""
    n = g.rows
    form = IntegralGram(oracle_adjoint_gram(g))
    diag = [i * n + i for i in range(n - 1)]
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
    return form.ring.quotient(best, form.scale), witness


def oracle_isotropic_search(form, height):
    """The first zero of the form in the height box by the scan that
    groups.isotropic_search replaced, its oracle: per point of the (n-1)-fold
    box of the other coordinates, a divisibility test and an integer square
    root over Q, or the solutions of u^2 + w^2 m = s, 2uw = t over Q(sqrt(m)),
    tie-broken by (sign, |p|, |q|)."""
    m = form.field.m if form.field and form.field.is_quadratic else None
    if m is None:
        return _oracle_isotropic_rational(form, height)
    return _oracle_isotropic_quadratic(form, height, m)


def _height_order(height: int):
    order = [0]
    for k in range(1, height + 1):
        order.extend((k, -k))
    return order


def _oracle_isotropic_rational(form, height: int):
    _, _, d = to_ring(form.coeffs)
    order = _height_order(height)
    d0 = d[0]
    terms = [[di * v * v for v in order] for di in d[1:]]
    for idx in itertools.product(range(len(order)), repeat=len(d) - 1):
        rest = 0
        for i, k in enumerate(idx):
            rest += terms[i][k]
        if rest % d0:
            continue
        t = -rest // d0
        if t < 0:
            continue
        x0 = isqrt(t)
        if x0 * x0 != t or x0 > height:
            continue
        if x0 == 0 and all(k == 0 for k in idx):
            continue
        vec = (Fraction(x0),) + tuple(Fraction(order[k]) for k in idx)
        if form.value(vec) != 0:
            raise AssertionError("isotropic candidate does not vanish")
        return vec
    return None


def _oracle_isotropic_quadratic(form, height: int, m: int):
    ring = ring_of_integers(form.field)
    half = ring.omega_is_half
    # coefficients as integer pairs e + f*sqrt(m), cleared of denominators
    pairs = [(c.a, c.b) for c in to_ring(form.coeffs, m)[2]]
    order = _height_order(height)
    # ring coordinates (p, q) with x = p + q*omega, written (u + w*sqrt(m))/2
    cand = [(p, q) for p in order for q in order]
    uw = [((2 * p + q, q) if half else (2 * p, 2 * q)) for p, q in cand]
    terms = []
    for e, f in pairs[1:]:
        row = []
        for u, w in uw:
            ra = u * u + w * w * m
            rb = 2 * u * w
            row.append((e * ra + f * rb * m, e * rb + f * ra))  # over 4
        terms.append(row)
    e0, f0 = pairs[0]
    n0 = e0 * e0 - f0 * f0 * m
    for idx in itertools.product(range(len(cand)), repeat=len(pairs) - 1):
        rp = 0
        rq = 0
        for i, k in enumerate(idx):
            t = terms[i][k]
            rp += t[0]
            rq += t[1]
        # target = -rest/d0 = (ta + tb*sqrt(m)) / (4*n0)
        ta = -rp * e0 + rq * f0 * m
        tb = -rq * e0 + rp * f0
        den = 4 * n0
        if den < 0:
            ta, tb, den = -ta, -tb, -den
        # root x = (u + w*sqrt(m))/2 needs u^2 + w^2 m = 4 ta/den (integer)
        # and 2 u w = 4 tb/den (integer)
        if (4 * ta) % den or (4 * tb) % den:
            continue
        s = 4 * ta // den
        t = 4 * tb // den
        tail_zero = all(k == 0 for k in idx)
        best = None
        for u, w in _solve_square_pair(s, t, m):
            coords = _uw_to_ring_coords(u, w, half)
            if coords is None:
                continue
            p, q = coords
            if max(abs(p), abs(q)) > height:
                continue
            if u == 0 and w == 0 and tail_zero:
                continue
            positive = p > 0 or (p == 0 and q >= 0)
            key = (0 if positive else 1, abs(p), abs(q))
            if best is None or key < best[0]:
                best = (key, (p, q))
        if best is not None:
            p, q = best[1]
            vec = (_ring_coord_value(p, q, ring),) + tuple(
                _ring_coord_value(*cand[k], ring) for k in idx)
            if form.value(vec) != 0:
                raise AssertionError("isotropic candidate does not vanish")
            return vec
    return None


def _solve_square_pair(s: int, t: int, m: int):
    """Integer solutions (u, w) of u^2 + w^2 m = s, 2 u w = t."""
    disc = s * s - t * t * m
    if disc < 0:
        return []
    k = isqrt(disc)
    if k * k != disc:
        return []
    out = []
    for branch in (k, -k):
        u2_twice = s + branch
        if u2_twice < 0 or u2_twice % 2:
            continue
        u2 = u2_twice // 2
        u = isqrt(u2)
        if u * u != u2:
            continue
        if u == 0:
            if t != 0:
                continue
            if s == 0:
                if (0, 0) not in out:
                    out.append((0, 0))
                continue
            if s % m:
                continue
            w2 = s // m
            if w2 < 0:
                continue
            w = isqrt(w2)
            if w * w != w2 or w == 0:
                continue
            for cand in ((0, w), (0, -w)):
                if cand not in out:
                    out.append(cand)
        else:
            if t % (2 * u):
                continue
            w = t // (2 * u)
            if u * u + w * w * m == s:
                for cand in ((u, w), (-u, -w)):
                    if cand not in out:
                        out.append(cand)
    return out


def _uw_to_ring_coords(u: int, w: int, half: bool):
    """Ring coordinates (p, q) of (u + w*sqrt(m))/2, or None."""
    if half:
        if (u - w) % 2:
            return None
        return (u - w) // 2, w
    if u % 2 or w % 2:
        return None
    return u // 2, w // 2


def _ring_coord_value(p: int, q: int, ring: IntegerRing) -> QuadScalar:
    return QuadScalar(Fraction(p), 0, ring.m) + q * ring.omega


# The root-table scan that groups.isotropic_search replaced by one sum per
# prefix, kept verbatim: it sums the n-1 row entries again at every point of
# the first ``budget`` points of the box, and is the oracle of the budget
# edges as well as of the first zero.
def oracle_isotropic_scan(form, height, budget):
    """groups.isotropic_search(form, height, budget) before each prefix's sum
    was taken once."""
    if height < 1:
        raise ValueError("height must be at least 1")
    budget = DEFAULT_NODE_BUDGET if budget is None else int(budget)
    if budget < 1:
        raise ValueError("node budget must be positive")
    m = _form_m(form)
    side = 2 * height + 1
    width = side if m is None else side * side
    if width > budget:
        raise BudgetExceededError(
            "isotropic search box of %d points per coordinate exceeds the "
            "budget of %d" % (width, budget), budget=budget)
    order = [0]
    for k in range(1, height + 1):
        order.extend((k, -k))
    if m is None:
        box = [(p, 0) for p in order]
        sqm, half, omega = 0, False, 0
    else:
        ring = ring_of_integers(form.field)
        box = [(p, q) for p in order for q in order]
        sqm, half, omega = m, ring.omega_is_half, ring.omega
    # (s, t) of x = (u + w*sqrt(m))/2: u = 2p + q, w = q if omega is half an
    # integer, else u = 2p, w = 2q
    squares = [(u * u + w * w * sqm, 2 * u * w)
               for u, w in (((2 * p + q, q) if half else (2 * p, 2 * q))
                            for p, q in box)]
    _, _, coeffs = to_ring(form.coeffs, m)
    pairs = [(c, 0) if m is None else (c.a, c.b) for c in coeffs]
    e0, f0 = pairs[0]
    roots = {}
    for k, (s, t) in enumerate(squares):
        roots.setdefault((e0 * s + f0 * t * sqm, e0 * t + f0 * s), k)
    rows = [[(e * s + f * t * sqm, e * t + f * s) for s, t in squares]
            for e, f in pairs[1:]]
    points = itertools.islice(itertools.product(range(width), repeat=len(rows)), budget)
    next(points)  # the all-zero point, whose only root is 0
    for idx in points:
        a = b = 0
        for row, k in zip(rows, idx):
            ta, tb = row[k]
            a += ta
            b += tb
        root = roots.get((-a, -b))
        if root is not None:
            vec = tuple(_as_field(p, m) + q * omega
                        for p, q in (box[k] for k in (root,) + idx))
            if form.value(vec) != 0:
                raise AssertionError("isotropic candidate does not vanish")
            return vec
    if width ** len(rows) > budget:
        raise BudgetExceededError(
            "isotropic search exceeded the budget of %d points" % budget,
            budget=budget)
    return None


# The field-value transvection that groups.unipotent_from_isotropic replaced
# by one ring build, kept verbatim: it picks the companion w with field
# bilinear forms, fills the n^2 entries with Fraction or QuadScalar
# products and verifies them with preserves_form and is_unipotent, which
# clear denominators again.
def oracle_transvection(form, vector):
    """groups.unipotent_from_isotropic(form, vector) before the transvection
    was built on ring integers.

    Uses the transvection x -> x + b(x,v) w - b(x,w) v - (1/2) b(w,w) b(x,v) v
    for some w orthogonal to v and independent of it; the result is
    re-verified (preserves the form, unipotent, not the identity) before it
    is returned.
    """
    n = form.nvars
    vector = tuple(_as_field(v, _form_m(form)) for v in vector)
    if len(vector) != n:
        raise ValueError("vector length does not match the form")
    if all(v == 0 for v in vector):
        raise ValueError("isotropic vector must be nonzero")
    if form.value(vector) != 0:
        raise ValueError("vector is not isotropic for the form")
    if n < 3:
        raise ValueError(
            "degenerate transvection: binary forms have no nontrivial unipotent"
        )
    # z with b(v, z) != 0 exists because the form is nondegenerate
    z_idx = next(i for i, v in enumerate(vector) if v != 0)
    zvec = _unit(z_idx, n, form)
    bvz = form.bilinear(vector, zvec)
    for w0 in _w_candidates(n, form):
        t = form.bilinear(w0, vector) / bvz
        w = tuple(wi - t * zi for wi, zi in zip(w0, zvec))
        if _proportional(w, vector):
            continue
        g = _transvection_matrix(form, vector, w)
        if g.is_identity():
            continue
        if not preserves_form(g, form):
            raise AssertionError("transvection fails to preserve the form")
        if not is_unipotent(g):
            raise AssertionError("transvection is not unipotent")
        return g
    raise ValueError("degenerate transvection: no admissible companion vector")


def _unit(k, n, form, l=None):
    """e_k (or e_k + e_l) in the field of the form."""
    m = _form_m(form)
    return tuple(_as_field(1 if i in (k, l) else 0, m) for i in range(n))


def _w_candidates(n, form):
    for k in range(n):
        yield _unit(k, n, form)
    for k in range(n):
        for l in range(k + 1, n):
            yield _unit(k, n, form, l)


def _proportional(u, v) -> bool:
    """u is a multiple of v: u_i v_p == u_p v_i at the first nonzero v_p."""
    p = next((i for i, x in enumerate(v) if x != 0), None)
    if p is None:
        return True
    return all(ui * v[p] == u[p] * vi for ui, vi in zip(u, v))


def _transvection_matrix(form, v, w):
    """g_ij = [i == j] + c_j v_j w_i - c_j w_j v_i - (1/2) b(w, w) c_j v_j v_i,
    the image of e_j under x -> x + b(x,v) w - b(x,w) v - (1/2) b(w,w) b(x,v) v
    with b(e_j, x) = c_j x_j."""
    n = form.nvars
    m = _form_m(form)
    one, zero = _as_field(1, m), _as_field(0, m)
    half_ww = form.bilinear(w, w) / 2
    bev = [c * x for c, x in zip(form.coeffs, v)]
    bew = [c * x for c, x in zip(form.coeffs, w)]
    # callers keep verdicts, and a third of the entries repeat a value (zeros
    # and ones above all): equal entries share one object
    shared = {}
    entries = []
    for i in range(n):
        for j in range(n):
            e = ((one if i == j else zero) + bev[j] * w[i] - bew[j] * v[i]
                 - half_ww * bev[j] * v[i])
            entries.append(shared.setdefault(e, e))
    return ExactMatrix(n, n, entries)


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


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """A skipped test fails: a check that the suite silently skips is a
    missing check."""
    report = (yield).get_result()
    if report.skipped:
        reason = report.longrepr[2] if isinstance(report.longrepr, tuple) else report.longrepr
        report.outcome = "failed"
        report.longrepr = "skipped tests count as failures: %s" % (reason,)


@pytest.fixture
def rnd():
    return random.Random(20240901)
