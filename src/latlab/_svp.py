"""Exact shortest-vector search by depth-first enumeration.

The search runs over the Gram-Schmidt cone of an integral Gram matrix
(Fincke-Pohst bounds, sweep order starting at the interval center) with every
comparison done by exact ring arithmetic: Python integers for rational
lattices, :class:`latlab.rings.QuadInt` elements of Z[sqrt(m)] for lattices
over a real quadratic field.  No decision ever touches floating point.

Rings.  Every routine here takes the ring of its entries as an argument,
:class:`latlab.rings.IntRing` or :class:`latlab.rings.QuadIntRing` as
:func:`latlab.rings.to_ring` returns it, and reads its zero, one, exact
division and nearest integer from it; no entry's type is inspected.

Scaled bookkeeping.  With ``d_k`` the leading principal minors of the Gram
matrix G (d_0 = 1) and ``lam[i][j] = mu[i][j] * d_{j+1}`` the integral
Gram-Schmidt coefficients, the squared contribution of level i is

    term_i = (d_{i+1} x_i + S_i)^2 / (d_i d_{i+1}),   S_i = sum_{j>i} lam[j][i] x_j,

which stays in the ring once multiplied by suf[i] = prod_{l>=i} d_l d_{l+1}.
The search keeps W_i = (sum of the fixed terms above level i) * suf[i], so the
level-i admissibility test  term_i <= C - sum_{l>i} term_l  becomes the pure
ring inequality  T_i * suf[i+1] <= C * suf[i] - W_i.  At a leaf,
W_0 + T_0^2 suf[1] = x^T G x * suf[0], so the test that admits it also
decides it: below the bound it is a new minimum (W_0 + T_0^2 suf[1]) / suf[0],
at the bound a tie, and x^T G x is never evaluated.

Traversal.  One loop over explicit per-level state replaces the recursion and
keeps its visit order: level i sweeps up from its start (the rounded center
clamped into the box, or 0 when every coordinate above is zero, and then up
only), then down from start - 1; a rejected value ends a direction, and a
step moves t_i = d_{i+1} x_i + S_i by d_{i+1}.  The bound C * suf[i] - W_i
is computed once per descent into level i and for every level when a leaf
lowers C.  Center sums are partial (Schnorr-Euchner): sig[i][j] =
sum_{k>=j} lam[k][i] x_k, S_i = sig[i][i+1], and sig[i][j] is current for j >
begin[i].  A descent into level i refreshes entries begin[i] .. i+1 (a zero
coordinate adds nothing), raises begin[i-1] to begin[i] and sets begin[i] =
i+1, so a node costs O(1) amortized instead of an O(n) sum.

Reduction.  The tree's size depends on the basis: on a skewed basis of Z^10
it is thousands of nodes where an LLL-reduced basis of the same lattice
takes a few hundred.  :func:`lll` reduces exactly, starting from the
integral Gram-Schmidt data of the form and keeping it exact through every
size reduction and exchange, and returns the transform H; :func:`search`
with ``basis=H`` compares and returns candidates as H y, so that ties are
broken in the caller's coordinates and the witness does not depend on the
basis searched.
"""

from __future__ import annotations

from .errors import BudgetExceededError, NotPositiveDefiniteError


def integral_gso(gram, ring):
    """Leading minors d (length n+1) and integral coefficients lam = mu*d.

    Fraction-free integral Gram-Schmidt (the recurrence of Cohen's integral
    LLL, Alg. 2.6.7) on a Gram matrix with entries in ``ring``
    (:class:`latlab.rings.IntRing` or ``QuadIntRing``): every intermediate
    value is a minor of the Gram matrix, so each division by d_k is exact in
    Z or Z[sqrt(m)].  Raises NotPositiveDefiniteError (a ValueError) if the
    matrix is not positive definite.
    """
    n = len(gram)
    div = ring.exact_div
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        row, lam_i = gram[i], lam[i]
        for j in range(i + 1):
            lam_j = lam[j]
            u = row[j]
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


# -- integral LLL ----------------------------------------------------------------
#
# Lenstra-Lenstra-Lovasz reduction with delta = 3/4 in the fraction-free form
# of Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7 (0-based
# here: Cohen's d_k is d[k], his lambda_{k,l} is lam[k-1][l-1]).  Vector i of
# the basis is size-reduced when |2 lam[i][j]| <= d[j+1] for every j < i, and
# passes the Lovasz test when 4 d[i+1] d[i-1] >= 3 d[i]^2 - 4 lam[i][i-1]^2.


def is_lll_reduced(d, lam):
    """Whether the basis with integral Gram-Schmidt data d, lam is LLL-reduced
    (size-reduced, and every vector passes the Lovasz test): O(n^2) exact
    comparisons, no arithmetic beyond products."""
    for i in range(1, len(lam)):
        row = lam[i]
        for j in range(i):
            t = 2 * row[j]
            if t > d[j + 1] or -t > d[j + 1]:
                return False
        if 4 * d[i + 1] * d[i - 1] < 3 * d[i] * d[i] - 4 * row[i - 1] * row[i - 1]:
            return False
    return True


def lll(gram, d, lam, ring):
    """Integral LLL reduction (delta = 3/4) of a positive-definite Gram matrix G
    with entries in ``ring``, starting from its integral Gram-Schmidt data
    d, lam as :func:`integral_gso` returns them (which are not changed).

    Returns (basis, reduced, d, lam): ``basis`` lists the columns of a
    unimodular integer matrix H, ``reduced`` is H^T G H, and d, lam are its
    integral Gram-Schmidt data, kept exact by the REDI/SWAPI updates rather
    than recomputed: a size reduction of b_k changes no b*_j and no later
    row, and an exchange of b_(k-1) and b_k changes only d[k] among the
    minors and, in the rows i > k, only lam[i][k-1] and lam[i][k].  Size
    reduction shifts by ``ring.nearest``, so H stays integral over
    Z[sqrt(m)] too.
    """
    n = len(gram)
    div = ring.exact_div
    nearest = ring.nearest
    g = [list(row) for row in gram]
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    d = list(d)
    lam = [list(row) for row in lam]
    k = 1
    while k < n:
        lam_k = lam[k]
        # size-reduce b_k against b_(k-1), test Lovasz, and only if it
        # passes size-reduce against b_(k-2), ..., b_0 (REDI, SWAPI)
        for l in range(k - 1, -1, -1):
            t = 2 * lam_k[l]
            if t > d[l + 1] or -t > d[l + 1]:
                q = nearest(lam_k[l], d[l + 1])
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
                g[k] = [a - q * b for a, b in zip(g[k], g[l])]
                for row in g:
                    row[k] = row[k] - q * row[l]
                lam_k[l] = lam_k[l] - q * d[l + 1]
                lam_l = lam[l]
                for j in range(l):
                    lam_k[j] = lam_k[j] - q * lam_l[j]
            if l < k - 1:
                continue
            mu = lam_k[l]
            if not 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * mu * mu:
                continue
            # exchange b_k and b_(k-1); lam[k][k-1] stays
            basis[l], basis[k] = basis[k], basis[l]
            g[l], g[k] = g[k], g[l]
            for row in g:
                row[l], row[k] = row[k], row[l]
            lam_l = lam[l]
            for j in range(l):
                lam_l[j], lam_k[j] = lam_k[j], lam_l[j]
            b = div(d[l] * d[k + 1] + mu * mu, d[k])
            for i in range(k + 1, n):
                lam_i = lam[i]
                t = lam_i[k]
                lam_i[k] = div(d[k + 1] * lam_i[l] - mu * t, d[k])
                lam_i[l] = div(b * t + mu * lam_i[k], d[k + 1])
            d[k] = b
            k = max(k - 1, 1)
            break
        else:
            k += 1
    return basis, g, d, lam


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


# -- the search ---------------------------------------------------------------


def search(d, lam, c0, seed, budget, ring, box=None, accept=None, basis=None):
    """Minimize x^T G x over nonzero integer x, for the Gram matrix G with
    integral Gram-Schmidt data d, lam; returns (value, witness, nodes).

    ``c0``/``seed`` give the starting bound (a diagonal entry and its unit
    vector).  The bound shrinks as soon as a shorter vector is found; equal
    values are tie-broken by :func:`witness_key`.  A leaf is decided by its
    bound test alone, so G itself is not needed.  Raises BudgetExceededError,
    carrying the best (value, witness) found so far, once more than
    ``budget`` nodes have been visited.

    ``basis`` (the columns of a unimodular integer matrix H, with G = H^T G0 H
    for the caller's Gram matrix G0, as :func:`lll` returns them) makes the
    witnesses the caller's: every candidate x is compared by
    ``witness_key(H x)`` and H x is returned, also in the error.  The whole
    tree holds every vector of value at most the bound, so the minimum and
    the witness do not depend on the basis searched; only the node count does.

    ``box`` (an int H >= 1) restricts every coordinate to [-H, H]: each
    level's sweep starts at the interval center clamped into the box and stops
    at the box edge.  The term of a level is convex in x_i with its minimum at
    the center, so it is monotone on each side of the clamped start and the
    first rejected value still ends a sweep exactly.  ``accept`` is a
    predicate on the complete coordinate vector, checked at the leaves; only
    accepted vectors compete.  One of each pair {x, -x} is visited, so
    ``accept`` must be symmetric, and it must admit ``seed``.
    """
    n = len(lam)
    zero = ring.zero
    nearest = ring.nearest
    den = [d[i] * d[i + 1] for i in range(n)]
    suf = [ring.one] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = den[i] * suf[i + 1]
    d1, suf1 = d[1:], suf[1:]

    caller = tuple if basis is None else lambda y: _image(basis, y)
    best_q = c0
    best_key = witness_key(caller(seed))
    # per level: x_i, t_i, the sweep's start and its t_i, its direction, W_i,
    # the bound and whether every coordinate above is zero; the current
    # level's x_i, t_i and direction live in xi, ti and up
    x = [0] * n
    t = [zero] * n
    start = [0] * n
    t_start = [zero] * n
    ups = [True] * n
    w = [zero] * n
    cap = [best_q * u for u in suf]
    bound = [zero] * n
    bound[n - 1] = cap[n - 1]
    suffix_zero = [True] * n
    sig = [[zero] * (n + 1) for _ in range(n)]
    begin = [n - 1] * (n + 1)           # begin[-1] takes level 0's write
    nodes = 0
    i = n - 1
    xi, ti, up = 0, zero, True
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                "enumeration exceeded the node budget of %d" % budget,
                budget=budget, nodes=budget, best=(best_q, best_key[1]),
            )
        tt = ti * ti * suf1[i]
        ok = not tt > bound[i]
        if ok and i:
            x[i], t[i], ups[i] = xi, ti, up
            wi = den[i - 1] * (w[i] + tt)
            zs = suffix_zero[i] and not xi
            i -= 1
            w[i] = wi
            bound[i] = cap[i] - wi
            suffix_zero[i] = zs
            # refresh the stale partial sums of row i, highest index first
            row, hi = sig[i], begin[i]
            for j in range(hi, i, -1):
                row[j] = row[j + 1] + lam[j][i] * x[j] if x[j] else row[j + 1]
            if begin[i - 1] < hi:
                begin[i - 1] = hi
            begin[i] = i + 1
            s = row[i + 1]
            if zs:
                xi = 0
            else:
                xi = nearest(-s, d1[i])
                if box is not None:
                    xi = min(max(xi, -box), box)
            start[i] = xi
            ti = t_start[i] = d1[i] * xi + s
            up = True
            continue
        if ok and (xi or not suffix_zero[0]):
            x[0] = xi
            if accept is None or accept(x):
                # w_0 + tt is x^T G x * suf[0], and bound[0] is
                # best * suf[0] - w_0: the leaf's value is decided by tt
                if tt < bound[0]:
                    best_q = ring.exact_div(w[0] + tt, suf[0])
                    best_key = witness_key(caller(x))
                    cap = [best_q * u for u in suf]
                    bound = [cap[k] - w[k] for k in range(n)]
                else:
                    key = witness_key(caller(x))
                    if key < best_key:
                        best_key = key
        # next value of the sweep at level i; a rejected value ends its
        # direction, and a finished level resumes the sweep of its parent
        while True:
            if ok:
                xi = xi + 1 if up else xi - 1
                if box is None or -box <= xi <= box:
                    ti = ti + d1[i] if up else ti - d1[i]
                    break
            if up and not suffix_zero[i]:
                up = False
                xi = start[i] - 1
                if box is None or xi >= -box:
                    ti = t_start[i] - d1[i]
                    break
            i += 1
            if i == n:
                return best_q, best_key[1], nodes
            xi, ti, up, ok = x[i], t[i], ups[i], True


def _image(basis, y):
    """H y for the integer matrix H with columns ``basis``."""
    v = [0] * len(basis)
    for col, yk in zip(basis, y):
        if yk:
            for r, h in enumerate(col):
                v[r] += yk * h
    return tuple(v)


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
