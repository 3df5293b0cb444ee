"""Concrete algebraic-group families and the uniformity decision engine.

Covers SL(n) over a field and SO(f) for a diagonal quadratic form f, the
unipotent/nilpotent classification with its exact trace test, the exponential
of a nilpotent, Galois-conjugate forms, the adjoint-orbit systole detector,
and the verdict logic: a definite Galois conjugate proves a uniform lattice,
a binary form is decided by whether its torus splits, an explicit isotropic
vector produces a unipotent witness against uniformity, and anything else is
reported as inconclusive rather than guessed.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import isqrt

from .errors import DEFAULT_NODE_BUDGET, BudgetExceededError
from .matrices import ExactMatrix, fraction_free_adjugate
from .numfield import NumberFieldDesc, ring_of_integers
from .scalars import IntRing, QuadScalar, conjugate, sign, to_ring


class DiagForm:
    """Diagonal quadratic form sum_i d_i x_i^2 over Q or Q(sqrt(m))."""

    __slots__ = ("field", "coeffs")

    def __init__(self, coeffs, field: NumberFieldDesc | None = None):
        coeffs = [self._coerce(c, field) for c in coeffs]
        if len(coeffs) < 2:
            raise ValueError("a diagonal form needs at least two coefficients")
        if any(c == 0 for c in coeffs):
            raise ValueError("diagonal coefficients must be nonzero")
        self.field = field
        self.coeffs = tuple(coeffs)

    @staticmethod
    def _coerce(c, field):
        if isinstance(c, int):
            c = Fraction(c)
        if isinstance(c, QuadScalar):
            if field is None or not field.is_quadratic or c.m != field.m:
                if c.b != 0:
                    raise ValueError("coefficient %s does not live in the declared field" % c)
                c = Fraction(c.a)
        return c

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def matrix(self) -> ExactMatrix:
        n = self.nvars
        entries = []
        for i in range(n):
            for j in range(n):
                entries.append(self.coeffs[i] if i == j else Fraction(0))
        return ExactMatrix(n, n, entries)

    def value(self, vector):
        acc = None
        for d, v in zip(self.coeffs, vector):
            term = d * (v * v)
            acc = term if acc is None else acc + term
        return acc

    def bilinear(self, u, v):
        acc = None
        for d, x, y in zip(self.coeffs, u, v):
            term = d * (x * y)
            acc = term if acc is None else acc + term
        return acc

    def __repr__(self):
        return "DiagForm(%r)" % (list(self.coeffs),)


class GroupSpec:
    """SL(n) over a field, or SO(f) for a diagonal form f."""

    __slots__ = ("kind", "n", "form", "field")

    def __init__(self, kind: str, n: int | None = None,
                 form: DiagForm | None = None,
                 field: NumberFieldDesc | None = None):
        if kind == "SL":
            if n is None or n < 2:
                raise ValueError("SL needs n >= 2")
            self.kind = "SL"
            self.n = n
            self.form = None
            self.field = field
        elif kind == "SO":
            if form is None:
                raise ValueError("SO needs a diagonal form")
            self.kind = "SO"
            self.n = form.nvars
            self.form = form
            self.field = form.field
        else:
            raise ValueError("unknown group kind %r" % kind)

    def __repr__(self):
        if self.kind == "SL":
            return "GroupSpec(SL(%d))" % self.n
        return "GroupSpec(SO(%r))" % (list(self.form.coeffs),)


class Verdict:
    """Uniformity decision with a re-verifiable witness where one exists."""

    UNIFORM = "Uniform"
    NOT_UNIFORM = "NotUniform"
    INCONCLUSIVE = "Inconclusive"

    __slots__ = ("status", "reason", "criterion", "witness", "isotropic_vector",
                 "conjugate_name", "search_bound")

    def __init__(self, status, reason, criterion, witness=None,
                 isotropic_vector=None, conjugate_name=None, search_bound=None):
        self.status = status
        self.reason = reason
        self.criterion = criterion
        self.witness = witness
        self.isotropic_vector = isotropic_vector
        self.conjugate_name = conjugate_name
        self.search_bound = search_bound

    def __repr__(self):
        return "Verdict(%s: %s)" % (self.status, self.reason)


# -- Galois conjugates and definiteness --------------------------------------------


def monomorphism_count(field: NumberFieldDesc | None) -> int:
    if field is None or not field.is_quadratic:
        return 1
    return 2


def sigma_name(field: NumberFieldDesc | None, index: int) -> str:
    if index == 0:
        return "identity"
    return "sqrt(%d) -> -sqrt(%d)" % (field.m, field.m)


def conjugate_form(form: DiagForm, sigma: int) -> DiagForm:
    """Apply the sigma-th monomorphism to every coefficient."""
    if sigma == 0:
        return form
    if sigma != 1 or monomorphism_count(form.field) != 2:
        raise ValueError("invalid monomorphism index %r" % (sigma,))
    return DiagForm([conjugate(c) for c in form.coeffs], form.field)


def is_definite(form: DiagForm, sigma: int = 0) -> bool:
    """All coefficient signs agree under the sigma-th real embedding."""
    conj = conjugate_form(form, sigma)
    if conj.field is not None and conj.field.is_quadratic and conj.field.m < 0:
        raise ValueError("definiteness needs a real embedding")
    signs = {sign(c) for c in conj.coeffs}
    return len(signs) == 1


def preserves_form(g: ExactMatrix, form: DiagForm) -> bool:
    """Exact test transpose(g) * A * g == A for A = diag(coeffs).

    The entries of g and the coefficients are cleared of denominators
    together into one ring (Z or Z[sqrt(m)]): g = G/D and A = diag(c)/D, and
    :func:`_ring_preserves` tests D^3 (g^T A g - A) = 0.
    """
    n = form.nvars
    if g.rows != n or g.cols != n:
        raise ValueError("matrix size does not match the form")
    _, scale, values = to_ring(g.data + form.coeffs)
    return _ring_preserves(values[:n * n], values[n * n:], scale * scale)


def _ring_preserves(entries, coeffs, d2) -> bool:
    """sum_k G_ki c_k G_kj == d2 c_i [i == j] for i <= j, for the n x n matrix
    G with row-major ring entries and the n ring coefficients c: g = G/D
    preserves diag(c) exactly when this holds with d2 = D^2.  The form is
    diagonal, so it weights rows, and no matrix is built.
    """
    n = len(coeffs)
    # the nonzero entries (k, G_kj) of each column j
    cols = [[(k, entries[k * n + j]) for k in range(n) if entries[k * n + j]]
            for j in range(n)]
    for i in range(n):
        weighted = {k: coeffs[k] * x for k, x in cols[i]}
        for j in range(i, n):
            acc = sum(weighted[k] * y for k, y in cols[j] if k in weighted)
            if acc != (d2 * coeffs[i] if i == j else 0):
                return False
    return True


# -- nilpotents and unipotents ------------------------------------------------------


def is_nilpotent(x: ExactMatrix) -> bool:
    """X^n = 0, cross-checked against the exact trace test tr(X^j) = 0."""
    if not x.is_square:
        raise ValueError("nilpotency is for square matrices")
    _, _, entries = to_ring(x.data)
    return _ring_nilpotent(entries, x.rows)


def is_unipotent(g: ExactMatrix) -> bool:
    """(g - I)^n = 0, tested as (G - D*I)^n = 0 for g = G/D."""
    if not g.is_square:
        raise ValueError("unipotency is for square matrices")
    n = g.rows
    _, scale, entries = to_ring(g.data)
    for i in range(n):
        entries[i * n + i] -= scale
    return _ring_nilpotent(entries, n)


def _ring_nilpotent(entries, n: int) -> bool:
    """X^n = 0 for the n x n matrix X with row-major ring entries, cross-checked
    against tr(X^j) = 0 for j = 1..n on the same powers.  X is scaled by a
    positive integer, which changes neither test.

    The powers are kept as sparse rows {column: nonzero entry}; once a power
    vanishes, so does every later one, and so do their traces.
    """
    x_rows = [[(j, e) for j, e in enumerate(entries[i * n:(i + 1) * n]) if e]
              for i in range(n)]
    power = [dict(row) for row in x_rows]
    traces_vanish = True
    for step in range(n):
        if step:
            power = [_sparse_row_times(row, x_rows) for row in power]
        if not any(power):
            break
        if sum(row.get(i, 0) for i, row in enumerate(power)) != 0:
            traces_vanish = False
    power_vanishes = not any(power)
    if power_vanishes != traces_vanish:
        raise AssertionError("power and trace nilpotency tests disagree")
    return power_vanishes


def _sparse_row_times(row, x_rows):
    """The sparse row ``row`` times the matrix of sparse rows ``x_rows``."""
    acc = {}
    for k, a in row.items():
        for j, b in x_rows[k]:
            acc[j] = acc[j] + a * b if j in acc else a * b
    return {j: v for j, v in acc.items() if v}


def exp_nilpotent(x: ExactMatrix) -> ExactMatrix:
    """Exact finite exponential sum of a nilpotent matrix."""
    if not is_nilpotent(x):
        raise ValueError("matrix is not nilpotent")
    n = x.rows
    out = ExactMatrix.identity(n)
    term = ExactMatrix.identity(n)
    factorial = 1
    for j in range(1, n):
        term = term * x
        if term.is_zero():
            break
        factorial *= j
        out = out + term * Fraction(1, factorial)
    return out


def ad_action(g: ExactMatrix, x: ExactMatrix) -> ExactMatrix:
    """Conjugation g X g^-1 on matrices of the same size."""
    if g.rows != x.rows or g.cols != x.cols or not g.is_square:
        raise ValueError("size mismatch in the adjoint action")
    return g * x * g.inv()


# -- the adjoint-orbit systole detector ---------------------------------------------


class AdjointSystole:
    """Result of minimizing ||g X g^-1||_F^2 over integer trace-zero X."""

    __slots__ = ("min_norm_sq", "witness", "witness_nilpotent")

    def __init__(self, min_norm_sq, witness, witness_nilpotent):
        self.min_norm_sq = min_norm_sq
        self.witness = witness
        self.witness_nilpotent = witness_nilpotent

    def __iter__(self):
        return iter((self.min_norm_sq, self.witness))

    def __repr__(self):
        return "AdjointSystole(%s at %r, nilpotent=%s)" % (
            self.min_norm_sq, self.witness.to_rows(), self.witness_nilpotent)


def adjoint_systole(g: ExactMatrix, coeff_bound: int, node_budget=None) -> AdjointSystole:
    """Minimum of ||g X g^-1||_F^2 over the nonzero integer trace-zero
    matrices X with entries bounded by coeff_bound, over Q or Q(sqrt(m));
    reports whether the witness is nilpotent by the trace test.

    X -> ||g X g^-1||_F^2 is a quadratic form, built once on ring integers
    by :func:`_adjoint_gram`: its Gram matrix on the trace-zero basis E_ij
    (i != j), E_ii - E_nn in row-major order, times D^(2n) for g = G/D.  The
    coordinates of X are its row-major entries without the last one, which
    the trace forces.  The box is searched on that Gram matrix by the exact
    enumeration with every coordinate clamped to [-coeff_bound, coeff_bound]
    and the forced entry (minus the sum of the other diagonal coordinates)
    bounded at the leaves; on these coordinates witness_key orders ties as
    the row-major entries do.  The minimum is divided by D^(2n) once.
    Raises ValueError unless det g = 1, and BudgetExceededError once the
    search visits more than ``node_budget`` nodes
    (enumeration.DEFAULT_NODE_BUDGET if None).
    """
    if not g.is_square or g.rows < 2:
        raise ValueError("adjoint systole needs a square matrix of size >= 2")
    gram, divisor, ring = _adjoint_gram(g)
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be positive")
    n = g.rows
    diag = [i * n + i for i in range(n - 1)]

    def forced_entry_in_box(coords):
        return abs(sum(coords[k] for k in diag)) <= coeff_bound

    from . import enumeration       # loaded on first search: verdicts never load it

    value, coords, _ = enumeration.shortest_vector(
        enumeration.IntegralGram.in_ring(gram, ring), node_budget, box=coeff_bound,
        accept=forced_entry_in_box)
    entries = list(coords) + [-sum(coords[k] for k in diag)]
    return AdjointSystole(value / divisor, ExactMatrix(n, n, entries),
                          _ring_nilpotent(entries, n))


def _adjoint_gram(g: ExactMatrix):
    """(gram, D^(2n), ring): the Gram matrix of X -> ||g X g^-1||_F^2 on the
    trace-zero basis, times D^(2n), and its ring Z or Z[sqrt(m)], for g = G/D
    with G cleared of denominators; ValueError unless det g = 1.  A Gram
    matrix with no irrational entry is returned in Z, as ints.

    One fraction-free pass gives det G and adj G = det G * G^-1, so det g = 1
    is det G = D^n, and then adj G = D^(n-1) g^-1.  The image of E_ij is
    G E_ij adj G - [i == j] G E_nn adj G, with entries
    G[a,i] adj[j,b] - [i == j] G[a,n-1] adj[n-1,b]: D^n times g E_ij g^-1.
    """
    n = g.rows
    ring, scale, entries = to_ring(g.data)
    det, adj = fraction_free_adjugate(entries, n, ring)
    if det != scale ** n:
        raise ValueError("matrix must have determinant 1")
    last = n - 1
    cols = [entries[i::n] for i in range(n)]
    rows = [adj[j * n:(j + 1) * n] for j in range(n)]
    corner = [x * y for x in cols[last] for y in rows[last]]
    images = []
    for i in range(n):
        for j in range(n):
            if i == j == last:
                continue
            image = [x * y for x in cols[i] for y in rows[j]]
            images.append([u - v for u, v in zip(image, corner)] if i == j else image)
    size = len(images)
    gram = [[0] * size for _ in range(size)]
    for p, u in enumerate(images):
        for q in range(p, size):
            gram[p][q] = gram[q][p] = sum(map(operator.mul, u, images[q]))
    if ring.m is not None and not any(e.b for row in gram for e in row):
        gram, ring = [[e.a for e in row] for row in gram], IntRing
    return gram, scale ** (2 * n), ring


# -- isotropic vectors and the transvection witness ----------------------------------


def _as_field(c, m):
    if m is None:
        return Fraction(c)
    if isinstance(c, QuadScalar):
        return c
    return QuadScalar(Fraction(c), 0, m)


def _form_m(form):
    return form.field.m if form.field and form.field.is_quadratic else None


def isotropic_search(form: DiagForm, height: int, node_budget=None):
    """A nonzero zero of the form with integer-ring coordinates of height <=
    ``height``, or None.

    Each ring element x = p + q*omega of the height box (q = 0 over Q) is
    written (u + w*sqrt(m))/2, so that for a coefficient c = e + f*sqrt(m)
    cleared of denominators 4*c*x^2 is the integer pair
    (e*s + f*t*m, e*t + f*s) with s = u^2 + w^2*m and t = 2*u*w.  A root
    table maps every value 4*c_0*x_0^2 over the box to its root x_0; the
    (n-1)-fold box of the other coordinates is scanned in lexicographic
    height order (0, 1, -1, 2, -2, ...), and the first point whose negated
    sum is in the table gives the zero.  The sum over the first n-2 of these
    coordinates is taken once per prefix, and each value of the last one
    then costs one table lookup.  Of the roots +-x_0 the table keeps the
    first in height order, the one with p > 0, or p = 0 and q >= 0.  Raises
    BudgetExceededError when one coordinate's box has more than
    ``node_budget`` points (errors.DEFAULT_NODE_BUDGET if None; ``nodes`` is
    then 0), or when no zero is found among the first ``node_budget`` points
    of a larger scan (``nodes`` is then the budget; the all-zero point counts).
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else int(node_budget)
    if budget < 1:
        raise ValueError("node budget must be positive")
    m = _form_m(form)
    side = 2 * height + 1
    width = side if m is None else side * side
    if width > budget:
        raise BudgetExceededError(
            "isotropic search box of %d points per coordinate exceeds the "
            "budget of %d" % (width, budget), budget=budget, nodes=0)
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
    lead, last = rows[:-1], rows[-1]
    # the first ``budget`` points of the scan: ``full`` whole rows of the last
    # coordinate, then the first ``rest`` points of one more
    full, rest = divmod(budget, width)
    prefixes = itertools.product(range(width), repeat=len(lead))
    for count, prefix in enumerate(itertools.islice(prefixes, full + (rest > 0))):
        a = b = 0
        for row, k in zip(lead, prefix):
            ta, tb = row[k]
            a -= ta
            b -= tb
        # the all-zero point, whose only root is 0, is counted and skipped
        start = 0 if count else 1
        stop = width if count < full else rest
        for j, (ta, tb) in enumerate(itertools.islice(last, start, stop), start):
            root = roots.get((a - ta, b - tb))
            if root is not None:
                vec = tuple(_as_field(p, m) + q * omega
                            for p, q in (box[k] for k in (root,) + prefix + (j,)))
                if form.value(vec) != 0:
                    raise AssertionError("isotropic candidate does not vanish")
                return vec
    if width ** len(rows) > budget:
        raise BudgetExceededError(
            "isotropic search exceeded the budget of %d points" % budget,
            budget=budget, nodes=budget)
    return None


def unipotent_from_isotropic(form: DiagForm, vector) -> ExactMatrix:
    """A nontrivial unipotent element of SO(f) built from an isotropic vector.

    Uses the transvection x -> x + b(x,v) w - b(x,w) v - (1/2) b(w,w) b(x,v) v
    for some w orthogonal to v and independent of it, built on ring integers.
    The coefficients and v are cleared of denominators once, c = C/k and
    v = V/k.  With p the first index of V_p != 0 and beta = C_p V_p, each
    candidate w0 (e_k, then e_k + e_l for k < l) gives w = W/beta with
    W = beta w0 - b_C(w0, V) e_p, skipped when W is proportional to V.  Then
    g = G/D with G = X + D*I, D = 2 k^4 N(beta)^2 and
    X_ij = s (C_j V_j W_i - C_j W_j V_i) - t C_j V_j V_i for
    s = 2 k^2 beta conj(beta)^2 and t = b_C(W, W) conj(beta)^2.  G is
    re-verified (preserves the form, X nilpotent, X != 0) before it is
    divided by D once.
    """
    n = form.nvars
    m = _form_m(form)
    vector = tuple(_as_field(v, m) for v in vector)
    if len(vector) != n:
        raise ValueError("vector length does not match the form")
    ring, k, values = to_ring(form.coeffs + vector, m)
    coeffs, vec = values[:n], values[n:]
    if not any(vec):
        raise ValueError("isotropic vector must be nonzero")
    cv = [c * x for c, x in zip(coeffs, vec)]
    if sum(x * y for x, y in zip(cv, vec)) != 0:
        raise ValueError("vector is not isotropic for the form")
    if n < 3:
        raise ValueError(
            "degenerate transvection: binary forms have no nontrivial unipotent"
        )
    # b_C(V, e_p) = beta != 0 because the form is nondegenerate
    p = next(i for i, x in enumerate(vec) if x)
    beta = cv[p]
    bar = conjugate(beta)
    bar2, norm = bar * bar, beta * bar
    d = 2 * k ** 4 * norm * norm
    s = 2 * k * k * beta * bar2
    scv = [s * y for y in cv]
    pairs = itertools.combinations(range(n), 2)
    for w0 in itertools.chain(((i,) for i in range(n)), pairs):
        w = [beta if i in w0 else ring.zero for i in range(n)]
        w[p] = w[p] - sum(cv[i] for i in w0)
        if all(x * vec[p] == w[p] * y for x, y in zip(w, vec)):
            continue    # W proportional to V would give X = 0
        t = sum(c * x * x for c, x in zip(coeffs, w) if x) * bar2
        # X_ij = s C_j V_j W_i - (s C_j W_j + t C_j V_j) V_i
        tail = [s * c * x + t * y for c, x, y in zip(coeffs, w, cv)]
        nil = [a * wi - b * vi for wi, vi in zip(w, vec) for a, b in zip(scv, tail)]
        if not any(nil):
            continue
        g = list(nil)
        for i in range(0, n * n, n + 1):
            g[i] = g[i] + d
        if not _ring_preserves(g, coeffs, d * d):
            raise AssertionError("transvection fails to preserve the form")
        if not _ring_nilpotent(nil, n):
            raise AssertionError("transvection is not unipotent")
        # callers keep verdicts, and a third of the entries repeat a value
        # (zeros and ones above all): equal entries share one object
        shared = {e: ring.quotient(e, d) for e in set(g)}
        return ExactMatrix(n, n, [shared[e] for e in g])
    raise ValueError("degenerate transvection: no admissible companion vector")


# -- the verdict engine ---------------------------------------------------------------


def _elementary_unipotent(n: int) -> ExactMatrix:
    entries = [Fraction(int(i == j)) for i in range(n) for j in range(n)]
    entries[1] = Fraction(1)
    return ExactMatrix(n, n, entries)


def uniformity_verdict(spec: GroupSpec, height: int = 10, node_budget=None) -> Verdict:
    """Decide uniformity for SL(n) and SO(diagonal form).

    SL(n >= 2) always carries the elementary unipotent I + E12.  For SO(f):
    a definite Galois conjugate makes the conjugate real group compact, so
    the rational points carry no nontrivial unipotent and the lattice is
    uniform; a binary form is decided by its torus (:func:`_binary_verdict`);
    for three or more variables an isotropic vector of bounded height
    produces an explicit unipotent witness against uniformity; otherwise the
    verdict is honestly inconclusive (a bounded search cannot prove
    anisotropy).  The isotropic search raises BudgetExceededError past
    ``node_budget`` box points (errors.DEFAULT_NODE_BUDGET if None).
    """
    if spec.kind == "SL":
        witness = _elementary_unipotent(spec.n)
        if not is_unipotent(witness) or witness.is_identity():
            raise AssertionError("elementary unipotent failed verification")
        return Verdict(
            Verdict.NOT_UNIFORM,
            "SL(%d) rational points contain the nontrivial unipotent I + E12"
            % spec.n,
            criterion="unipotent obstruction to compactness",
            witness=witness,
        )

    form = spec.form
    field = form.field
    for idx in range(monomorphism_count(field)):
        conj = conjugate_form(form, idx)
        real_embedding = (
            field is None or not field.is_quadratic or field.m > 0
        )
        if real_embedding and is_definite(conj, 0):
            return Verdict(
                Verdict.UNIFORM,
                "the conjugate form under %s is definite, its real orthogonal "
                "group is compact, and a compact group has no nontrivial "
                "unipotent element" % sigma_name(field, idx),
                criterion="Godement criterion (definite conjugate)",
                conjugate_name=sigma_name(field, idx),
            )
    if form.nvars == 2:
        return _binary_verdict(form)
    vec = isotropic_search(form, height, node_budget)
    if vec is not None:
        witness = unipotent_from_isotropic(form, vec)
        return Verdict(
            Verdict.NOT_UNIFORM,
            "isotropic vector of height <= %d yields a nontrivial unipotent "
            "element preserving the form" % height,
            criterion="Godement criterion (isotropic form)",
            witness=witness,
            isotropic_vector=vec,
        )
    return Verdict(
        Verdict.INCONCLUSIVE,
        "no definite Galois conjugate and no isotropic vector of height <= %d; "
        "the bounded search cannot certify anisotropy (the verdict engine "
        "assumes isotropy is equivalent to the existence of a unipotent)"
        % height,
        criterion="Godement criterion (undecided)",
        search_bound=height,
    )


def _binary_verdict(form: DiagForm) -> Verdict:
    """Verdict for SO(c1 x^2 + c2 y^2), a one-dimensional torus over K.

    By the compactness criterion for reductive groups (Godement; Borel and
    Harish-Chandra, Mostow and Tamagawa) the quotient is compact iff the
    torus is K-anisotropic, iff the form has no zero, iff -c1 c2 is not a
    square in K.  When -c1 c2 = r^2, (r, c1) is isotropic and the witness is
    the element of eigenvalues t = 2 and 1/t on the two isotropic lines:
    [[p, q r / c1], [-q r / c2, p]] with p = (t + 1/t)/2, q = (t - 1/t)/2,
    re-verified (preserves the form, det 1, trace not +-2) before it is
    returned.
    """
    c1, c2 = form.coeffs
    m = _form_m(form)
    target = -c1 * c2
    field = "Q" if m is None else "Q(sqrt(%d))" % m
    root = _square_root(target, m)
    if root is None:
        return Verdict(
            Verdict.UNIFORM,
            "SO of a binary form is a one-dimensional torus, and -c1*c2 = %s is "
            "not a square in %s, so the torus is anisotropic and has no "
            "noncompact part" % (target, field),
            criterion="Godement criterion (anisotropic torus)",
        )
    vec = (_as_field(root, m), _as_field(c1, m))
    p, q = _as_field(Fraction(5, 4), m), Fraction(3, 4)
    g = ExactMatrix(2, 2, [p, q * root / c1, -q * root / c2, p])
    if form.value(vec) != 0:
        raise AssertionError("isotropic vector of the binary form does not vanish")
    if not preserves_form(g, form):
        raise AssertionError("split torus element fails to preserve the form")
    if g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] != 1 or g.trace() in (2, -2):
        raise AssertionError("split torus element is not split of determinant 1")
    return Verdict(
        Verdict.NOT_UNIFORM,
        "SO of a binary form is a one-dimensional torus, and -c1*c2 = %s is the "
        "square of %s in %s, so the torus splits; the witness preserves the "
        "form with eigenvalues 2 and 1/2" % (target, root, field),
        criterion="Godement criterion (split torus)",
        witness=g,
        isotropic_vector=vec,
    )


def _square_root(x, m):
    """r in Q (m None) or Q(sqrt(m)) with r * r == x, or None.

    For x = a + b*sqrt(m) with b != 0, r = u + v*sqrt(m) needs
    u^2 + m v^2 = a and 2 u v = b, so norm(x) = (u^2 - m v^2)^2 = s^2 and
    u^2 = (a +- s)/2 with u != 0; a rational a is a square, or m times one.
    """
    a, b = (x.a, x.b) if isinstance(x, QuadScalar) else (x, 0)
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        r = _rational_root(a)
        if r is not None or m is None:
            return r
        r = _rational_root(a / m)
        return None if r is None else QuadScalar(0, r, m)
    s = _rational_root(a * a - m * b * b)
    if s is None:
        return None
    for u2 in ((a + s) / 2, (a - s) / 2):
        u = _rational_root(u2)
        if u:
            root = QuadScalar(u, b / (2 * u), m)
            if root * root == x:
                return root
    return None


def _rational_root(q: Fraction):
    """The nonnegative rational square root of q, or None."""
    if q < 0:
        return None
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)
