"""Euclidean lattices with exact Gram data.

A lattice is an ordered basis of vectors with exact scalar entries; its Gram
matrix is cached at construction, also for a lattice derived from another.
The matrix is symmetric, so each entry is formed once per pair of basis
vectors, n(n+1)/2 exact dot products for rank n, and mirrored; the
reduction's congruence Y^T G Y is formed the same way.  A lattice that
:func:`reduce_bounded` derives by a unimodular change of basis takes no dot
product: its ring Gram matrix is that congruence of its parent's.
Covolume and systole are exposed squared (those stay in the scalar field);
floats only appear in the Hermite margin and the reduction-constant bound,
both of which involve pi.

Two background facts carry no operation here but explain the invariants: a
measurable set whose lattice translates are pairwise disjoint has volume at
most the covolume (which is what makes the ball-packing bound work), and the
full-rank discrete subgroups of R^n are exactly the subgroups with compact
quotient, so boundedness of covolume together with a positive lower bound on
the systole characterizes relatively compact families of lattices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from . import enumeration
from .errors import NotPositiveDefiniteError
from .rings import QuadInt, _typed_field, to_ring
from .scalars import QuadScalar, as_fraction, promote_entry, sign

if TYPE_CHECKING:   # imported where a matrix is built: lattice calls never load it
    from .matrices import ExactMatrix


class EuclideanLattice:
    """Z-span of an independent tuple of vectors with exact entries.

    ``basis`` is a sequence of column vectors; the rank may be smaller than
    the ambient dimension (orthogonal projections produce such lattices).
    ``form`` is the Gram matrix scaled into Z or Z[sqrt(m)] with its integral
    Gram-Schmidt data, computed once here and read by every invariant.
    """

    __slots__ = ("basis", "rank", "ambient", "gram", "form")

    def __init__(self, basis):
        basis = [tuple(promote_entry(e) for e in v) for v in basis]
        if not basis:
            raise ValueError("a lattice needs at least one basis vector")
        ambient = len(basis[0])
        if any(len(v) != ambient for v in basis):
            raise ValueError("basis vectors have mixed lengths")
        if len(basis) > ambient:
            raise ValueError("more basis vectors than ambient dimension")
        self.basis = tuple(basis)
        self.rank = len(basis)
        self.ambient = ambient
        self.gram = _symmetric(
            [[_dot(u, v) for v in basis[:i + 1]] for i, u in enumerate(basis)]
        )
        try:
            self.form = enumeration.IntegralGram(self.gram)
        except NotPositiveDefiniteError:
            raise ValueError("basis vectors are linearly dependent") from None

    def _changed_basis(self, t) -> "EuclideanLattice":
        """The same lattice on the basis B*T, for a unimodular integer T (a
        list of rows), built from this lattice's ring data without a dot
        product or a second clearing.

        Its form is T^T (sG) T, with this form's scale s and ring: the lcm of
        the Gram denominators, and whether an entry is irrational, belong to
        the lattice, not to the basis.  The basis is cleared once into its
        own ring, multiplied there and lifted back entry by entry.  The field
        Gram matrix is lifted through the basis's ring, so over Q(sqrt(m)) a
        rational entry stays a QuadScalar, as a dot product gives it.
        """
        n, form = self.rank, self.form
        flat = [e for v in self.basis for e in v]
        ring, scale, entries = to_ring(flat, _typed_field(flat))
        rows = [entries[r * self.ambient:(r + 1) * self.ambient] for r in range(n)]
        basis = tuple(
            tuple(ring.quotient(sum((t[r][c] * rows[r][i] for r in range(n) if t[r][c]),
                                    start=ring.zero), scale)
                  for i in range(self.ambient))
            for c in range(n))
        ring_gram = _congruent(form.gram, t, form.ring.zero)
        low = [row[:i + 1] for i, row in enumerate(ring_gram)]
        if ring.m is not None and form.ring.m is None:   # a rational Gram matrix
            low = [[QuadInt(x, 0, ring.m) for x in row] for row in low]
        out = EuclideanLattice.__new__(EuclideanLattice)
        out.basis, out.rank, out.ambient = basis, n, self.ambient
        out.gram = _symmetric([[ring.quotient(x, form.scale) for x in row] for row in low])
        out.form = enumeration.IntegralGram.__new__(enumeration.IntegralGram)
        out.form._set([list(row) for row in ring_gram], form.scale, form.ring)
        return out

    @property
    def dim(self) -> int:
        return self.rank

    @classmethod
    def standard(cls, n: int) -> "EuclideanLattice":
        """Z^n with the identity basis."""
        return cls([[Fraction(int(i == j)) for i in range(n)] for j in range(n)])

    def basis_matrix(self) -> ExactMatrix:
        """Ambient x rank matrix whose columns are the basis vectors."""
        from .matrices import ExactMatrix

        return ExactMatrix.from_rows(
            [[self.basis[j][i] for j in range(self.rank)] for i in range(self.ambient)]
        )

    def vector(self, coeffs):
        """The lattice vector with the given integer coefficients: ints (not
        bools) or Fractions with denominator 1, ValueError for anything else."""
        if len(coeffs) != self.rank:
            raise ValueError("coefficient vector has wrong length")
        for c in coeffs:
            if not (isinstance(c, int) and not isinstance(c, bool)
                    or isinstance(c, Fraction) and c.denominator == 1):
                raise ValueError("lattice coefficients must be integers, got %s"
                                 % (c,))
        return tuple(
            sum((self.basis[j][i] * coeffs[j] for j in range(self.rank)),
                start=Fraction(0))
            for i in range(self.ambient)
        )

    def __repr__(self):
        return "EuclideanLattice(rank=%d, ambient=%d)" % (self.rank, self.ambient)


def _dot(u, v):
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def _symmetric(low):
    """The symmetric matrix, a tuple of rows, whose row i starts with the
    i + 1 entries of ``low[i]`` (the entries on and below the diagonal)."""
    n = len(low)
    return tuple(tuple(low[i][j] if j <= i else low[j][i] for j in range(n))
                 for i in range(n))


class MahlerReport:
    """The two Mahler functionals over a finite family of lattices."""

    __slots__ = ("size", "sup_covol_sq", "inf_syst_sq", "bounded")

    def __init__(self, size, sup_covol_sq, inf_syst_sq, bounded):
        self.size = size
        self.sup_covol_sq = sup_covol_sq
        self.inf_syst_sq = inf_syst_sq
        self.bounded = bounded

    def __repr__(self):
        return (
            "MahlerReport(size=%d, sup_covol_sq=%s, inf_syst_sq=%s, bounded=%s)"
            % (self.size, self.sup_covol_sq, self.inf_syst_sq, self.bounded)
        )


# -- invariants ---------------------------------------------------------------


def covol_sq(lattice: EuclideanLattice):
    """Squared covolume = determinant of the Gram matrix (exact, positive):
    the last leading minor of the scaled Gram matrix, scaled back."""
    form = lattice.form
    return form.ring.quotient(form.d[-1], form.scale ** lattice.rank)


def gso(lattice: EuclideanLattice):
    """Exact Gram-Schmidt data: (mu as a lower-triangular unit matrix,
    squared norms of the orthogonalized vectors).

    Read off the integral data of the scaled Gram matrix: mu_ij = lam_ij /
    d_(j+1) and B_i = d_(i+1) / (d_i * scale).
    """
    from .matrices import ExactMatrix

    form = lattice.form
    d, lam = form.d, form.lam
    div = form.ring.quotient
    n = lattice.rank
    rows = [[div(lam[i][j], d[j + 1]) if j < i else Fraction(int(i == j))
             for j in range(n)] for i in range(n)]
    norms = [div(d[i + 1], d[i] * form.scale) for i in range(n)]
    return ExactMatrix.from_rows(rows), norms


def systole_sq(lattice: EuclideanLattice, node_budget=None):
    """Exact minimum of ||x||^2 over the nonzero lattice vectors.

    Returns (value, witness) with the witness a canonical integer coefficient
    vector; raises BudgetExceededError if the enumeration tree is larger than
    the budget.
    """
    value, witness, _ = enumeration.shortest_vector(lattice.form, node_budget)
    return value, witness


def hermite_check(lattice: EuclideanLattice, node_budget=None) -> float:
    """Margin of the ball-packing bound: 2*(covol/nu_n)^(1/n) - syst, floats.

    Raises ValueError when the squared covolume or systole is beyond float
    range.
    """
    n = lattice.rank
    syst_sq, _ = systole_sq(lattice, node_budget)
    try:
        covol = math.sqrt(float(covol_sq(lattice)))
        syst = math.sqrt(float(syst_sq))
    except OverflowError:
        raise ValueError("squared covolume or systole beyond float range; the "
                         "Hermite margin is only computed in floats") from None
    return 2.0 * (covol / ball_volume(n)) ** (1.0 / n) - syst


def ball_volume(n: int) -> float:
    """Volume of the n-dimensional unit ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def mahler_report(family, node_budget=None) -> MahlerReport:
    """Exact sup of covol^2 and inf of syst^2 over a finite family."""
    family = list(family)
    if not family:
        raise ValueError("empty family")
    rank = family[0].rank
    if any(lat.rank != rank for lat in family):
        raise ValueError("family mixes lattice dimensions")
    pairs = [(covol_sq(lat), systole_sq(lat, node_budget)[0]) for lat in family]
    sup_cv = pairs[0][0]
    inf_sy = pairs[0][1]
    for cv, sy in pairs[1:]:
        if sign(cv - sup_cv) > 0:
            sup_cv = cv
        if sign(sy - inf_sy) < 0:
            inf_sy = sy
    bounded = sign(inf_sy) > 0
    return MahlerReport(len(family), sup_cv, inf_sy, bounded)


# -- projection and reduction -----------------------------------------------------


def coefficients_of(lattice: EuclideanLattice, vector):
    """Integer coefficients of an ambient vector, or None if not in the lattice."""
    from .matrices import ExactMatrix

    vector = [promote_entry(e) for e in vector]
    if len(vector) != lattice.ambient:
        raise ValueError("vector has wrong ambient dimension")
    gram = ExactMatrix.from_rows(lattice.gram)
    coeffs = gram.solve([_dot(b, vector) for b in lattice.basis])
    out = []
    for c in coeffs:
        if isinstance(c, QuadScalar) and c.b != 0:
            return None
        f = as_fraction(c)
        if f.denominator != 1:
            return None
        out.append(f.numerator)
    if list(lattice.vector(out)) != vector:
        return None
    return out


def project_orthogonal(lattice: EuclideanLattice, vector) -> EuclideanLattice:
    """Image of the lattice under projection onto the hyperplane v-perp.

    ``vector`` must be a primitive nonzero lattice vector (a shortest vector
    in the intended use); then covol^2 of the projection times ||v||^2 equals
    covol^2 of the lattice, exactly.
    """
    if lattice.rank < 2:
        raise ValueError("projection needs a lattice of rank at least 2")
    vector = tuple(promote_entry(e) for e in vector)
    coeffs = coefficients_of(lattice, vector)
    if coeffs is None:
        raise ValueError("vector does not belong to the lattice")
    if all(c == 0 for c in coeffs):
        raise ValueError("cannot project along the zero vector")
    if gcd(*map(int, coeffs)) != 1:
        raise ValueError("projection direction must be a primitive lattice vector")
    completion = complete_primitive(coeffs)
    vsq = _dot(vector, vector)
    new_basis = []
    for col in range(1, lattice.rank):
        y = lattice.vector([completion[r][col] for r in range(lattice.rank)])
        t = _dot(y, vector) / vsq
        new_basis.append(tuple(yi - t * vi for yi, vi in zip(y, vector)))
    return EuclideanLattice(new_basis)


def _xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def complete_primitive(coeffs):
    """A unimodular integer matrix (rows x cols) whose first column is coeffs.

    Requires gcd(coeffs) = 1.  Pairwise extended-gcd row steps take coeffs
    to e_1; the inverse of each step is applied as a column operation, which
    builds the inverse of their product directly.
    """
    n = len(coeffs)
    if gcd(*map(int, coeffs)) != 1:
        raise ValueError("vector is not primitive")
    v = [int(c) for c in coeffs]
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        a, b = v[0], v[i]
        if b == 0:
            continue
        g, s, t = _xgcd(a, b)
        # row step on (0, i): [[s, t], [p, q]]; its inverse [[q, -t], [-p, s]]
        p, q = -(b // g), a // g
        for row in out:
            x, y = row[0], row[i]
            row[0], row[i] = q * x - p * y, s * y - t * x
        v[0], v[i] = g, 0
    if v[0] == -1:
        for row in out:
            row[0] = -row[0]
        v[0] = 1
    assert v[0] == 1
    assert [out[i][0] for i in range(n)] == [int(c) for c in coeffs]
    return out


def reduction_constant(n: int, a: float) -> float:
    """Recursive norm bound for admissible lattices: C(1,a) = a,
    C(n,a) = D(n,a) + C(n-1, (2/sqrt(3)) a^2) with D(n,a) = 2 (a/nu_n)^(1/n)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    a = float(a)
    if not a > 1.0:
        raise ValueError("parameter must exceed 1")
    if n == 1:
        return a
    d = 2.0 * (a / ball_volume(n)) ** (1.0 / n)
    return d + reduction_constant(n - 1, (2.0 / math.sqrt(3.0)) * a * a)


def reduce_bounded(lattice: EuclideanLattice, a, node_budget=None) -> EuclideanLattice:
    """Basis of the same lattice with norms below reduction_constant(n, a).

    Requires syst > 1/a and covol < a (both checked exactly on squares).
    Follows the inductive construction: take a shortest vector v, reduce the
    projection onto v-perp, then lift each projected basis vector back with
    its component along v size-reduced below ||v||.  All of it runs on the
    ring Gram matrix and gives a unimodular T; the returned lattice has the
    basis B*T and the form T^T (sG) T with the parent's scale and ring, and
    is built without a dot product (:meth:`EuclideanLattice._changed_basis`).
    """
    try:
        a = as_fraction(a)
    except (TypeError, ValueError):
        a = None
    if a is None or not a > 1:
        raise ValueError("parameter must be a rational greater than 1")
    if lattice.rank != lattice.ambient:
        raise ValueError("reduction expects a full-rank lattice")
    cv = covol_sq(lattice)
    if not sign(a * a - cv) > 0:
        raise ValueError("precondition failed: covol(L) < a")
    syst, witness = systole_sq(lattice, node_budget)
    if not sign(syst * a * a - 1) > 0:
        raise ValueError("precondition failed: syst(L) > 1/a")
    return lattice._changed_basis(_reduce(lattice.form, witness, node_budget))


def _reduce(form, witness, node_budget, pivot=None):
    """Unimodular transform (list of rows) reducing the Gram matrix of
    ``form``, given a shortest vector ``witness`` of it.

    Runs on the ring Gram matrix G.  With Y a unimodular completion of the
    witness and gy = Y^T G Y, the projection onto the witness's orthogonal
    complement has Gram matrix gy_ij - gy_i0 gy_j0 / vv (vv = gy_00, i, j >=
    1); its positive multiple vv gy_ij - gy_i0 gy_j0 is integral and has the
    same search tree and shortest vectors.  Below the top level that multiple
    is divided by ``pivot``, the vv of the level above (fraction-free
    Gaussian elimination, Bareiss): by Sylvester's identity the quotient is
    a minor of the transformed Gram matrix, so it lies in Z or Z[sqrt(m)],
    the exact ring division gives it and it is searched as it is (scale 1),
    and the entries do not double in size at each level.  Each lifted
    column is shifted along the witness by the nearest integer to its
    component zv / vv.
    """
    gram, ring = form.gram, form.ring
    n = len(gram)
    y = complete_primitive(witness)
    gy = _congruent(gram, y, ring.zero)
    vv = gy[0][0]
    sub = [[1]]
    if n > 2:
        minors = [[vv * gy[i][j] - gy[i][0] * gy[j][0] for j in range(1, n)]
                  for i in range(1, n)]
        if pivot is not None:
            minors = [[ring.exact_div(e, pivot) for e in row] for row in minors]
        sub_form = enumeration.IntegralGram.in_ring(minors, ring)
        _, sub_witness, _ = enumeration.shortest_vector(sub_form, node_budget)
        sub = _reduce(sub_form, sub_witness, node_budget, vv)
    cols = [[y[r][0] for r in range(n)]]
    for c in range(n - 1):
        z = [sum(y[r][1 + k] * sub[k][c] for k in range(n - 1)) for r in range(n)]
        zv = sum((sub[k][c] * gy[1 + k][0] for k in range(n - 1)), start=ring.zero)
        shift = ring.nearest(zv, vv)
        if shift:
            z = [zi - shift * y[r][0] for r, zi in enumerate(z)]
        cols.append(z)
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def _congruent(gram, y, zero):
    """Y^T G Y in ring arithmetic for an integer matrix Y (list of rows),
    as a tuple of rows.  It is symmetric: the entries on and below the
    diagonal are formed from G Y and mirrored."""
    n = len(gram)
    gy = [[sum((gram[i][k] * y[k][c] for k in range(n) if y[k][c]), start=zero)
           for c in range(n)] for i in range(n)]
    return _symmetric(
        [[sum((y[k][r] * gy[k][c] for k in range(n) if y[k][r]), start=zero)
          for c in range(r + 1)] for r in range(n)]
    )
