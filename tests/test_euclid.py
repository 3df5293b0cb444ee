import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latlab import (
    EuclideanLattice,
    covol_sq,
    gso,
    hermite_check,
    mahler_report,
    project_orthogonal,
    reduce_bounded,
    reduction_constant,
    systole_sq,
)
from latlab import _svp, documents, euclid
from latlab.errors import DocumentError
from latlab.euclid import coefficients_of, complete_primitive
from latlab.matrices import ExactMatrix
from latlab.rings import IntRing, QuadInt, QuadIntRing
from latlab.scalars import QuadScalar, print_scalar

from conftest import (
    apply_basis_change,
    gso_from_gram,
    oracle_det,
    oracle_reduced_lattice,
    random_integer_basis,
    random_lattice,
    random_unimodular,
    vector_norm_sq,
)


def test_covol_examples():
    for n in range(1, 5):
        assert covol_sq(EuclideanLattice.standard(n)) == 1
    tilted = EuclideanLattice([[1, 0], [Fraction(9, 10), Fraction(1, 10)]])
    assert covol_sq(tilted) == Fraction(1, 100)
    assert covol_sq(EuclideanLattice([[2, 0], [1, 1]])) == 4


def test_covol_unimodular_invariance(rnd):
    for _ in range(80):
        lat = random_lattice(rnd, 3)
        u = random_unimodular(rnd, 3)
        assert covol_sq(apply_basis_change(lat, u)) == covol_sq(lat)


@st.composite
def _ring_basis(draw):
    """(m, basis) with entries in (1/den) Z (m None), (1/den) Z[sqrt(2)] or
    (1/den) Z[sqrt(5)]; the rank may be below the ambient dimension, and the
    basis may be dependent."""
    m = draw(st.sampled_from([None, 2, 5]))
    ambient = draw(st.integers(1, 5 if m is None else 4))
    rank = draw(st.integers(1, ambient))
    den = draw(st.integers(1, 3))
    if m is None:
        elem = st.builds(lambda a: Fraction(a, den), st.integers(-4, 4))
    else:
        elem = st.builds(lambda a, b: QuadScalar(Fraction(a, den), Fraction(b, den), m),
                         st.integers(-3, 3), st.integers(-2, 2))
    return m, [[draw(elem) for _ in range(ambient)] for _ in range(rank)]


@settings(max_examples=120, deadline=None)
@given(_ring_basis(), st.integers(0, 2**32))
def test_covol_is_gram_determinant(case, seed):
    _, basis = case
    gram = [[sum((x * y for x, y in zip(u, v)), start=Fraction(0)) for v in basis]
            for u in basis]
    det = oracle_det(ExactMatrix.from_rows(gram))
    if det == 0:
        with pytest.raises(ValueError, match="linearly dependent"):
            EuclideanLattice(basis)
        return
    lattice = EuclideanLattice(basis)
    assert repr(lattice.gram) == repr(tuple(map(tuple, gram)))
    assert covol_sq(lattice) == det
    assert print_scalar(covol_sq(lattice)) == print_scalar(det)
    u = random_unimodular(random.Random(seed), lattice.rank, steps=6, shear=3)
    assert covol_sq(apply_basis_change(lattice, u)) == det


def test_gram_takes_one_dot_product_per_pair(rnd, monkeypatch):
    calls = []
    original = euclid._dot

    def counting(u, v):
        calls.append(1)
        return original(u, v)

    monkeypatch.setattr(euclid, "_dot", counting)
    cases = [random_integer_basis(rnd, n, -3, 3) for n in range(1, 13)]
    cases.append([[1, 2, 0, Fraction(1, 3), 5], [0, 1, -1, 2, 0], [3, 0, 1, 1, 1]])
    for basis in cases:
        calls.clear()
        lattice = EuclideanLattice(basis)
        n = lattice.rank
        assert len(calls) == n * (n + 1) // 2
        for i, u in enumerate(lattice.basis):
            for j, v in enumerate(lattice.basis):
                assert lattice.gram[i][j] == original(u, v)


def test_gso_examples():
    mu, norms = gso(EuclideanLattice.standard(3))
    assert norms == [1, 1, 1]
    assert mu.is_identity()
    mu, norms = gso(EuclideanLattice([[2, 0], [1, 1]]))
    assert norms == [4, 1]
    assert mu[1, 0] == Fraction(1, 2)


def test_gso_product_identity(rnd):
    for _ in range(40):
        lat = random_lattice(rnd, 3)
        _, norms = gso(lat)
        prod = Fraction(1)
        for b in norms:
            prod *= b
        assert prod == covol_sq(lat)


@settings(max_examples=100, deadline=None)
@given(_ring_basis())
def test_gso_matches_fraction_gso(case):
    # over Q, Q(sqrt 2), Q(sqrt 5), from the integral data of the lattice
    _, basis = case
    gram = [[sum((x * y for x, y in zip(u, v)), start=Fraction(0)) for v in basis]
            for u in basis]
    if ExactMatrix.from_rows(gram).det() == 0:
        return
    lattice = EuclideanLattice(basis)
    mu, norms = gso(lattice)
    oracle_mu, oracle_norms = gso_from_gram(gram)
    n = lattice.rank
    assert [[mu[i, j] for j in range(i)] for i in range(n)] == \
        [[oracle_mu[i][j] for j in range(i)] for i in range(n)]
    assert all(mu[i, i] == 1 and all(mu[i, j] == 0 for j in range(i + 1, n))
               for i in range(n))
    assert norms == oracle_norms
    prod = Fraction(1)
    for b in norms:
        prod = b * prod
    assert prod == covol_sq(lattice)


def test_systole_examples():
    value, witness = systole_sq(EuclideanLattice.standard(4))
    assert value == 1 and witness == (1, 0, 0, 0)
    tilted = EuclideanLattice([[1, 0], [Fraction(9, 10), Fraction(1, 10)]])
    value, witness = systole_sq(tilted)
    assert value == Fraction(1, 50)
    assert witness in ((1, -1), (-1, 1))
    value, witness = systole_sq(EuclideanLattice([[2, 0], [0, 1]]))
    assert value == 1 and witness == (0, 1)


def test_systole_witness_reverifies(rnd):
    for _ in range(30):
        lat = random_lattice(rnd, 3)
        value, witness = systole_sq(lat)
        assert vector_norm_sq(lat, witness) == value


@st.composite
def _basis_and_transform(draw):
    """(lattice, U): a full-rank basis over Z, Z[sqrt 2] or Z[sqrt 5] and a
    random unimodular integer matrix U."""
    m = draw(st.sampled_from([None, 2, 5]))
    n = draw(st.integers(1, 4 if m is None else 3))
    if m is None:
        elem = st.integers(-4, 4)
    else:
        elem = st.builds(lambda a, b: QuadScalar(a, b, m),
                         st.integers(-3, 3), st.integers(-2, 2))
    basis = [[draw(elem) for _ in range(n)] for _ in range(n)]
    assume(ExactMatrix.from_rows(basis).det() != 0)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return EuclideanLattice(basis), random_unimodular(random.Random(seed), n,
                                                      steps=8, shear=3)


@settings(max_examples=80, deadline=None)
@given(_basis_and_transform())
def test_systole_unimodular_invariance(case):
    """The systole does not depend on the basis, and the witness found in the
    new basis B*U maps back by U to a vector of the same norm."""
    lattice, u = case
    n = lattice.rank
    value, _ = systole_sq(lattice)
    changed = apply_basis_change(lattice, u)
    new_value, new_witness = systole_sq(changed)
    assert new_value == value
    mapped = [sum(int(u[i, j]) * new_witness[j] for j in range(n)) for i in range(n)]
    assert changed.vector(new_witness) == lattice.vector(mapped)
    assert vector_norm_sq(lattice, mapped) == value


def test_hermite_examples():
    assert abs(hermite_check(EuclideanLattice.standard(1))) < 1e-12
    assert abs(hermite_check(EuclideanLattice.standard(2))
               - (2.0 / math.sqrt(math.pi) - 1.0)) < 1e-9


def test_hermite_margin_nonnegative(rnd):
    for _ in range(100):
        lat = random_lattice(rnd, 3)
        assert hermite_check(lat) >= -1e-9


def test_project_examples():
    z2 = EuclideanLattice.standard(2)
    proj = project_orthogonal(z2, (1, 0))
    assert proj.rank == 1 and covol_sq(proj) == 1
    lat = EuclideanLattice([[2, 0], [1, 1]])
    proj = project_orthogonal(lat, (1, 1))
    assert covol_sq(proj) == 2


def test_complete_primitive_flips_a_negative_unit():
    """(-1, 0, 0) ends its gcd steps at -1, so the completion flips the sign
    of its first column; the projection along it keeps covol^2 1."""
    out = complete_primitive((-1, 0, 0))
    assert [row[0] for row in out] == [-1, 0, 0]
    assert ExactMatrix.from_rows(out).det() in (1, -1)
    assert covol_sq(project_orthogonal(EuclideanLattice.standard(3), (-1, 0, 0))) == 1


def test_coefficients_of_recovers_lattice_vectors(rnd):
    """Integer coefficients come back for lattice vectors, over Q and over
    Q(sqrt 2) with a rank below the ambient dimension, and None for a vector
    off the lattice or outside its span."""
    r2 = QuadScalar(0, 1, 2)
    lattices = [random_lattice(rnd, 3) for _ in range(5)]
    lattices.append(EuclideanLattice([[1 + r2, Fraction(1, 3), 0], [r2, 2, 1]]))
    for lat in lattices:
        coeffs = [rnd.randint(-4, 4) for _ in range(lat.rank)]
        vector = lat.vector(coeffs)
        assert coefficients_of(lat, vector) == coeffs
        half = [x / 2 for x in lat.vector([1] + [0] * (lat.rank - 1))]
        assert coefficients_of(lat, [x + y for x, y in zip(vector, half)]) is None
    assert coefficients_of(lattices[-1], [0, 0, 1]) is None


def test_project_covolume_identity(rnd):
    for _ in range(40):
        lat = random_lattice(rnd, 3)
        value, witness = systole_sq(lat)
        proj = project_orthogonal(lat, lat.vector(witness))
        assert covol_sq(lat) == value * covol_sq(proj)


def test_project_errors():
    z2 = EuclideanLattice.standard(2)
    with pytest.raises(ValueError):
        project_orthogonal(z2, (Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        project_orthogonal(z2, (0, 0))
    with pytest.raises(ValueError):
        project_orthogonal(z2, (2, 0))  # not primitive
    with pytest.raises(ValueError):
        project_orthogonal(EuclideanLattice([[1]]), (1,))


def test_projection_systole_inequality(rnd):
    for _ in range(100):
        lat = random_lattice(rnd, 3)
        value, witness = systole_sq(lat)
        proj = project_orthogonal(lat, lat.vector(witness))
        proj_value, _ = systole_sq(proj)
        assert 4 * proj_value >= 3 * value


def test_reduction_constant_values():
    assert reduction_constant(1, 2.0) == 2.0
    assert abs(reduction_constant(2, 2.0) - 6.2145712751) < 1e-6
    d22 = 2.0 * (2.0 / math.pi) ** 0.5
    assert abs(d22 - 1.5957691216) < 1e-9


def test_reduce_examples():
    z2 = EuclideanLattice.standard(2)
    reduced = reduce_bounded(z2, Fraction(2))
    assert reduced.basis == z2.basis
    skew = EuclideanLattice([[1, 0], [100, 1]])
    reduced = reduce_bounded(skew, Fraction(2))
    bound = reduction_constant(2, 2.0)
    for i in range(2):
        assert math.sqrt(float(reduced.gram[i][i])) <= bound + 1e-9
    assert (0, 1) in tuple(tuple(int(e) for e in v) for v in reduced.basis)
    one = EuclideanLattice([[7]])
    assert reduce_bounded(one, Fraction(8)).basis == one.basis


def test_reduce_same_lattice_and_bounds(rnd):
    bound_cache = {}
    for _ in range(25):
        n = rnd.choice([2, 3])
        u = random_unimodular(rnd, n, steps=14, shear=20)
        lat = apply_basis_change(EuclideanLattice.standard(n), u)
        reduced = reduce_bounded(lat, Fraction(2))
        transform = lat.basis_matrix().inv() * reduced.basis_matrix()
        assert transform.is_integral()
        assert abs(transform.det()) == 1
        bound = bound_cache.setdefault(n, reduction_constant(n, 2.0))
        for i in range(n):
            assert math.sqrt(float(reduced.gram[i][i])) <= bound + 1e-9


@st.composite
def _reducible_lattice(draw):
    """(lattice, a) with a full-rank basis over Z or Z[sqrt(2)] and the
    smallest integer a >= 2 that passes both preconditions."""
    m = draw(st.sampled_from([None, 2]))
    n = draw(st.integers(1, 4 if m is None else 3))
    if m is None:
        elem = st.builds(Fraction, st.integers(-4, 4))
    else:
        elem = st.builds(lambda a, b: QuadScalar(a, b, m),
                         st.integers(-3, 3), st.integers(-2, 2))
    basis = [[draw(elem) for _ in range(n)] for _ in range(n)]
    gram = [[sum((x * y for x, y in zip(u, v)), start=Fraction(0)) for v in basis]
            for u in basis]
    assume(ExactMatrix.from_rows(gram).det() != 0)
    lattice = EuclideanLattice(basis)
    syst, _ = systole_sq(lattice)
    a = Fraction(2)
    while not (a * a > covol_sq(lattice) and syst * a * a > 1):
        a += 1
    return lattice, a


@settings(max_examples=80, deadline=None)
@given(_reducible_lattice())
def test_reduce_bounded_properties(case):
    lattice, a = case
    n = lattice.rank
    reduced = reduce_bounded(lattice, a)
    transform = lattice.basis_matrix().inv() * reduced.basis_matrix()
    assert transform.is_integral()
    assert transform.det() in (1, -1)
    bound = reduction_constant(n, float(a))
    for i in range(n):
        assert math.sqrt(float(reduced.gram[i][i])) <= bound * (1 + 1e-9)
    assert reduced.gram[0][0] == systole_sq(lattice)[0]


def test_reduce_entries_stay_minors(rnd, monkeypatch):
    """Each recursion level of reduce_bounded divides its projected Gram
    matrix by the pivot of the level above (Bareiss), so its entries are
    minors of a transformed Gram matrix and do not double in size per level:
    on these 7-dim bases with 8-bit Gram entries the widest entry takes 35
    bits, and 171 bits without the division.  Every level's ring Gram matrix
    passes through integral_gso, whichever IntegralGram path built it."""
    widest = {}
    original = _svp.integral_gso

    def spy(gram, ring):
        bits = max(abs(e).bit_length() for row in gram for e in row)
        widest[len(gram)] = max(widest.get(len(gram), 0), bits)
        return original(gram, ring)

    monkeypatch.setattr(_svp, "integral_gso", spy)
    for _ in range(20):
        lattice = EuclideanLattice(random_integer_basis(rnd, 7))
        a = math.isqrt(int(covol_sq(lattice))) + 2
        reduced = reduce_bounded(lattice, a)
        transform = lattice.basis_matrix().inv() * reduced.basis_matrix()
        assert transform.is_integral() and transform.det() in (1, -1)
    assert widest[7] <= 8 and sorted(widest) == [2, 3, 4, 5, 6, 7]
    assert max(widest.values()) <= 64


def _typed_lattice(m, rows):
    """The lattice of a document over Q (m None) or Q(sqrt(m)), its entries
    typed as the CLI types them."""
    field = None if m is None else {"m": m}
    return documents.lattice_from_doc({"dim": len(rows), "field": field, "basis": rows})


@st.composite
def _document_lattice(draw):
    """A full-rank lattice, n = 2..7, as `documents` types it: over Q with
    integer or fractional entries, over Z[sqrt 2] or Z[sqrt 5] (rational
    entries typed with b = 0), or sqrt(2) Z^n-type bases, whose Gram matrix
    is rational but whose entries lie in Q(sqrt 2)."""
    kind = draw(st.sampled_from(["int", "den", "sqrt2", "sqrt5", "sqrt2_times_int"]))
    n = draw(st.integers(2, 7 if kind in ("int", "den") else 5))
    small = st.integers(-4, 4)
    if kind == "int":
        entry, m = st.builds(str, small), None
    elif kind == "den":
        entry, m = st.builds("{}/{}".format, small, st.sampled_from([1, 2, 3, 6])), None
    elif kind == "sqrt2_times_int":
        entry, m = st.builds("0+{}*sqrt(2)".format, small), 2
    else:
        m = int(kind[-1])
        entry = st.one_of(st.builds(str, small),
                          st.builds(("{}+{}*sqrt(%d)" % m).format, small, st.integers(-2, 2)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    try:
        return _typed_lattice(m, rows)
    except DocumentError:       # dependent rows
        assume(False)


def _same_lattice_data(got, want):
    for name in ("basis", "gram"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    for name in ("gram", "scale", "d", "lam"):
        assert repr(getattr(got.form, name)) == repr(getattr(want.form, name)), name
    assert (got.rank, got.ambient) == (want.rank, want.ambient)


def _admissible_a(lattice):
    """An integer a with covol(L) < a and syst(L) > 1/a."""
    syst, _ = systole_sq(lattice)
    return int(max(math.sqrt(float(covol_sq(lattice))), 1 / math.sqrt(float(syst)))) + 2


_SQRT2_SHEAR = _typed_lattice(2, [["0+1*sqrt(2)", "0"], ["0+3*sqrt(2)", "0+1*sqrt(2)"]])


@settings(max_examples=120, deadline=None)
@given(_document_lattice(), st.integers(0, 2**32))
@example(_SQRT2_SHEAR, 1)
def test_reduced_lattice_matches_the_rebuild_oracle(lattice, seed):
    """The lattice reduce_bounded returns, built from its parent's ring data,
    has the reprs of basis, Gram matrix and form that rebuilding it from the
    field vectors gives; so has any unimodular change of basis."""
    n = lattice.rank
    u = random_unimodular(random.Random(seed), n, steps=8, shear=3)
    t = [[int(u[i, j]) for j in range(n)] for i in range(n)]
    _same_lattice_data(lattice._changed_basis(t), oracle_reduced_lattice(lattice, t))
    t = euclid._reduce(lattice.form, systole_sq(lattice)[1], None)
    _same_lattice_data(reduce_bounded(lattice, _admissible_a(lattice)),
                       oracle_reduced_lattice(lattice, t))


def test_reduce_bounded_takes_no_dot_product(rnd, monkeypatch):
    """The reduced lattice is built from its parent's ring Gram matrix and
    cleared basis: no EuclideanLattice construction and no dot product."""
    cases = [EuclideanLattice(random_integer_basis(rnd, n)) for n in range(1, 8)]
    cases.append(EuclideanLattice([[Fraction(1, 2), 0, 1], [0, Fraction(1, 3), 0], [1, 1, 1]]))
    cases.append(_typed_lattice(5, [["1+1*sqrt(5)", "0", "1"], ["0", "2", "0+1*sqrt(5)"],
                                    ["1", "1", "3"]]))
    cases.append(_SQRT2_SHEAR)
    calls = {"__init__": 0, "_dot": 0}
    init, dot = EuclideanLattice.__init__, euclid._dot

    def counting_init(self, basis):
        calls["__init__"] += 1
        init(self, basis)

    def counting_dot(u, v):
        calls["_dot"] += 1
        return dot(u, v)

    admissible = [_admissible_a(lattice) for lattice in cases]
    monkeypatch.setattr(EuclideanLattice, "__init__", counting_init)
    monkeypatch.setattr(euclid, "_dot", counting_dot)
    for lattice, a in zip(cases, admissible):
        assert reduce_bounded(lattice, a).rank == lattice.rank
    assert calls == {"__init__": 0, "_dot": 0}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([None, 2, 5]), st.integers(1, 7), st.integers(0, 2**32))
def test_congruent_matches_triple_loop(m, n, seed):
    rnd = random.Random(seed)
    ring = IntRing() if m is None else QuadIntRing(m)
    if m is None:
        entry = lambda: rnd.randint(-9, 9)
    else:
        entry = lambda: QuadInt(rnd.randint(-9, 9), rnd.randint(-4, 4), m)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = entry()
    u = random_unimodular(rnd, n, steps=10, shear=4)
    y = [[int(u[i, j]) for j in range(n)] for i in range(n)]
    oracle = [[ring.zero for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for c in range(n):
            for i in range(n):
                for k in range(n):
                    oracle[r][c] = oracle[r][c] + y[i][r] * gram[i][k] * y[k][c]
    got = [list(row) for row in euclid._congruent(gram, y, ring.zero)]
    assert got == oracle
    assert repr(got) == repr(oracle)


def test_vector_takes_integer_coefficients():
    z2 = EuclideanLattice.standard(2)
    assert z2.vector([3, -1]) == (3, -1)
    assert z2.vector([Fraction(3), Fraction(-1)]) == (3, -1)
    with pytest.raises(ValueError, match="must be integers"):
        z2.vector([Fraction(1, 2), 0])
    with pytest.raises(ValueError, match="must be integers"):
        z2.vector([QuadScalar(1, 0, 2), 0])
    for flag in (True, False):
        with pytest.raises(ValueError, match="^lattice coefficients must be integers, got %s$"
                           % flag):
            z2.vector([flag, 0])


def test_reduce_reads_rational_parameter():
    skew = EuclideanLattice([[1, 0], [100, 1]])
    typed = reduce_bounded(skew, QuadScalar(3, 0, 2))
    assert repr(typed.basis) == repr(reduce_bounded(skew, 3).basis)
    for bad in (QuadScalar(3, 1, 2), "x", Fraction(1)):
        with pytest.raises(ValueError) as info:
            reduce_bounded(skew, bad)
        assert str(info.value) == "parameter must be a rational greater than 1"


def test_reduce_precondition_errors():
    with pytest.raises(ValueError):
        reduce_bounded(EuclideanLattice([[3, 0], [0, 1]]), Fraction(2))
    with pytest.raises(ValueError):
        reduce_bounded(EuclideanLattice.standard(2), Fraction(1))
    scaled = EuclideanLattice([[Fraction(1, 4), 0], [0, Fraction(1, 4)]])
    with pytest.raises(ValueError):
        reduce_bounded(scaled, Fraction(2))  # systole 1/4 <= 1/2


def test_mahler_examples():
    single = mahler_report([EuclideanLattice.standard(2)])
    assert single.sup_covol_sq == 1 and single.inf_syst_sq == 1
    family = [EuclideanLattice([[Fraction(t), 0], [0, Fraction(1, t)]])
              for t in range(1, 11)]
    report = mahler_report(family)
    assert report.sup_covol_sq == 1
    assert report.inf_syst_sq == Fraction(1, 100)
    assert report.bounded
    scaled = [EuclideanLattice([[c, 0], [0, c]]) for c in range(1, 6)]
    report = mahler_report(scaled)
    assert report.sup_covol_sq == 625 and report.inf_syst_sq == 1


def test_mahler_errors():
    with pytest.raises(ValueError):
        mahler_report([])
    with pytest.raises(ValueError):
        mahler_report([EuclideanLattice.standard(2), EuclideanLattice.standard(3)])


def test_quadratic_field_lattice():
    s = QuadScalar(0, 1, 2)
    lat = EuclideanLattice([[QuadScalar(1, 0, 2), QuadScalar(0, 0, 2)],
                            [s, QuadScalar(1, 0, 2)]])
    assert covol_sq(lat) == QuadScalar(1, 0, 2)
    value, witness = systole_sq(lat)
    assert value == QuadScalar(1, 0, 2) and witness == (1, 0)
