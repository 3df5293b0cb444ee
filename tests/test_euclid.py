import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from latlab.matrices import ExactMatrix
from latlab.scalars import QuadScalar, print_scalar

from conftest import (
    apply_basis_change,
    gso_from_gram,
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
    det = ExactMatrix.from_rows(gram).det()
    if det == 0:
        with pytest.raises(ValueError, match="linearly dependent"):
            EuclideanLattice(basis)
        return
    lattice = EuclideanLattice(basis)
    assert covol_sq(lattice) == det
    assert print_scalar(covol_sq(lattice)) == print_scalar(det)
    u = random_unimodular(random.Random(seed), lattice.rank, steps=6, shear=3)
    assert covol_sq(apply_basis_change(lattice, u)) == det


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


def test_mahler_workers_deterministic():
    family = [EuclideanLattice([[Fraction(t), 0], [0, Fraction(1, t)]])
              for t in range(1, 6)]
    seq = mahler_report(family, workers=1)
    par = mahler_report(family, workers=2)
    assert (seq.sup_covol_sq, seq.inf_syst_sq) == (par.sup_covol_sq, par.inf_syst_sq)


def test_quadratic_field_lattice():
    s = QuadScalar(0, 1, 2)
    lat = EuclideanLattice([[QuadScalar(1, 0, 2), QuadScalar(0, 0, 2)],
                            [s, QuadScalar(1, 0, 2)]])
    assert covol_sq(lat) == QuadScalar(1, 0, 2)
    value, witness = systole_sq(lat)
    assert value == QuadScalar(1, 0, 2) and witness == (1, 0)
