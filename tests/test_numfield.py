from fractions import Fraction

import pytest

from conftest import oracle_poly_gcd_degree
from latlab import covol_sq
from latlab.numfield import (
    NumberFieldDesc,
    Signature,
    count_real_roots,
    field_norm,
    field_trace,
    minkowski_lattice,
    o_discreteness_check,
    ring_of_integers,
    signature_poly,
    signature_quad,
    sturm_chain,
)
from latlab.scalars import QuadScalar


def test_ring_of_integers_examples():
    r2 = ring_of_integers(NumberFieldDesc(m=2))
    assert r2.omega == QuadScalar(0, 1, 2) and r2.label() == "Z[sqrt(2)]"
    r5 = ring_of_integers(NumberFieldDesc(m=5))
    assert r5.omega == QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)
    ri = ring_of_integers(NumberFieldDesc(m=-1))
    assert ri.omega == QuadScalar(0, 1, -1)
    r13 = ring_of_integers(NumberFieldDesc(m=13))
    assert r13.omega_is_half


def test_ring_membership():
    r5 = ring_of_integers(NumberFieldDesc(m=5))
    assert r5.contains(r5.omega)
    assert r5.contains(QuadScalar(3, -2, 5))
    assert not r5.contains(QuadScalar(Fraction(1, 2), 0, 5))
    assert r5.coordinates(r5.omega) == (0, 1)
    r2 = ring_of_integers(NumberFieldDesc(m=2))
    assert not r2.contains(QuadScalar(Fraction(1, 2), Fraction(1, 2), 2))


def test_coordinates_read_off_omega(rnd):
    """p + q*omega has coordinates (p, q); (p + q*omega)/k is in the ring
    exactly when k divides p and q, and otherwise has no coordinates."""
    for m in (2, 3, 6, 7, -1, -2, 5, 13, 17, -3, -7, -15):
        ring = ring_of_integers(NumberFieldDesc(m=m))
        for _ in range(60):
            p, q, k = rnd.randint(-30, 30), rnd.randint(-30, 30), rnd.randint(1, 4)
            x = p + q * ring.omega
            assert ring.coordinates(x) == (p, q) and ring.contains(x)
            expected = (p // k, q // k) if p % k == 0 and q % k == 0 else None
            assert ring.coordinates(x / k) == expected
            assert ring.contains(x / k) is (expected is not None)
        assert ring.coordinates(Fraction(-4, 2)) == (-2, 0)
        assert ring.coordinates(Fraction(1, 2)) is None
        other = 3 if m != 3 else 2
        assert ring.coordinates(QuadScalar(5, 0, other)) == (5, 0)
        assert ring.coordinates(QuadScalar(0, 1, other)) is None
        assert ring.coordinates("1") is None and ring.coordinates(1.0) is None


def test_signature_is_a_tuple():
    sig = Signature(1, 1)
    assert sig == (1, 1) and hash(sig) == hash((1, 1))
    assert repr(sig) == "Signature(r1=1, r2=1)"
    assert list(sig) == [1, 1] and (sig.r1, sig.r2) == (1, 1)
    assert signature_poly([-2, 0, 0, 1]) == Signature(1, 1)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_squarefree_verdict_matches_gcd_oracle(rnd):
    """The last term of the Sturm chain is gcd(p, p') up to a unit, so the
    minpoly is refused exactly when the Euclidean gcd has positive degree."""
    verdicts = []
    for trial in range(600):
        if trial % 3 == 0:      # p * q^2 is never squarefree
            q = [rnd.randint(-3, 3) for _ in range(rnd.randint(1, 2))] + [1]
            p = [rnd.randint(-4, 4) for _ in range(rnd.randint(0, 2))] + [1]
            poly = _poly_mul(p, _poly_mul(q, q))
        else:
            poly = [rnd.randint(-4, 4) for _ in range(rnd.randint(1, 6))] + [1]
        derivative = [i * c for i, c in enumerate(poly)][1:]
        gcd_degree = oracle_poly_gcd_degree(poly, derivative)
        assert len(sturm_chain(poly)[-1]) - 1 == gcd_degree
        try:
            NumberFieldDesc(minpoly=poly)
            squarefree = True
        except ValueError as exc:
            assert str(exc) == "minimal polynomial must be squarefree"
            squarefree = False
        assert squarefree == (gcd_degree == 0)
        verdicts.append(squarefree)
    assert verdicts.count(False) >= 200 and verdicts.count(True) >= 200


def test_signature_quad():
    assert tuple(signature_quad(2)) == (2, 0)
    assert tuple(signature_quad(-1)) == (0, 1)
    assert tuple(signature_quad(5)) == (2, 0)


def test_signature_poly_examples():
    assert tuple(signature_poly([-2, 0, 0, 1])) == (1, 1)
    assert tuple(signature_poly([1, 0, 1])) == (0, 1)
    assert tuple(signature_poly([-2, 0, 1])) == (2, 0)


def test_signature_poly_validation():
    with pytest.raises(ValueError):
        signature_poly([2, 0, 2])        # not monic
    with pytest.raises(ValueError):
        signature_poly([1, 2, 1])        # (t+1)^2 not squarefree
    with pytest.raises(ValueError):
        signature_poly([1])


def test_signature_poly_matches_quad():
    for m in (2, 3, 5, -1, -2, 13, -7):
        assert tuple(signature_poly([-m, 0, 1])) == tuple(signature_quad(m))


def test_sturm_against_grid_oracle(rnd):
    # the grid points are non-integers, so a monic integer polynomial never
    # vanishes there; with a 1/1024 step the sign changes count all real
    # roots of these small cubics (the minimal root separation exceeds it)
    for _ in range(50):
        while True:
            coeffs = [rnd.randint(-5, 5) for _ in range(3)] + [1]
            try:
                sig = signature_poly(coeffs)
                break
            except ValueError:
                continue
        bound = 1 + max(abs(c) for c in coeffs)
        den = 2048  # grid x = j/2048 with odd j: never an integer
        changes = 0
        prev = None
        c0, c1, c2, c3 = coeffs
        for j in range(-bound * den + 1, bound * den, 2):
            value = ((c3 * j + c2 * den) * j + c1 * den**2) * j + c0 * den**3
            assert value != 0
            s = 1 if value > 0 else -1
            if prev is not None and s != prev:
                changes += 1
            prev = s
        assert count_real_roots(coeffs) == changes == sig.r1


def test_minkowski_lattice_trace_forms():
    expected = {2: ([[2, 0], [0, 4]], 8),
                5: ([[2, 1], [1, 3]], 5),
                13: ([[2, 1], [1, 7]], 13)}
    for m, (gram, disc) in expected.items():
        lat = minkowski_lattice(ring_of_integers(NumberFieldDesc(m=m)))
        assert [[Fraction(e.a) if isinstance(e, QuadScalar) else Fraction(e)
                 for e in row] for row in lat.gram] == [
            [Fraction(x) for x in row] for row in gram]
        assert covol_sq(lat) == disc


def test_minkowski_gram_positive_definite():
    for m in (2, 3, 5, 13, 17):
        lat = minkowski_lattice(ring_of_integers(NumberFieldDesc(m=m)))
        g = lat.gram
        lead1 = g[0][0]
        lead2 = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assert lead1 > 0 and lead2 > 0


def test_minkowski_rejects_imaginary():
    with pytest.raises(ValueError):
        minkowski_lattice(ring_of_integers(NumberFieldDesc(m=-1)))


def test_o_discreteness():
    assert o_discreteness_check(ring_of_integers(NumberFieldDesc(m=2))) == 2
    assert o_discreteness_check(ring_of_integers(NumberFieldDesc(m=5))) == 2
    for m in (3, 13, 17):
        assert o_discreteness_check(ring_of_integers(NumberFieldDesc(m=m))) > 0


def test_trace_and_norm():
    assert field_trace(QuadScalar(0, 1, 2)) == 0
    assert field_norm(QuadScalar(1, 1, 2)) == -1
    assert field_norm(QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)) == -1


def test_norm_multiplicative(rnd):
    for _ in range(200):
        m = rnd.choice([2, 5, -1, 13])
        x = QuadScalar(Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)),
                       Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)), m)
        y = QuadScalar(Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)),
                       Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)), m)
        assert field_norm(x * y) == field_norm(x) * field_norm(y)


def test_field_descriptor_validation():
    with pytest.raises(ValueError):
        NumberFieldDesc(m=12)
    with pytest.raises(ValueError):
        NumberFieldDesc()
    with pytest.raises(ValueError):
        NumberFieldDesc(minpoly=[1, 2])   # not monic
    desc = NumberFieldDesc(minpoly=[-2, 0, 0, 1])
    assert desc.degree == 3 and not desc.is_quadratic
    exact = NumberFieldDesc(minpoly=[Fraction(-4, 2), 0, 0, Fraction(1)])
    assert exact.minpoly == (-2, 0, 0, 1) and repr(exact) == repr(desc)
    assert all(type(c) is int for c in exact.minpoly)
    for coeffs, bad in (([-2, 0, 0, 1.7], "1.7"), (["3", 0, 1], "'3'"),
                        ([-2, 0, True], "True"), ([Fraction(1, 2), 0, 1], "Fraction(1, 2)")):
        with pytest.raises(ValueError) as info:
            NumberFieldDesc(minpoly=coeffs)
        assert str(info.value) == \
            "minimal polynomial coefficients must be integers, got %s" % bad
    with pytest.raises(ValueError):
        ring_of_integers(desc)
