"""Byte-identity of uniformity verdicts: one sha256 over the ``--format json``
payloads of 600 seeded verdicts.

The forms lie over Q, Q(sqrt 2), Q(sqrt 3), Q(sqrt 5) and Q(sqrt 13), with
n = 2..4 variables and search heights 1 and 2.  Half of them are built
around an isotropic vector of the search height, so that n = 2 gives split
binary forms and n >= 3 gives unipotent witnesses; the other half are
random, and their binary forms have -c1*c2 equal to a square times -1, 2,
3, m or a random element, so that anisotropic tori and roots in sqrt(m)
both occur.  Coefficients carry random denominators and come as Fractions
or as QuadScalars.  The digest pins every status, reason, criterion,
witness entry and isotropic vector: a change that moves any of them fails
here.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

from latlab.cli import _verdict_payload
from latlab.groups import DiagForm, GroupSpec, uniformity_verdict
from latlab.numfield import NumberFieldDesc
from latlab.scalars import QuadScalar

FIELDS = [None, 2, 3, 5, 13]
# sha256 of the payloads, one compact JSON line each, in the order of _verdicts
DIGEST = "0b3498f69015f73fbe5a68b186e2abf9eb71e011402d3f2c95058b7b863b11e4"
# (variables, status): the digest's input, readable when it fails
STATUSES = {
    (2, "Uniform"): 85, (2, "NotUniform"): 115,
    (3, "Uniform"): 37, (3, "NotUniform"): 112, (3, "Inconclusive"): 51,
    (4, "Uniform"): 17, (4, "NotUniform"): 137, (4, "Inconclusive"): 46,
}


def _integer(rnd, m, h):
    """p + q*omega with |p|, |q| <= h: omega = sqrt(m), or (1 + sqrt(m))/2
    for m = 1 mod 4."""
    p = rnd.randint(-h, h)
    if m is None:
        return Fraction(p)
    q = rnd.randint(-h, h)
    if m % 4 == 1:
        return QuadScalar(Fraction(2 * p + q, 2), Fraction(q, 2), m)
    return QuadScalar(p, q, m)


def _nonzero(rnd, m, h):
    """A nonzero field value of height <= h over a random denominator, as a
    Fraction or a QuadScalar (rational ones as either)."""
    while True:
        a = Fraction(rnd.randint(-h, h), rnd.choice((1, 1, 2, 3)))
        b = Fraction(rnd.randint(-h, h), rnd.choice((1, 2))) if m else 0
        if not (a or b):
            continue
        if m is None or (not b and rnd.randrange(2)):
            return a
        return QuadScalar(a, b, m)


def _isotropic(rnd, m, n, h):
    """Coefficients with a zero of height <= h in the ring integers."""
    while True:
        v = [_integer(rnd, m, h) for _ in range(n)]
        if not v[-1]:
            continue
        d = [_nonzero(rnd, m, 3) for _ in range(n - 1)]
        last = -sum((c * x * x for c, x in zip(d, v)), Fraction(0)) / (v[-1] * v[-1])
        if last:
            return d + [last]


def _random(rnd, m, n):
    if n == 2 and rnd.randrange(2):
        # a rational s half the time, so that -c1*c2 = m*s^2 has a root in sqrt(m)
        c1, s = _nonzero(rnd, m, 3), _nonzero(rnd, rnd.choice((m, None)), 3)
        t = rnd.choice([-1, 2, 3, m or 5, _nonzero(rnd, m, 3)])
        return [c1, -t * s * s / c1]
    return [_nonzero(rnd, m, 3) for _ in range(n)]


def _verdicts():
    rnd = random.Random("verdict-golden")
    for m in FIELDS:
        field = None if m is None else NumberFieldDesc(m=m)
        for n in (2, 3, 4):
            for h in (1, 2):
                for k in range(20):
                    coeffs = _isotropic(rnd, m, n, h) if k % 2 else _random(rnd, m, n)
                    form = DiagForm(coeffs, field)
                    yield n, uniformity_verdict(GroupSpec("SO", form=form), h)


def test_verdict_payloads_are_byte_identical():
    digest = hashlib.sha256()
    statuses = Counter()
    for n, verdict in _verdicts():
        payload = json.dumps(_verdict_payload(verdict), sort_keys=True,
                             separators=(",", ":"))
        digest.update(payload.encode() + b"\n")
        statuses[n, verdict.status] += 1
    assert dict(statuses) == STATUSES
    assert digest.hexdigest() == DIGEST
