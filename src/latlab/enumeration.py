"""Shortest vectors of exact Gram matrices.

A Gram matrix over Q or a real quadratic field Q(sqrt(m)) is scaled once by
the lcm of its denominators into Z or Z[sqrt(m)] by :func:`latlab.rings.to_ring`,
which also names that ring, and its integral Gram-Schmidt data is computed
once (:class:`IntegralGram`; a matrix already in a ring enters with scale 1
through :meth:`IntegralGram.in_ring`, which takes the ring); one exact search
in :mod:`latlab._svp` then runs over that ring from that data, and the ring's
``quotient`` scales the minimum back.

Over Z the search runs on an LLL-reduced basis (:func:`latlab._svp.lll`,
exact and integral, started from the same Gram-Schmidt data), whose tree is
far smaller on a skewed basis, and ties are broken in the caller's
coordinates, so the value and the witness are those of a search on the
given basis.  LLL is skipped, and the given basis
searched as it is, when it is already LLL-reduced (an O(n^2) exact check on
its Gram-Schmidt data, so the search is node for node the same), when a box
or an accept predicate is given (a change of basis does not keep the box),
and over Z[sqrt(m)], where the reduction costs more than it saves: on 40
random 6-dimensional bases with entries in [-5, 5] over Z[sqrt 2] and
Z[sqrt 5] it cuts the tree from 46-94 to 13-25 nodes (quartiles), but
reduction and search take 1.7 times as long as the search alone (0.54
against 0.32 ms per basis on an x86-64 Xeon, Python 3.11).
"""

from __future__ import annotations

from . import _svp
from .errors import DEFAULT_NODE_BUDGET, BudgetExceededError  # re-exported for callers
from .rings import to_ring

__all__ = [
    "IntegralGram",
    "shortest_vector",
    "DEFAULT_NODE_BUDGET",
    "BudgetExceededError",
]


def compiled_available() -> bool:
    """Always False: the search has one pure-Python kernel.  Kept only because
    the benchmark harness calls it (``perfbench/run.py`` records it,
    ``perfbench/workloads.py`` gates a kernel check on it)."""
    return False


class IntegralGram:
    """A positive-definite Gram matrix over Q or Q(sqrt(m)) scaled by the lcm
    of its denominators into Z or Z[sqrt(m)].

    ``gram`` is the ring Gram matrix (scale times the given one), ``ring`` is
    its ring as :func:`latlab.rings.to_ring` returns it (Z unless an entry
    is irrational), and ``d``/``lam`` are the leading minors and integral
    Gram-Schmidt coefficients of the ring Gram matrix; a ring value v of
    degree k in the Gram entries is ``ring.quotient(v, scale ** k)`` in the
    given field.  Raises ValueError for an empty, mixed-field,
    imaginary-field or not positive-definite matrix.
    """

    __slots__ = ("gram", "scale", "ring", "d", "lam")

    def __init__(self, gram):
        if len(gram) == 0:
            raise ValueError("empty Gram matrix")
        ring, scale, entries = to_ring(e for row in gram for e in row)
        if ring.m is not None and ring.m < 0:
            raise ValueError("no exact ordering over an imaginary quadratic field")
        entries = iter(entries)
        self._set([[next(entries) for _ in row] for row in gram], scale, ring)

    @classmethod
    def in_ring(cls, gram, ring):
        """The form of a Gram matrix already in ``ring``, with scale 1: ints
        over Z, else :class:`latlab.rings.QuadInt` elements of Z[sqrt(m)] for
        a real field (m > 1), some of which may be rational.  Nothing is
        cleared or checked but positive definiteness."""
        form = cls.__new__(cls)
        form._set(gram, 1, ring)
        return form

    def _set(self, gram, scale, ring):
        self.gram, self.scale, self.ring = gram, scale, ring
        self.d, self.lam = _svp.integral_gso(gram, ring)


def shortest_vector(form: IntegralGram, node_budget=None, *, box=None, accept=None):
    """Exact (min_value, witness, nodes) of x^T G x over nonzero integer x.

    ``form`` is the :class:`IntegralGram` of the Gram matrix G.  The returned
    value is a Fraction for rational input and a QuadScalar for input over a
    real quadratic field.  ``box`` (an int H >= 1) restricts every coordinate
    to [-H, H], and ``accept`` (a predicate on the coordinate list, symmetric
    under x -> -x) restricts the minimum to the vectors it admits; it must
    admit the unit vector of the smallest diagonal entry, which seeds the
    search.  A BudgetExceededError carries the best (value, witness) found
    before the budget ran out, its value scaled back like a result's.

    Without a box or an accept predicate, a Gram matrix over Z that is not
    LLL-reduced is reduced first and the search runs on the reduced basis;
    ``nodes`` counts that search.  The value and the witness, also those of
    the error, are the same as on the given basis.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else int(node_budget)
    if budget < 1:
        raise ValueError("node budget must be positive")
    gram, d, lam, basis = form.gram, form.d, form.lam, None
    if box is None and accept is None and form.ring.m is None and not _svp.is_lll_reduced(d, lam):
        basis, gram, d, lam = _svp.lll(gram, d, lam, form.ring)
    c0, seed = _svp.initial_bound(gram)
    if box is not None:
        assert box >= 1, "a box must contain the unit vectors"
    if accept is not None:
        assert accept(list(seed)) and accept([-t for t in seed]), \
            "accept must admit the unit-vector seed and its negative"
    try:
        value, witness, nodes = _svp.search(d, lam, c0, seed, budget, form.ring,
                                            box, accept, basis=basis)
    except BudgetExceededError as exc:
        value, witness = exc.best
        exc.best = form.ring.quotient(value, form.scale), witness
        raise
    return form.ring.quotient(value, form.scale), witness, nodes
