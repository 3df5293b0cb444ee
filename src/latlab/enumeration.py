"""Shortest vectors of exact Gram matrices.

A Gram matrix over Q or a real quadratic field Q(sqrt(m)) is scaled once by
the lcm of its denominators into Z or Z[sqrt(m)] and its integral
Gram-Schmidt data is computed once (:class:`IntegralGram`); one exact search
in :mod:`latlab._svp` then runs over that ring, and the minimum is scaled
back.
"""

from __future__ import annotations

from fractions import Fraction

from . import _svp
from .errors import BudgetExceededError  # re-exported for callers
from .scalars import QuadScalar, as_fraction, denominator_lcm

DEFAULT_NODE_BUDGET = 1_000_000

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

    ``gram`` is the ring Gram matrix (scale times the given one), ``m`` is
    None for a rational matrix, ``ring`` is the matching ring adapter of
    :mod:`latlab._svp`, and ``d``/``lam`` are the leading minors and integral
    Gram-Schmidt coefficients of the ring Gram matrix.  Raises ValueError for
    an empty, mixed-field, imaginary-field or not positive-definite matrix.
    """

    __slots__ = ("gram", "scale", "m", "ring", "d", "lam")

    def __init__(self, gram):
        if len(gram) == 0:
            raise ValueError("empty Gram matrix")
        m = None
        for row in gram:
            for e in row:
                if isinstance(e, QuadScalar) and e.b != 0:
                    if m is None:
                        if e.m < 0:
                            raise ValueError(
                                "no exact ordering over an imaginary quadratic field")
                        m = e.m
                    elif e.m != m:
                        raise ValueError("mixed quadratic fields in one Gram matrix")
        scale = denominator_lcm(e for row in gram for e in row)
        if m is None:
            self.gram = [[int(as_fraction(e) * scale) for e in row] for row in gram]
            self.ring = _svp.IntRing
        else:
            self.gram = [[_scale_quad(e, scale, m) for e in row] for row in gram]
            self.ring = _svp.QuadIntRing(m)
        self.scale, self.m = scale, m
        self.d, self.lam = _svp.integral_gso(self.gram)

    def unscale(self, value, power=1):
        """A ring value of degree ``power`` in the Gram entries, scaled back
        to the field of the given matrix (a Fraction or a QuadScalar)."""
        scale = self.scale ** power
        return Fraction(value, scale) if self.m is None else value / scale


def _scale_quad(e, scale, m):
    a, b = (e.a, e.b) if isinstance(e, QuadScalar) else (e, 0)
    return QuadScalar(int(a * scale), int(b * scale), m)


def shortest_vector(form: IntegralGram, node_budget=None):
    """Exact (min_value, witness, nodes) of x^T G x over nonzero integer x.

    ``form`` is the :class:`IntegralGram` of the Gram matrix G.  The returned
    value is a Fraction for rational input and a QuadScalar for input over a
    real quadratic field.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else int(node_budget)
    if budget < 1:
        raise ValueError("node budget must be positive")
    c0, seed = _svp.initial_bound(form.gram)
    value, witness, nodes = _svp.search(form.gram, form.d, form.lam, c0, seed,
                                        budget, form.ring)
    return form.unscale(value), witness, nodes
