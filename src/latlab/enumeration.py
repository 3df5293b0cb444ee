"""Shortest vectors of exact Gram matrices.

A Gram matrix over Q or a real quadratic field Q(sqrt(m)) is scaled by the
lcm of its denominators into Z or Z[sqrt(m)]; one exact search in
:mod:`latlab._svp` then runs over that ring, and the minimum is scaled back.
"""

from __future__ import annotations

from fractions import Fraction

from . import _svp
from .errors import BudgetExceededError  # re-exported for callers
from .scalars import QuadScalar, as_fraction, denominator_lcm

DEFAULT_NODE_BUDGET = 1_000_000

__all__ = [
    "shortest_vector",
    "DEFAULT_NODE_BUDGET",
    "BudgetExceededError",
]


def compiled_available() -> bool:
    """Always False: the search has one pure-Python kernel.  Kept only because
    the benchmark harness calls it (``perfbench/run.py`` records it,
    ``perfbench/workloads.py`` gates a kernel check on it)."""
    return False


def _scale_gram(gram):
    """Scale a Gram matrix over Q or Q(sqrt(m)) into Z or Z[sqrt(m)].

    Returns (ring_gram, scale, m) with m None for a rational matrix.
    """
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
        return [[int(as_fraction(e) * scale) for e in row] for row in gram], scale, m
    return [[_scale_quad(e, scale, m) for e in row] for row in gram], scale, m


def _scale_quad(e, scale, m):
    a, b = (e.a, e.b) if isinstance(e, QuadScalar) else (e, 0)
    return QuadScalar(int(a * scale), int(b * scale), m)


def shortest_vector(gram, node_budget=None):
    """Exact (min_value, witness, nodes) of x^T G x over nonzero integer x.

    ``gram`` is a square positive-definite matrix given as rows of exact
    scalars.  The returned value is a Fraction for rational input and a
    QuadScalar for input over a real quadratic field.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else int(node_budget)
    if budget < 1:
        raise ValueError("node budget must be positive")
    if len(gram) == 0:
        raise ValueError("empty Gram matrix")
    ring_gram, scale, m = _scale_gram(gram)
    ring = _svp.IntRing if m is None else _svp.QuadIntRing(m)
    d, lam = _svp.integral_gso(ring_gram)
    c0, seed = _svp.initial_bound(ring_gram)
    value, witness, nodes = _svp.search(ring_gram, d, lam, c0, seed, budget, ring)
    value = Fraction(value, scale) if m is None else value / scale
    return value, witness, nodes
