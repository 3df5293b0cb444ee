"""latlab: exact lattice invariants, quadratic fields, and uniformity verdicts.

Everything decision-relevant runs in exact arithmetic (big-integer rationals
and real quadratic irrationals); floats only appear in reports and in the
ball-volume bounds.  See the README for the CLI and the JSON document
formats.

The public names below are loaded on first use (PEP 562): ``import latlab``
imports no submodule, and ``latlab.systole_sq`` imports :mod:`latlab.euclid`
and binds the name here, so later lookups are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "arith": ("ZLattice", "commensurability_m", "congruence_index", "congruence_member",
              "intermediate_lattices", "stabilizes", "sublattice_index"),
    "errors": ("BudgetExceededError",),
    "euclid": ("EuclideanLattice", "MahlerReport", "covol_sq", "gso", "hermite_check",
               "mahler_report", "project_orthogonal", "reduce_bounded",
               "reduction_constant", "systole_sq"),
    "groups": ("AdjointSystole", "DiagForm", "GroupSpec", "Verdict", "ad_action",
               "adjoint_systole", "conjugate_form", "exp_nilpotent", "is_definite",
               "is_nilpotent", "is_unipotent", "isotropic_search", "preserves_form",
               "unipotent_from_isotropic", "uniformity_verdict"),
    "matrices": ("ExactMatrix",),
    "numfield": ("IntegerRing", "NumberFieldDesc", "Signature", "field_norm", "field_trace",
                 "minkowski_lattice", "o_discreteness_check", "ring_of_integers",
                 "signature_poly", "signature_quad"),
    "resk": ("RestrictedMatrix", "recover_embeddings", "res_element", "res_matrix",
             "res_stabilizer_check"),
    "scalars": ("QuadScalar", "Rational", "conjugate", "parse_scalar", "print_scalar",
                "sign"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

# every submodule, so that latlab.<submodule> works without importing it first
_SUBMODULES = set(_SUBMODULE_NAMES) | {"_svp", "cli", "documents", "enumeration", "rings"}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module("." + module, __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
