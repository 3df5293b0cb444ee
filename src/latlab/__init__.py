"""latlab: exact lattice invariants, quadratic fields, and uniformity verdicts.

Everything decision-relevant runs in exact arithmetic (big-integer rationals
and real quadratic irrationals); floats only appear in reports and in the
ball-volume bounds.  See the README for the CLI and the JSON document
formats.
"""

from .arith import (
    ZLattice,
    commensurability_m,
    congruence_index,
    congruence_member,
    intermediate_lattices,
    stabilizes,
    sublattice_index,
)
from .enumeration import BudgetExceededError
from .euclid import (
    EuclideanLattice,
    MahlerReport,
    covol_sq,
    gso,
    hermite_check,
    mahler_report,
    project_orthogonal,
    reduce_bounded,
    reduction_constant,
    systole_sq,
)
from .groups import (
    AdjointSystole,
    DiagForm,
    GroupSpec,
    Verdict,
    ad_action,
    adjoint_systole,
    conjugate_form,
    exp_nilpotent,
    is_definite,
    is_nilpotent,
    is_unipotent,
    isotropic_search,
    preserves_form,
    unipotent_from_isotropic,
    uniformity_verdict,
)
from .matrices import ExactMatrix
from .numfield import (
    IntegerRing,
    NumberFieldDesc,
    Signature,
    field_norm,
    field_trace,
    minkowski_lattice,
    o_discreteness_check,
    ring_of_integers,
    signature_poly,
    signature_quad,
)
from .resk import (
    RestrictedMatrix,
    recover_embeddings,
    res_element,
    res_matrix,
    res_stabilizer_check,
)
from .scalars import QuadScalar, Rational, conjugate, parse_scalar, print_scalar, sign

__version__ = "0.1.0"
