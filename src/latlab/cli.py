"""Command-line front end.

Every operation is a subcommand over JSON documents.  Exit codes: 0 success,
1 input/validation error, 2 inconclusive verdict, 3 budget exhausted.  The
json output format is versioned ("schema": 1) and byte-stable: keys are
sorted and exact scalars are printed as strings in the scalar grammar;
floating point values only appear under keys suffixed _approx, and are null
where the exact value is beyond float range.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import documents
from .errors import DEFAULT_NODE_BUDGET, BudgetExceededError, DocumentError
from .scalars import as_fraction, print_scalar

if TYPE_CHECKING:
    from .arith import ZLattice
    from .groups import Verdict

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_BUDGET = 3


def _budget(args) -> int:
    """--budget, else LATLAB_BUDGET, else the default node budget."""
    if args.budget is not None:
        return args.budget
    env = os.environ.get("LATLAB_BUDGET")
    if env is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise DocumentError("LATLAB_BUDGET must be an integer, got %r" % env)
    if value < 1:
        raise DocumentError("LATLAB_BUDGET must be positive")
    return value


def _emit(payload: dict, fmt: str, human_lines, out) -> None:
    if fmt == "json":
        payload = dict(payload)
        payload["schema"] = 1
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    else:
        for line in human_lines:
            out.write(line + "\n")


def _int_result(n: int) -> int:
    """n, once :func:`print_scalar` has checked that it converts to text: an
    int beyond the digit limit exits 1 with latlab's limit, like any printed
    result, and an int within it stays a JSON number."""
    print_scalar(n)
    return n


def _sqrt_approx(value):
    """sqrt(value) as a float, or None when value is beyond float range."""
    try:
        return math.sqrt(float(value))
    except OverflowError:
        return None


def _reduction_bound(rank, a):
    """C(rank, a) as a float, or None when it is beyond float range."""
    from . import euclid

    try:
        bound = euclid.reduction_constant(rank, float(a))
    except OverflowError:
        return None
    return bound if math.isfinite(bound) else None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise DocumentError, so that
    :func:`run` reports them as one line on its ``err`` stream; its
    subcommand parsers are of the same class."""

    def error(self, message):
        raise DocumentError(message)


def _zlattice_from(path: str) -> ZLattice:
    from . import arith

    vectors = documents.basis_from_doc(documents.load_json(path))
    rows = [[_rational(e) for e in vec] for vec in vectors]
    try:
        return arith.ZLattice(rows)
    except ValueError:          # not square, or singular
        raise DocumentError("expected a full-rank lattice document")


def _rational(e) -> Fraction:
    try:
        return as_fraction(e)
    except ValueError:
        raise DocumentError("this subcommand needs rational entries (field = null)")


def _lattice_from(path: str):
    return documents.lattice_from_doc(documents.load_json(path))


# Each handler below takes the parsed arguments and returns the json payload
# and the human lines; `group verdict` also returns its exit code.  `run`
# prints them and maps errors to exit codes.

def _lattice_covol(args):
    from . import euclid

    value = print_scalar(euclid.covol_sq(_lattice_from(args.document)))
    return {"covol_sq": value}, ["covol_sq = %s" % value]


def _lattice_systole(args):
    from . import euclid

    budget = _budget(args)
    value, witness = euclid.systole_sq(_lattice_from(args.document), budget)
    return ({"systole_sq": print_scalar(value), "witness": list(witness),
             "systole_approx": _sqrt_approx(value)},
            ["systole_sq = %s" % print_scalar(value),
             "witness coefficients = %s" % (list(witness),)])


def _lattice_reduce(args):
    from . import euclid

    budget = _budget(args)
    lattice = _lattice_from(args.document)
    try:
        a = Fraction(args.a)
    except (ValueError, ZeroDivisionError):
        raise DocumentError("--a must be a rational number like 2 or 5/2")
    reduced = euclid.reduce_bounded(lattice, a, budget)
    bound = _reduction_bound(lattice.rank, a)
    norms = [_sqrt_approx(reduced.gram[i][i]) for i in range(reduced.rank)]
    basis = documents.printed_rows(reduced.basis)
    return ({"basis": basis, "norms_approx": norms, "bound_approx": bound},
            ["reduced basis: %s" % (basis,),
             "norms = %s, bound C(n,a) %s"
             % (norms, "beyond float range" if bound is None
                else "= %.6g" % bound)])


def _lattice_hermite(args):
    from . import euclid

    budget = _budget(args)
    margin = euclid.hermite_check(_lattice_from(args.document), budget)
    return ({"margin_approx": margin},
            ["Hermite-Minkowski margin = %.12g (contract: >= -1e-9)" % margin])


def _lattice_mahler(args):
    from . import euclid

    budget = _budget(args)
    family = [_lattice_from(p) for p in args.documents]
    report = euclid.mahler_report(family, node_budget=budget)
    sup, inf = print_scalar(report.sup_covol_sq), print_scalar(report.inf_syst_sq)
    return ({"sup_covol_sq": sup, "inf_syst_sq": inf, "bounded": report.bounded},
            ["family size = %d" % report.size,
             "sup covol_sq = %s" % sup,
             "inf syst_sq = %s" % inf,
             "bounded (Mahler criterion): %s" % ("yes" if report.bounded else "no")])


def _field_info(args):
    from . import numfield

    field = documents.numberfield_from_doc(documents.load_json(args.document))
    if not field.is_quadratic:
        sig = numfield.signature(field)
        return ({"degree": field.degree, "minpoly": list(field.minpoly),
                 "r1": sig.r1, "r2": sig.r2},
                ["field of degree %d from its minimal polynomial" % field.degree,
                 "signature (%d, %d)" % (sig.r1, sig.r2)])
    ring = numfield.ring_of_integers(field)
    sig = numfield.signature(field)
    return ({"degree": 2, "quad": field.m, "integers": ring.label(),
             "omega": print_scalar(ring.omega), "r1": sig.r1, "r2": sig.r2},
            ["field Q(sqrt(%d)), degree 2" % field.m,
             "ring of integers %s" % ring.label(),
             "signature (%d, %d)" % (sig.r1, sig.r2)])


def _field_embed(args):
    from . import numfield

    budget = _budget(args)
    field = documents.numberfield_from_doc(documents.load_json(args.document))
    if not field.is_quadratic:
        raise DocumentError("embedding lattice needs a quadratic field")
    from . import euclid

    ring = numfield.ring_of_integers(field)
    lattice = numfield.minkowski_lattice(ring)
    syst = print_scalar(numfield.o_discreteness_check(ring, budget))
    gram = documents.printed_rows(lattice.gram)
    covol = print_scalar(euclid.covol_sq(lattice))
    return ({"gram": gram, "covol_sq": covol, "min_norm_sq": syst},
            ["trace-form Gram matrix: %s" % (gram,),
             "covol_sq = %s (field discriminant)" % covol,
             "shortest image norm^2 = %s > 0: the integer ring is discrete" % syst])


def _field_signature(args):
    from . import numfield

    field = documents.numberfield_from_doc(documents.load_json(args.document))
    sig = numfield.signature(field)
    return ({"r1": sig.r1, "r2": sig.r2},
            ["signature (r1, r2) = (%d, %d)" % (sig.r1, sig.r2)])


def _verdict_payload(verdict: Verdict) -> dict:
    payload = {
        "status": verdict.status,
        "reason": verdict.reason,
        "criterion": verdict.criterion,
    }
    if verdict.witness is not None:
        payload["witness"] = documents.printed_rows(verdict.witness.to_rows())
    if verdict.isotropic_vector is not None:
        payload["isotropic_vector"] = [print_scalar(v)
                                       for v in verdict.isotropic_vector]
    if verdict.conjugate_name is not None:
        payload["conjugate"] = verdict.conjugate_name
    if verdict.search_bound is not None:
        payload["search_height"] = verdict.search_bound
    return payload


def _group_verdict(args):
    from . import groups

    spec = documents.group_from_doc(documents.load_json(args.document))
    if args.height < 1:
        raise DocumentError("--height must be positive")
    budget = _budget(args)
    verdict = groups.uniformity_verdict(spec, args.height, budget)
    payload = _verdict_payload(verdict)
    lines = ["%s (%s)" % (verdict.status, verdict.reason),
             "criterion: %s" % verdict.criterion]
    if "witness" in payload:
        lines.append("witness: %s" % (payload["witness"],))
    if "isotropic_vector" in payload:
        lines.append("isotropic vector: %s" % (payload["isotropic_vector"],))
    inconclusive = verdict.status == groups.Verdict.INCONCLUSIVE
    return payload, lines, EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _group_unipotent(args):
    from . import groups

    matrix, _ = documents.matrix_from_doc(documents.load_json(args.document))
    if not matrix.is_square:
        raise DocumentError("classification needs a square matrix")
    unip, nilp = groups.is_unipotent(matrix), groups.is_nilpotent(matrix)
    return ({"unipotent": unip, "nilpotent": nilp},
            ["unipotent: %s" % ("yes" if unip else "no"),
             "nilpotent: %s" % ("yes" if nilp else "no")])


def _group_adsys(args):
    from . import groups

    doc = documents.load_json(args.document)
    budget = _budget(args)
    matrix, _ = documents.matrix_from_doc(doc)
    result = groups.adjoint_systole(matrix, args.height, budget)
    value = print_scalar(result.min_norm_sq)
    witness = documents.printed_rows(result.witness.to_rows())
    nilpotent = result.witness_nilpotent
    return ({"min_norm_sq": value, "witness": witness, "witness_nilpotent": nilpotent},
            ["min ||Ad(g)X||_F^2 = %s over trace-zero integer X with "
             "entries bounded by %d" % (value, args.height),
             "witness: %s" % (witness,),
             "witness nilpotent (trace test): %s" % ("yes" if nilpotent else "no")])


def _resk_element(args):
    from . import matrices, resk

    scalar, m = documents.scalar_from_doc(documents.load_json(args.document))
    if m is None:
        raise DocumentError("resk element needs a declared quadratic field")
    restricted = resk.res_matrix(matrices.ExactMatrix(1, 1, [scalar]), m)
    payload = documents.matrix_to_doc(restricted.matrix)
    payload["charpoly"] = [print_scalar(c)
                           for c in resk.recover_embeddings(restricted)]
    return (payload,
            ["restricted 2x2 model: %s" % (payload["matrix"],),
             "characteristic polynomial (ascending): %s" % (payload["charpoly"],)])


def _resk_matrix(args):
    from . import resk

    matrix, m = documents.matrix_from_doc(documents.load_json(args.document))
    if m is None:
        raise DocumentError("resk matrix needs a declared quadratic field")
    restricted = resk.res_matrix(matrix, m).matrix
    payload = documents.matrix_to_doc(restricted)
    return (payload, ["restricted %dx%d rational matrix: %s"
                      % (restricted.rows, restricted.cols, payload["matrix"])])


def _arith_index(args):
    from . import arith

    index = _int_result(arith.sublattice_index(_zlattice_from(args.sublattice),
                                               _zlattice_from(args.superlattice)))
    return {"index": index}, ["sublattice index = %d" % index]


def _arith_commens(args):
    from . import arith

    value = _int_result(arith.commensurability_m(_zlattice_from(args.first),
                                                 _zlattice_from(args.second)))
    return {"m": value}, ["smallest m with m*L <= L' <= (1/m)*L: %d" % value]


def _arith_congruence(args):
    from . import arith

    if args.document is not None:
        matrix, m = documents.matrix_from_doc(documents.load_json(args.document))
        if m is not None:
            raise DocumentError("congruence membership needs a rational matrix")
        member = arith.congruence_member(matrix, args.m)
        return ({"member": member, "modulus": args.m},
                ["congruent to the identity mod %d: %s"
                 % (args.m, "yes" if member else "no")])
    index = _int_result(arith.congruence_index(args.n, args.m))
    return ({"index": index, "modulus": args.m, "n": args.n},
            ["[SL_%d(Z) : principal congruence subgroup mod %d] = %d"
             % (args.n, args.m, index)])


class _Command(NamedTuple):
    help: str
    arguments: list     # (names, options) pairs for add_argument
    handler: Callable


def _arg(*names, **options):
    return names, options


_DOCUMENT = [_arg("document")]

_FAMILIES = {
    "lattice": "Euclidean lattice invariants",
    "field": "number field computations",
    "group": "group classification and verdicts",
    "resk": "restriction of scalars to Q",
    "arith": "Z-lattice and congruence bookkeeping",
}

# one row per subcommand, in the order of the help text
_COMMANDS = {
    ("lattice", "covol"): _Command("squared covolume", _DOCUMENT, _lattice_covol),
    ("lattice", "systole"): _Command("squared systole and witness", _DOCUMENT,
                                     _lattice_systole),
    ("lattice", "reduce"): _Command(
        "bounded basis of the same lattice",
        _DOCUMENT + [_arg("--a", required=True, help="reduction parameter, rational > 1")],
        _lattice_reduce),
    ("lattice", "hermite"): _Command("ball-packing bound margin", _DOCUMENT,
                                     _lattice_hermite),
    ("lattice", "mahler"): _Command("compactness functionals of a family",
                                    [_arg("documents", nargs="+")], _lattice_mahler),
    ("field", "info"): _Command("ring of integers and signature", _DOCUMENT, _field_info),
    ("field", "embed"): _Command("trace-form lattice of the integer ring", _DOCUMENT,
                                 _field_embed),
    ("field", "signature"): _Command("signature (r1, r2)", _DOCUMENT, _field_signature),
    ("group", "verdict"): _Command(
        "uniformity verdict",
        _DOCUMENT + [_arg("--height", type=int, default=10,
                          help="isotropic search height (default 10)")],
        _group_verdict),
    ("group", "unipotent"): _Command("unipotent/nilpotent classification", _DOCUMENT,
                                     _group_unipotent),
    ("group", "adsys"): _Command(
        "adjoint-orbit systole of a matrix",
        _DOCUMENT + [_arg("--height", type=int, default=3,
                          help="coefficient bound for trace-zero matrices (default 3)")],
        _group_adsys),
    ("resk", "element"): _Command("2x2 model of a field element", _DOCUMENT, _resk_element),
    ("resk", "matrix"): _Command("blockwise restriction of a matrix", _DOCUMENT,
                                 _resk_matrix),
    ("arith", "index"): _Command("index of a sublattice",
                                 [_arg("sublattice"), _arg("superlattice")], _arith_index),
    ("arith", "commens"): _Command("commensurability constant of two lattices",
                                   [_arg("first"), _arg("second")], _arith_commens),
    ("arith", "congruence"): _Command(
        "congruence subgroup membership or index",
        [_arg("document", nargs="?", default=None,
              help="matrix document for a membership test"),
         _arg("--m", type=int, required=True, help="modulus"),
         _arg("--n", type=int, default=2,
              help="matrix size for the index computation (default 2)")],
        _arith_congruence),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latlab",
        description="exact lattice invariants, quadratic fields, and "
        "uniformity verdicts over JSON documents",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human",
                        help="output format (default: human)")
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration node budget (default: LATLAB_BUDGET or %d)"
                        % DEFAULT_NODE_BUDGET)
    top = parser.add_subparsers(dest="command", required=True)
    families = {}
    for (family, name), command in _COMMANDS.items():
        if family not in families:
            families[family] = top.add_parser(family, help=_FAMILIES[family]) \
                .add_subparsers(dest="subcommand", required=True)
        sub = families[family].add_parser(name, help=command.help)
        for names, options in command.arguments:
            sub.add_argument(*names, **options)
    return parser


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):       # where argparse prints --help
            args = build_parser().parse_args(argv)
        payload, lines, *code = _COMMANDS[args.command, args.subcommand].handler(args)
        _emit(payload, args.format, lines, out)
    except SystemExit:  # --help, printed by argparse
        return EXIT_OK
    except BudgetExceededError as exc:
        err.write("error: %s\n" % exc)
        return EXIT_BUDGET
    except ValueError as exc:       # DocumentError among them
        err.write("error: %s\n" % exc)
        return EXIT_INPUT
    return code[0] if code else EXIT_OK


def main() -> None:
    sys.exit(run())
