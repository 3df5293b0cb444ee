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
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

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

    lattice = top.add_parser("lattice", help="Euclidean lattice invariants")
    lsub = lattice.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("covol", help="squared covolume")
    p.add_argument("document")
    p = lsub.add_parser("systole", help="squared systole and witness")
    p.add_argument("document")
    p = lsub.add_parser("reduce", help="bounded basis of the same lattice")
    p.add_argument("document")
    p.add_argument("--a", required=True, help="reduction parameter, rational > 1")
    p = lsub.add_parser("hermite", help="ball-packing bound margin")
    p.add_argument("document")
    p = lsub.add_parser("mahler", help="compactness functionals of a family")
    p.add_argument("documents", nargs="+")

    field = top.add_parser("field", help="number field computations")
    fsub = field.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("info", help="ring of integers and signature")
    p.add_argument("document")
    p = fsub.add_parser("embed", help="trace-form lattice of the integer ring")
    p.add_argument("document")
    p = fsub.add_parser("signature", help="signature (r1, r2)")
    p.add_argument("document")

    group = top.add_parser("group", help="group classification and verdicts")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("verdict", help="uniformity verdict")
    p.add_argument("document")
    p.add_argument("--height", type=int, default=10,
                   help="isotropic search height (default 10)")
    p = gsub.add_parser("unipotent", help="unipotent/nilpotent classification")
    p.add_argument("document")
    p = gsub.add_parser("adsys", help="adjoint-orbit systole of a matrix")
    p.add_argument("document")
    p.add_argument("--height", type=int, default=3,
                   help="coefficient bound for trace-zero matrices (default 3)")

    res = top.add_parser("resk", help="restriction of scalars to Q")
    rsub = res.add_subparsers(dest="subcommand", required=True)
    p = rsub.add_parser("element", help="2x2 model of a field element")
    p.add_argument("document")
    p = rsub.add_parser("matrix", help="blockwise restriction of a matrix")
    p.add_argument("document")

    ar = top.add_parser("arith", help="Z-lattice and congruence bookkeeping")
    asub = ar.add_subparsers(dest="subcommand", required=True)
    p = asub.add_parser("index", help="index of a sublattice")
    p.add_argument("sublattice")
    p.add_argument("superlattice")
    p = asub.add_parser("commens", help="commensurability constant of two lattices")
    p.add_argument("first")
    p.add_argument("second")
    p = asub.add_parser("congruence",
                        help="congruence subgroup membership or index")
    p.add_argument("document", nargs="?", default=None,
                   help="matrix document for a membership test")
    p.add_argument("--m", type=int, required=True, help="modulus")
    p.add_argument("--n", type=int, default=2,
                   help="matrix size for the index computation (default 2)")

    return parser


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


def _cmd_lattice(args, out) -> int:
    from . import euclid

    budget = _budget(args)
    if args.subcommand == "mahler":
        family = [documents.lattice_from_doc(documents.load_json(p))
                  for p in args.documents]
        report = euclid.mahler_report(family, node_budget=budget)
        _emit(
            {
                "sup_covol_sq": print_scalar(report.sup_covol_sq),
                "inf_syst_sq": print_scalar(report.inf_syst_sq),
                "bounded": report.bounded,
            },
            args.format,
            [
                "family size = %d" % report.size,
                "sup covol_sq = %s" % print_scalar(report.sup_covol_sq),
                "inf syst_sq = %s" % print_scalar(report.inf_syst_sq),
                "bounded (Mahler criterion): %s"
                % ("yes" if report.bounded else "no"),
            ],
            out,
        )
        return EXIT_OK

    lattice = documents.lattice_from_doc(documents.load_json(args.document))
    if args.subcommand == "covol":
        value = euclid.covol_sq(lattice)
        _emit({"covol_sq": print_scalar(value)}, args.format,
              ["covol_sq = %s" % print_scalar(value)], out)
        return EXIT_OK
    if args.subcommand == "systole":
        value, witness = euclid.systole_sq(lattice, budget)
        _emit(
            {
                "systole_sq": print_scalar(value),
                "witness": list(witness),
                "systole_approx": _sqrt_approx(value),
            },
            args.format,
            [
                "systole_sq = %s" % print_scalar(value),
                "witness coefficients = %s" % (list(witness),),
            ],
            out,
        )
        return EXIT_OK
    if args.subcommand == "hermite":
        margin = euclid.hermite_check(lattice, budget)
        _emit(
            {"margin_approx": margin},
            args.format,
            ["Hermite-Minkowski margin = %.12g (contract: >= -1e-9)" % margin],
            out,
        )
        return EXIT_OK
    if args.subcommand == "reduce":
        try:
            a = Fraction(args.a)
        except (ValueError, ZeroDivisionError):
            raise DocumentError("--a must be a rational number like 2 or 5/2")
        reduced = euclid.reduce_bounded(lattice, a, budget)
        bound = _reduction_bound(lattice.rank, a)
        norms = [_sqrt_approx(reduced.gram[i][i]) for i in range(reduced.rank)]
        basis = documents.printed_rows(reduced.basis)
        _emit(
            {
                "basis": basis,
                "norms_approx": norms,
                "bound_approx": bound,
            },
            args.format,
            ["reduced basis: %s" % (basis,),
             "norms = %s, bound C(n,a) %s"
             % (norms, "beyond float range" if bound is None
                else "= %.6g" % bound)],
            out,
        )
        return EXIT_OK
    raise DocumentError("unknown lattice subcommand")


def _cmd_field(args, out) -> int:
    from . import numfield

    budget = _budget(args)
    field = documents.numberfield_from_doc(documents.load_json(args.document))
    if args.subcommand == "signature":
        sig = numfield.signature(field)
        _emit({"r1": sig.r1, "r2": sig.r2}, args.format,
              ["signature (r1, r2) = (%d, %d)" % (sig.r1, sig.r2)], out)
        return EXIT_OK
    if args.subcommand == "info":
        if field.is_quadratic:
            ring = numfield.ring_of_integers(field)
            sig = numfield.signature(field)
            _emit(
                {
                    "degree": 2,
                    "quad": field.m,
                    "integers": ring.label(),
                    "omega": print_scalar(ring.omega),
                    "r1": sig.r1,
                    "r2": sig.r2,
                },
                args.format,
                [
                    "field Q(sqrt(%d)), degree 2" % field.m,
                    "ring of integers %s" % ring.label(),
                    "signature (%d, %d)" % (sig.r1, sig.r2),
                ],
                out,
            )
        else:
            sig = numfield.signature(field)
            _emit(
                {
                    "degree": field.degree,
                    "minpoly": list(field.minpoly),
                    "r1": sig.r1,
                    "r2": sig.r2,
                },
                args.format,
                [
                    "field of degree %d from its minimal polynomial" % field.degree,
                    "signature (%d, %d)" % (sig.r1, sig.r2),
                ],
                out,
            )
        return EXIT_OK
    if args.subcommand == "embed":
        if not field.is_quadratic:
            raise DocumentError("embedding lattice needs a quadratic field")
        from . import euclid

        ring = numfield.ring_of_integers(field)
        lattice = numfield.minkowski_lattice(ring)
        syst = numfield.o_discreteness_check(ring, budget)
        gram = documents.printed_rows(lattice.gram)
        covol = print_scalar(euclid.covol_sq(lattice))
        _emit(
            {
                "gram": gram,
                "covol_sq": covol,
                "min_norm_sq": print_scalar(syst),
            },
            args.format,
            [
                "trace-form Gram matrix: %s" % (gram,),
                "covol_sq = %s (field discriminant)" % covol,
                "shortest image norm^2 = %s > 0: the integer ring is discrete"
                % print_scalar(syst),
            ],
            out,
        )
        return EXIT_OK
    raise DocumentError("unknown field subcommand")


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


def _cmd_group(args, out) -> int:
    from . import groups

    doc = documents.load_json(args.document)
    if args.subcommand == "verdict":
        spec = documents.group_from_doc(doc)
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
        _emit(payload, args.format, lines, out)
        return EXIT_INCONCLUSIVE if verdict.status == groups.Verdict.INCONCLUSIVE \
            else EXIT_OK
    if args.subcommand == "unipotent":
        matrix, _ = documents.matrix_from_doc(doc)
        if not matrix.is_square:
            raise DocumentError("classification needs a square matrix")
        unip = groups.is_unipotent(matrix)
        nilp = groups.is_nilpotent(matrix)
        _emit(
            {"unipotent": unip, "nilpotent": nilp},
            args.format,
            ["unipotent: %s" % ("yes" if unip else "no"),
             "nilpotent: %s" % ("yes" if nilp else "no")],
            out,
        )
        return EXIT_OK
    if args.subcommand == "adsys":
        budget = _budget(args)
        matrix, _ = documents.matrix_from_doc(doc)
        result = groups.adjoint_systole(matrix, args.height, budget)
        witness = documents.printed_rows(result.witness.to_rows())
        _emit(
            {
                "min_norm_sq": print_scalar(result.min_norm_sq),
                "witness": witness,
                "witness_nilpotent": result.witness_nilpotent,
            },
            args.format,
            [
                "min ||Ad(g)X||_F^2 = %s over trace-zero integer X with "
                "entries bounded by %d" % (print_scalar(result.min_norm_sq),
                                           args.height),
                "witness: %s" % (witness,),
                "witness nilpotent (trace test): %s"
                % ("yes" if result.witness_nilpotent else "no"),
            ],
            out,
        )
        return EXIT_OK
    raise DocumentError("unknown group subcommand")


def _cmd_resk(args, out) -> int:
    from . import matrices, resk

    doc = documents.load_json(args.document)
    if args.subcommand == "element":
        scalar, m = documents.scalar_from_doc(doc)
        if m is None:
            raise DocumentError("resk element needs a declared quadratic field")
        restricted = resk.res_matrix(matrices.ExactMatrix(1, 1, [scalar]), m)
        payload = documents.matrix_to_doc(restricted.matrix)
        payload["charpoly"] = [print_scalar(c)
                               for c in resk.recover_embeddings(restricted)]
        _emit(
            payload,
            args.format,
            [
                "restricted 2x2 model: %s" % (payload["matrix"],),
                "characteristic polynomial (ascending): %s"
                % (payload["charpoly"],),
            ],
            out,
        )
        return EXIT_OK
    if args.subcommand == "matrix":
        matrix, m = documents.matrix_from_doc(doc)
        if m is None:
            raise DocumentError("resk matrix needs a declared quadratic field")
        restricted = resk.res_matrix(matrix, m)
        payload = documents.matrix_to_doc(restricted.matrix)
        _emit(
            payload,
            args.format,
            ["restricted %dx%d rational matrix: %s"
             % (restricted.matrix.rows, restricted.matrix.cols, payload["matrix"])],
            out,
        )
        return EXIT_OK
    raise DocumentError("unknown resk subcommand")


def _cmd_arith(args, out) -> int:
    from . import arith

    if args.subcommand == "index":
        sub = _zlattice_from(args.sublattice)
        sup = _zlattice_from(args.superlattice)
        index = arith.sublattice_index(sub, sup)
        _emit({"index": index}, args.format,
              ["sublattice index = %d" % index], out)
        return EXIT_OK
    if args.subcommand == "commens":
        first = _zlattice_from(args.first)
        second = _zlattice_from(args.second)
        value = arith.commensurability_m(first, second)
        _emit({"m": value}, args.format,
              ["smallest m with m*L <= L' <= (1/m)*L: %d" % value], out)
        return EXIT_OK
    if args.subcommand == "congruence":
        if args.document is not None:
            matrix, m = documents.matrix_from_doc(documents.load_json(args.document))
            if m is not None:
                raise DocumentError("congruence membership needs a rational matrix")
            member = arith.congruence_member(matrix, args.m)
            _emit({"member": member, "modulus": args.m}, args.format,
                  ["congruent to the identity mod %d: %s"
                   % (args.m, "yes" if member else "no")], out)
            return EXIT_OK
        index = arith.congruence_index(args.n, args.m)
        _emit({"index": index, "modulus": args.m, "n": args.n}, args.format,
              ["[SL_%d(Z) : principal congruence subgroup mod %d] = %d"
               % (args.n, args.m, index)], out)
        return EXIT_OK
    raise DocumentError("unknown arith subcommand")


_COMMANDS = {
    "lattice": _cmd_lattice,
    "field": _cmd_field,
    "group": _cmd_group,
    "resk": _cmd_resk,
    "arith": _cmd_arith,
}


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except SystemExit:  # --help, printed by argparse
        return EXIT_OK
    except BudgetExceededError as exc:
        err.write("error: %s\n" % exc)
        return EXIT_BUDGET
    except (DocumentError, ValueError) as exc:
        err.write("error: %s\n" % exc)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())
