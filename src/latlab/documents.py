"""JSON document schemas shared by the CLI.

All scalars cross the JSON boundary as strings in the exact grammar of
:mod:`latlab.scalars`; floats only ever appear under keys suffixed
``_approx``.  Documents:

  lattice   {"dim": n, "field": {"m": int} | null, "basis": [[s, ...], ...]}
            basis entries are the column vectors of the lattice
  matrix    {"field": {"quad": m} | null, "matrix": [[s, ...], ...]}   (rows)
  field     {"quad": m}  or  {"minpoly": [c0, ..., 1]}
  group     {"kind": "SL", "n": n, "field": {"quad": m | null}}
            {"kind": "SO", "coeffs": [s, ...], "field": {"quad": m | null}}
  scalar    {"field": {"quad": m} | null, "scalar": s}

A field object holds exactly one of the keys "m" and "quad", which mean the same.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import DocumentError
from .scalars import digit_limit, parse_scalar, print_scalar

if TYPE_CHECKING:
    from .euclid import EuclideanLattice
    from .groups import GroupSpec
    from .matrices import ExactMatrix
    from .numfield import NumberFieldDesc


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise DocumentError("no such input document: %s" % path)
    except OSError as exc:      # a directory, no permission, ...
        raise DocumentError("cannot read input document %s: %s" % (path, exc.strerror))
    except UnicodeDecodeError:
        raise DocumentError("input document %s is not UTF-8 text" % path)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            "malformed JSON in %s at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        )
    except ValueError:          # json reads an integer through int()
        raise DocumentError(digit_limit("an integer in %s" % path))


def _integer(doc, key):
    """doc[key] when it is an int and not a bool, else DocumentError."""
    value = doc[key]
    if type(value) is not int:
        raise DocumentError('"%s" must be an integer, got %s' % (key, json.dumps(value)))
    return value


def _field_m(doc):
    """The quadratic parameter of a field sub-document, which holds exactly
    one of the keys "m" and "quad"; None for Q."""
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise DocumentError("field must be an object or null")
    keys = [key for key in ("m", "quad") if key in doc]
    if len(keys) != 1:
        raise DocumentError('field object needs exactly one of "m" and "quad"')
    return None if doc[keys[0]] is None else _integer(doc, keys[0])


def lattice_from_doc(doc) -> EuclideanLattice:
    from .euclid import EuclideanLattice

    vectors = basis_from_doc(doc)
    try:
        return EuclideanLattice(vectors)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc))


def _scalar_rows(doc, kind, key, row_name):
    """(rows, m): the nonempty list of scalar-string rows under doc[key],
    parsed in the field the document declares."""
    if not isinstance(doc, dict) or key not in doc:
        raise DocumentError('%s document needs a "%s" key' % (kind, key))
    m = _field_m(doc.get("field"))
    rows = doc[key]
    if not isinstance(rows, list) or not rows:
        raise DocumentError("%s must be a nonempty list of %ss" % (key, row_name))
    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise DocumentError("each %s %s must be a list of scalar strings"
                                % (key, row_name))
        try:
            parsed.append([parse_scalar(s, m) for s in row])
        except ValueError as exc:
            raise DocumentError(str(exc))
    return parsed, m


def basis_from_doc(doc):
    """The basis vectors of a lattice document as lists of scalars, without
    building the lattice."""
    vectors, _ = _scalar_rows(doc, "lattice", "basis", "vector")
    if "dim" in doc and _integer(doc, "dim") != len(vectors):
        raise DocumentError(
            'declared "dim" %r does not match the %d basis vectors'
            % (doc["dim"], len(vectors))
        )
    return vectors


def printed_rows(rows):
    """Rows of scalars (matrix rows or basis vectors) as rows of strings in
    the scalar grammar."""
    return [[print_scalar(e) for e in row] for row in rows]


def matrix_from_doc(doc):
    """Returns (ExactMatrix, m or None)."""
    from .matrices import ExactMatrix

    parsed, m = _scalar_rows(doc, "matrix", "matrix", "row")
    try:
        return ExactMatrix.from_rows(parsed), m
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc))


def matrix_to_doc(matrix: ExactMatrix) -> dict:
    """A rational matrix as a matrix document."""
    return {"field": None, "matrix": printed_rows(matrix.to_rows())}


def numberfield_from_doc(doc) -> NumberFieldDesc:
    from .numfield import NumberFieldDesc

    if not isinstance(doc, dict):
        raise DocumentError("field document must be an object")
    if "quad" in doc:
        try:
            return NumberFieldDesc(m=_integer(doc, "quad"))
        except ValueError as exc:
            raise DocumentError(str(exc))
    if "minpoly" in doc:
        coeffs = doc["minpoly"]
        if not isinstance(coeffs, list) or not all(type(c) is int for c in coeffs):
            raise DocumentError('"minpoly" must be a list of integers, got %s'
                                % json.dumps(coeffs))
        try:
            return NumberFieldDesc(minpoly=coeffs)
        except ValueError as exc:
            raise DocumentError(str(exc))
    raise DocumentError('field document needs "quad" or "minpoly"')


def group_from_doc(doc) -> GroupSpec:
    from .groups import DiagForm, GroupSpec

    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError('group document needs a "kind" key')
    kind = doc["kind"]
    m = _field_m(doc.get("field"))
    field = None
    if m is not None:           # over Q the CLI child does not load numfield
        from .numfield import NumberFieldDesc
        field = NumberFieldDesc(m=m)
    if kind == "SL":
        if "n" not in doc:
            raise DocumentError('SL group document needs an integer "n"')
        try:
            return GroupSpec("SL", n=_integer(doc, "n"), field=field)
        except ValueError as exc:
            raise DocumentError(str(exc))
    if kind == "SO":
        coeffs = doc.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise DocumentError('SO group document needs a "coeffs" list')
        try:
            parsed = [parse_scalar(s, m) for s in coeffs]
            return GroupSpec("SO", form=DiagForm(parsed, field))
        except ValueError as exc:
            raise DocumentError(str(exc))
    raise DocumentError("unknown group kind %r" % (kind,))


def scalar_from_doc(doc):
    """Returns (scalar, m or None)."""
    if not isinstance(doc, dict) or "scalar" not in doc:
        raise DocumentError('scalar document needs a "scalar" key')
    m = _field_m(doc.get("field"))
    try:
        return parse_scalar(doc["scalar"], m), m
    except ValueError as exc:
        raise DocumentError(str(exc))
