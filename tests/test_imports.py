"""What importing latlab and one CLI call load, and the lazily loaded package API.

Each case runs in a fresh interpreter and compares the set of ``latlab.*``
modules in ``sys.modules`` with the modules on the subcommand's path, so a new
top-level import that pulls in another module shows here.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latlab
from latlab import cli, enumeration, errors, euclid

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs `code`, which sets `code`, and prints it with the loaded submodules last
CHILD = """
import io, json, sys
%s
print(json.dumps([code, sorted(m[len("latlab."):] for m in sys.modules
                               if m.startswith("latlab."))]))
"""

FRONT = {"cli", "documents", "errors", "scalars"}
# matrices clears denominators into the ring integers, so it loads rings
MATRICES = {"matrices", "rings"}
# the lattice calls search on ring integers and build no ExactMatrix
SEARCH = {"euclid", "enumeration", "_svp", "rings"}


def _child(code, *argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CHILD % code] + list(argv), env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout.splitlines()[-1])
    return exit_code, set(modules)


def test_import_latlab_loads_no_submodule():
    assert _child("import latlab; code = None") == (None, set())


def test_import_cli_loads_the_front_end_only():
    assert _child("import latlab.cli; code = None") == (None, FRONT)


DOCS = {
    "lattice.json": {"dim": 2, "field": None, "basis": [["2", "1"], ["1", "3"]]},
    "field.json": {"quad": 5},
    "so.json": {"kind": "SO", "coeffs": ["1", "1", "-1"], "field": {"quad": None}},
    "so5.json": {"kind": "SO", "coeffs": ["1", "1+1*sqrt(5)", "-1"], "field": {"quad": 5}},
    "sl.json": {"kind": "SL", "n": 3, "field": {"quad": None}},
    "matrix.json": {"field": None, "matrix": [["2", "1"], ["1", "1"]]},
    "scalar.json": {"field": {"quad": 2}, "scalar": "1+2*sqrt(2)"},
    "qmatrix.json": {"field": {"quad": 2}, "matrix": [["1", "0+1*sqrt(2)"], ["0", "1"]]},
}

CALLS = [
    (["--help"], 0, set()),
    (["lattice", "systole", "lattice.json"], 0, SEARCH),
    (["lattice", "covol", "lattice.json"], 0, SEARCH),
    (["lattice", "reduce", "lattice.json", "--a", "6"], 0, SEARCH),
    (["lattice", "hermite", "lattice.json"], 0, SEARCH),
    (["lattice", "mahler", "lattice.json", "lattice.json"], 0, SEARCH),
    (["field", "info", "field.json"], 0, {"numfield"}),
    (["field", "signature", "field.json"], 0, {"numfield"}),
    (["field", "embed", "field.json"], 0, SEARCH | {"numfield"}),
    # over Q a verdict needs no number field
    (["group", "verdict", "so.json"], 0, {"groups"} | MATRICES),
    (["group", "verdict", "sl.json"], 0, {"groups"} | MATRICES),
    # over Q(sqrt 5) the document's field loads numfield; groups itself never does
    (["group", "verdict", "so5.json"], 0, {"groups", "numfield"} | MATRICES),
    (["group", "unipotent", "matrix.json"], 0, {"groups"} | MATRICES),
    (["group", "adsys", "matrix.json"], 0, {"groups", "enumeration", "_svp"} | MATRICES),
    (["resk", "element", "scalar.json"], 0, {"resk", "numfield"} | MATRICES),
    (["resk", "matrix", "qmatrix.json"], 0, {"resk", "numfield"} | MATRICES),
    (["arith", "congruence", "--m", "3"], 0, {"arith"} | MATRICES),
    (["arith", "congruence", "matrix.json", "--m", "3"], 0, {"arith"} | MATRICES),
    (["arith", "index", "lattice.json", "lattice.json"], 0, {"arith"} | MATRICES),
    (["arith", "commens", "lattice.json", "lattice.json"], 0, {"arith"} | MATRICES),
]


@pytest.mark.parametrize("argv, expected_code, extra", CALLS,
                         ids=[" ".join(argv) for argv, _, _ in CALLS])
def test_cli_call_loads_its_subcommand_path_only(tmp_path, argv, expected_code, extra):
    for name, doc in DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code = ("from latlab.cli import run\n"
            "out = io.StringIO()\n"
            "code = run(sys.argv[1:], out=out, err=out)")
    assert _child(code, *argv, cwd=str(tmp_path)) == (expected_code, FRONT | extra)


@pytest.mark.parametrize("argv", [["field", "info", "field.json"],
                                  ["field", "signature", "field.json"]])
def test_front_end_and_field_calls_do_not_load_the_ring_module(tmp_path, argv):
    """The ring integers (latlab.rings) are loaded only by the subcommands
    that clear denominators, not by the front end nor by the field calls."""
    assert "rings" not in _child("import latlab.cli; code = None")[1]
    (tmp_path / "field.json").write_text(json.dumps(DOCS["field.json"]))
    code = ("from latlab.cli import run\n"
            "out = io.StringIO()\n"
            "code = run(sys.argv[1:], out=out, err=out)")
    exit_code, modules = _child(code, *argv, cwd=str(tmp_path))
    assert exit_code == 0 and "rings" not in modules


def test_calls_cover_every_subcommand():
    assert {tuple(argv[:2]) for argv, _, _ in CALLS[1:]} == set(cli._COMMANDS)


def test_star_import_binds_all_names():
    namespace = {}
    exec("from latlab import *", namespace)
    assert set(latlab.__all__) <= set(namespace)
    for name in latlab.__all__:
        assert namespace[name] is getattr(latlab, name)


def test_dir_lists_all_names_without_loading():
    code = "import latlab\nnames = dir(latlab)\ncode = names"
    names, modules = _child(code)
    assert set(latlab.__all__) <= set(names) and "__version__" in names
    assert modules == set()


def test_names_resolve_to_their_submodule_and_bind():
    code = ("import latlab\n"
            "value = latlab.systole_sq\n"
            "code = [value is sys.modules['latlab.euclid'].systole_sq,\n"
            "        vars(latlab).get('systole_sq') is value]")
    assert _child(code) == ([True, True], SEARCH | {"errors", "scalars"})
    assert latlab.systole_sq is latlab.euclid.systole_sq is euclid.systole_sq
    assert latlab.BudgetExceededError is errors.BudgetExceededError
    assert latlab.groups.DiagForm is latlab.DiagForm


def test_submodule_attribute_imports_it():
    code = "import latlab\ncode = latlab.resk.__name__"
    assert _child(code) == ("latlab.resk", {"resk", "numfield", "scalars"} | MATRICES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'latlab' has no attribute 'no_such_name'$"):
        latlab.no_such_name
    assert not hasattr(latlab, "no_such_name")
    assert latlab.__version__ == "0.1.0"


def test_one_home_for_the_node_budget():
    assert enumeration.DEFAULT_NODE_BUDGET is errors.DEFAULT_NODE_BUDGET == 1_000_000
    assert "%d" % errors.DEFAULT_NODE_BUDGET in cli.build_parser().format_help()


def test_python_dash_m_still_runs(tmp_path):
    doc = tmp_path / "field.json"
    doc.write_text(json.dumps({"quad": 5}))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "latlab", "field", "info", str(doc)],
                          env=env, capture_output=True, text=True, timeout=60)
    out = io.StringIO()
    assert cli.run(["field", "info", str(doc)], out=out, err=out) == proc.returncode == 0
    assert proc.stdout == out.getvalue() and proc.stderr == ""
