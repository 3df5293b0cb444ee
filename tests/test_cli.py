import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latlab import cli


def _reject_constant(name):
    raise ValueError("%s is not valid JSON" % name)


def loads_strict(text):
    """Parse --format json output, refusing the non-JSON Infinity and NaN."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(args, env=None, monkeypatch=None):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def write_doc(tmp_path):
    counter = [0]

    def _write(obj, name=None):
        counter[0] += 1
        path = tmp_path / (name or ("doc%d.json" % counter[0]))
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def test_lattice_covol(write_doc):
    doc = write_doc({"dim": 2, "field": None, "basis": [["1", "0"], ["0", "1"]]})
    code, out, err = run_cli(["lattice", "covol", doc])
    assert code == 0 and out == "covol_sq = 1\n" and err == ""


def test_lattice_systole_json(write_doc):
    doc = write_doc({"dim": 2, "field": None,
                     "basis": [["1", "0"], ["9/10", "1/10"]]})
    code, out, _ = run_cli(["--format", "json", "lattice", "systole", doc])
    assert code == 0
    payload = loads_strict(out)
    assert payload["schema"] == 1
    assert payload["systole_sq"] == "1/50"
    assert payload["witness"] == [1, -1]


def test_lattice_mahler_golden(write_doc):
    docs = [write_doc({"dim": 2, "field": None,
                       "basis": [[str(t), "0"], ["0", "1/%d" % t]]})
            for t in range(1, 11)]
    code, out, _ = run_cli(["--format", "json", "lattice", "mahler"] + docs)
    assert code == 0
    assert out == ('{"bounded":true,"inf_syst_sq":"1/100","schema":1,'
                   '"sup_covol_sq":"1"}\n')


def test_byte_identical_output(write_doc):
    doc = write_doc({"dim": 3, "field": None,
                     "basis": [["2", "1", "0"], ["1", "3", "1"], ["0", "1", "4"]]})
    first = run_cli(["--format", "json", "lattice", "systole", doc])
    second = run_cli(["--format", "json", "lattice", "systole", doc])
    assert first == second and first[0] == 0


def test_lattice_reduce(write_doc):
    doc = write_doc({"dim": 2, "field": None,
                     "basis": [["1", "0"], ["100", "1"]]})
    code, out, _ = run_cli(["--format", "json", "lattice", "reduce", doc,
                            "--a", "2"])
    assert code == 0
    payload = loads_strict(out)
    assert payload["basis"] == [["1", "0"], ["0", "1"]]
    assert all(n <= payload["bound_approx"] + 1e-9
               for n in payload["norms_approx"])


def test_lattice_hermite(write_doc):
    doc = write_doc({"dim": 1, "field": None, "basis": [["1"]]})
    code, out, _ = run_cli(["--format", "json", "lattice", "hermite", doc])
    assert code == 0
    assert abs(loads_strict(out)["margin_approx"]) < 1e-12


HUGE_ENTRY = "7" * 350   # its square is far beyond float range


def test_lattice_systole_beyond_float_range(write_doc):
    doc = write_doc({"dim": 1, "field": None, "basis": [[HUGE_ENTRY]]})
    exact = str(int(HUGE_ENTRY) ** 2)
    code, out, err = run_cli(["--format", "json", "lattice", "systole", doc])
    assert code == 0 and err == ""
    assert loads_strict(out) == {"schema": 1, "systole_sq": exact,
                                 "witness": [1], "systole_approx": None}
    code, out, err = run_cli(["lattice", "systole", doc])
    assert code == 0 and err == ""
    assert out == "systole_sq = %s\nwitness coefficients = [1]\n" % exact


def test_lattice_hermite_beyond_float_range(write_doc):
    doc = write_doc({"dim": 1, "field": None, "basis": [[HUGE_ENTRY]]})
    for fmt in ("human", "json"):
        code, out, err = run_cli(["--format", fmt, "lattice", "hermite", doc])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "float range" in err
        assert err.count("\n") == 1


def test_loads_strict_rejects_non_json_floats():
    for text in ('{"x":Infinity}', '{"x":-Infinity}', '{"x":NaN}'):
        with pytest.raises(ValueError):
            loads_strict(text)


@pytest.mark.parametrize("rank, entry, a", [
    (3, "1", "1" + "0" * 150),          # C(3, a) overflows to inf
    (1, HUGE_ENTRY, "1" + "0" * 400),   # a itself is beyond float range
])
def test_lattice_reduce_bound_beyond_float_range(write_doc, rank, entry, a):
    basis = [[entry if i == j else "0" for i in range(rank)] for j in range(rank)]
    doc = write_doc({"dim": rank, "field": None, "basis": basis})
    code, out, err = run_cli(["--format", "json", "lattice", "reduce", doc, "--a", a])
    assert code == 0 and err == ""
    payload = loads_strict(out)
    assert payload["bound_approx"] is None
    assert payload["basis"] == basis
    code, out, err = run_cli(["lattice", "reduce", doc, "--a", a])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "reduced basis: %s" % (basis,)
    assert lines[1].endswith("bound C(n,a) beyond float range")


def test_python_dash_m_entry_point(write_doc):
    doc = write_doc({"dim": 3, "field": None,
                     "basis": [["2", "1", "0"], ["1", "3", "1"], ["0", "1", "4"]]})
    argv = ["--format", "json", "lattice", "systole", doc]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "latlab"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    code, out, _ = run_cli(argv)
    assert (proc.returncode, proc.stdout) == (code, out) and code == 0


def test_field_signature_golden(write_doc):
    doc = write_doc({"minpoly": [-2, 0, 0, 1]})
    code, out, _ = run_cli(["--format", "json", "field", "signature", doc])
    assert code == 0
    assert out == '{"r1":1,"r2":1,"schema":1}\n'


def test_field_info_and_embed(write_doc):
    doc = write_doc({"quad": 5})
    code, out, _ = run_cli(["--format", "json", "field", "info", doc])
    assert code == 0
    payload = loads_strict(out)
    assert payload["integers"] == "Z[(1+sqrt(5))/2]"
    assert payload["omega"] == "1/2+1/2*sqrt(5)"
    code, out, _ = run_cli(["--format", "json", "field", "embed", doc])
    assert code == 0
    payload = loads_strict(out)
    assert payload["covol_sq"] == "5"
    assert payload["gram"] == [["2", "1"], ["1", "3"]]
    assert payload["min_norm_sq"] == "2"


def test_group_verdict_exit_codes(write_doc):
    sl = write_doc({"kind": "SL", "n": 2, "field": {"quad": None}})
    code, out, _ = run_cli(["group", "verdict", sl])
    assert code == 0 and out.startswith("NotUniform")

    so_uniform = write_doc({"kind": "SO",
                            "coeffs": ["0-1*sqrt(2)", "1", "1", "1"],
                            "field": {"quad": 2}})
    code, out, _ = run_cli(["group", "verdict", so_uniform, "--height", "10"])
    assert code == 0 and out.startswith("Uniform")

    so_isotropic = write_doc({"kind": "SO", "coeffs": ["1", "1", "-1"],
                              "field": {"quad": None}})
    code, out, _ = run_cli(["group", "verdict", so_isotropic, "--height", "1"])
    assert code == 0 and out.startswith("NotUniform")

    so_unknown = write_doc({"kind": "SO", "coeffs": ["1", "1", "-7"],
                            "field": {"quad": None}})
    code, out, _ = run_cli(["group", "verdict", so_unknown, "--height", "3"])
    assert code == 2 and out.startswith("Inconclusive")


def test_group_verdict_witness_payload(write_doc):
    so = write_doc({"kind": "SO", "coeffs": ["1", "1", "-1"],
                    "field": {"quad": None}})
    code, out, _ = run_cli(["--format", "json", "group", "verdict", so,
                            "--height", "1"])
    assert code == 0
    payload = loads_strict(out)
    assert payload["status"] == "NotUniform"
    assert payload["isotropic_vector"] == ["1", "0", "1"]
    assert "witness" in payload and "Godement" in payload["criterion"]


def test_group_unipotent(write_doc):
    doc = write_doc({"field": None, "matrix": [["1", "1"], ["0", "1"]]})
    code, out, _ = run_cli(["--format", "json", "group", "unipotent", doc])
    assert code == 0
    payload = loads_strict(out)
    assert payload["unipotent"] is True and payload["nilpotent"] is False


def test_group_adsys(write_doc):
    doc = write_doc({"field": None, "matrix": [["2", "0"], ["0", "1/2"]]})
    code, out, _ = run_cli(["--format", "json", "group", "adsys", doc,
                            "--height", "3"])
    assert code == 0
    payload = loads_strict(out)
    assert payload["min_norm_sq"] == "1/16"
    assert payload["witness"] == [["0", "0"], ["1", "0"]]
    assert payload["witness_nilpotent"] is True


def test_group_adsys_quadratic_field(write_doc):
    doc = write_doc({"field": {"quad": 2},
                     "matrix": [["1+1*sqrt(2)", "0"], ["0", "-1+1*sqrt(2)"]]})
    code, out, err = run_cli(["--format", "json", "group", "adsys", doc,
                              "--height", "2"])
    assert code == 0 and err == ""
    assert loads_strict(out) == {"min_norm_sq": "17-12*sqrt(2)", "schema": 1,
                                 "witness": [["0", "0"], ["1", "0"]],
                                 "witness_nilpotent": True}
    code, out, err = run_cli(["group", "adsys", doc, "--height", "2"])
    assert code == 0 and err == ""
    assert out.startswith("min ||Ad(g)X||_F^2 = 17-12*sqrt(2) over trace-zero")
    assert "\nwitness: [['0', '0'], ['1', '0']]\n" in out
    assert out.endswith("witness nilpotent (trace test): yes\n")


def test_group_adsys_box_over_budget_exits_three(write_doc):
    # 601^3 box points: refused before the scan, not scanned for hours
    doc = write_doc({"field": None, "matrix": [["2", "1"], ["1", "1"]]})
    code, out, err = run_cli(["group", "adsys", doc, "--height", "300"])
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "budget" in err


def test_resk_element_golden(write_doc):
    doc = write_doc({"field": {"quad": 2}, "scalar": "0+1*sqrt(2)"})
    code, out, _ = run_cli(["--format", "json", "resk", "element", doc])
    assert code == 0
    assert out == ('{"charpoly":["-2","0","1"],"field":null,'
                   '"matrix":[["0","2"],["1","0"]],"schema":1}\n')


def test_resk_matrix(write_doc):
    doc = write_doc({"field": {"quad": 2},
                     "matrix": [["1", "0+1*sqrt(2)"], ["0", "1"]]})
    code, out, _ = run_cli(["--format", "json", "resk", "matrix", doc])
    assert code == 0
    payload = loads_strict(out)
    assert payload["matrix"] == [["1", "0", "0", "2"],
                                 ["0", "1", "1", "0"],
                                 ["0", "0", "1", "0"],
                                 ["0", "0", "0", "1"]]


def test_arith_subcommands(write_doc):
    z2 = write_doc({"dim": 2, "field": None, "basis": [["1", "0"], ["0", "1"]]})
    two_z2 = write_doc({"dim": 2, "field": None,
                        "basis": [["2", "0"], ["0", "2"]]})
    code, out, _ = run_cli(["--format", "json", "arith", "index",
                            two_z2, z2])
    assert code == 0 and loads_strict(out)["index"] == 4
    code, out, _ = run_cli(["--format", "json", "arith", "commens",
                            z2, two_z2])
    assert code == 0 and loads_strict(out)["m"] == 2
    code, out, _ = run_cli(["--format", "json", "arith", "congruence",
                            "--m", "3"])
    assert code == 0 and loads_strict(out)["index"] == 24
    member = write_doc({"field": None, "matrix": [["1", "2"], ["0", "1"]]})
    code, out, _ = run_cli(["--format", "json", "arith", "congruence",
                            member, "--m", "2"])
    assert code == 0 and loads_strict(out)["member"] is True


@pytest.mark.parametrize("argv, index", [
    (["--m", "8"], 384),
    (["--n", "3", "--m", "2"], 168),
    # |SL_4(F_3)| * |SL_4(F_5)|
    (["--n", "4", "--m", "15"], 3**6 * 8 * 26 * 80 * 5**6 * 24 * 124 * 624),
])
def test_arith_congruence_index_any_n(argv, index):
    code, out, err = run_cli(["--format", "json", "arith", "congruence"] + argv)
    assert code == 0 and err == ""
    assert loads_strict(out)["index"] == index
    code, out, err = run_cli(["arith", "congruence"] + argv)
    assert code == 0 and out.endswith("= %d\n" % index)


@pytest.mark.parametrize("argv", [
    ["--n", "1000000000", "--m", "2"],
    ["--m", str(10**12 + 1)],
    ["--n", "0", "--m", "2"],
    ["--m", "0"],
])
def test_arith_congruence_out_of_range_exit_one(argv):
    for fmt in ("human", "json"):
        code, out, err = run_cli(["--format", fmt, "arith", "congruence"] + argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_error_paths_exit_one(tmp_path, write_doc):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, out, err = run_cli(["lattice", "covol", str(bad)])
    assert code == 1 and out == ""
    assert "line 1 column 2" in err

    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(["lattice", "covol", missing])
    assert code == 1 and "no such input document" in err

    singular = write_doc({"dim": 2, "field": None,
                          "basis": [["1", "1"], ["1", "1"]]})
    code, out, err = run_cli(["lattice", "covol", singular])
    assert code == 1 and out == "" and err.startswith("error:")

    unknown = run_cli(["lattice", "nonsense", "x.json"])
    assert unknown[0] == 1

    one_by_one = write_doc({"field": None, "matrix": [["1"]]})
    code, out, err = run_cli(["group", "adsys", one_by_one])
    assert code == 1 and out == "" and err.count("\n") == 1


def test_budget_exhaustion_exit_three(write_doc, monkeypatch):
    doc = write_doc({"dim": 2, "field": None, "basis": [["1", "0"], ["0", "1"]]})
    code, out, err = run_cli(["--budget", "2", "lattice", "systole", doc])
    assert code == 3 and "budget" in err

    monkeypatch.setenv("LATLAB_BUDGET", "2")
    code, out, err = run_cli(["lattice", "systole", doc])
    assert code == 3


def test_mahler_workers_flag(write_doc):
    docs = [write_doc({"dim": 2, "field": None,
                       "basis": [[str(t), "0"], ["0", "1/%d" % t]]})
            for t in range(1, 4)]
    base = run_cli(["--format", "json", "lattice", "mahler"] + docs)
    par = run_cli(["--format", "json", "--workers", "2", "lattice", "mahler"]
                  + docs)
    assert base == par and base[0] == 0


def test_quadratic_lattice_document(write_doc):
    doc = write_doc({"dim": 2, "field": {"m": 2},
                     "basis": [["1", "0"], ["0+1*sqrt(2)", "1"]]})
    code, out, _ = run_cli(["--format", "json", "lattice", "systole", doc])
    assert code == 0
    assert loads_strict(out)["systole_sq"] == "1"
