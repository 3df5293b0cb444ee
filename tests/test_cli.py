import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latlab import cli
from latlab.matrices import ExactMatrix
from latlab.scalars import QuadScalar, print_scalar


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


def _scalars(m):
    """Small scalars of Q, or of Q(sqrt(m)) for m not None."""
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if m is None:
        return rational
    return st.builds(lambda a, b: QuadScalar(a, b, m), rational, st.integers(-2, 2))


def _sl_rows(draw, n, m):
    """A product of shears (determinant 1) as rows of scalar-grammar strings."""
    g = ExactMatrix.identity(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[i][j] = draw(_scalars(m))
        g = g * ExactMatrix.from_rows(rows)
    return [[print_scalar(e) for e in g.row(i)] for i in range(n)]


@st.composite
def _cli_case(draw):
    """(argv without the document, document) for `lattice systole`,
    `group verdict` or `group adsys` over Q, Q(sqrt 2) or Q(sqrt 5)."""
    m = draw(st.sampled_from([None, 2, 5]))
    texts = _scalars(m).map(print_scalar)
    command = draw(st.sampled_from(["systole", "verdict", "adsys"]))
    if command == "systole":
        n = draw(st.integers(1, 3))
        doc = {"dim": n, "field": None if m is None else {"m": m},
               "basis": [[draw(texts) for _ in range(n)] for _ in range(n)]}
        return ["lattice", "systole"], doc
    if command == "verdict":
        coeffs = draw(st.lists(texts, min_size=3, max_size=4))
        doc = {"kind": "SO", "coeffs": coeffs, "field": {"quad": m}}
        return ["group", "verdict", "--height", str(draw(st.integers(1, 2)))], doc
    n = draw(st.integers(2, 3))
    doc = {"field": {"quad": m}, "matrix": _sl_rows(draw, n, m)}
    height = draw(st.integers(1, 3 if n == 2 else 1))
    return ["group", "adsys", "--height", str(height)], doc


def _shuffled_keys(obj, rnd):
    """The same document with the keys of every object in a random order."""
    if isinstance(obj, dict):
        keys = list(obj)
        rnd.shuffle(keys)
        return {k: _shuffled_keys(obj[k], rnd) for k in keys}
    if isinstance(obj, list):
        return [_shuffled_keys(v, rnd) for v in obj]
    return obj


@settings(max_examples=60, deadline=None)
@given(_cli_case(), st.randoms(use_true_random=False))
def test_json_output_byte_stable(case, rnd):
    """Repeated runs, and documents that differ only in key order, print the
    same bytes and exit with the same code."""
    argv, doc = case
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        for variant in (doc, _shuffled_keys(doc, rnd)):
            Path(path).write_text(json.dumps(variant))
            for _ in range(2):
                runs.append(run_cli(["--format", "json"] + argv[:2] + [path] + argv[2:]))
    assert runs.count(runs[0]) == len(runs)
    code, out, _ = runs[0]
    if code in (0, 2):
        payload = loads_strict(out)
        assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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


def run_child(argv, **env_vars):
    """`python -m latlab` in a child process on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "latlab"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_entry_point(write_doc):
    doc = write_doc({"dim": 3, "field": None,
                     "basis": [["2", "1", "0"], ["1", "3", "1"], ["0", "1", "4"]]})
    argv = ["--format", "json", "lattice", "systole", doc]
    proc = run_child(argv)
    code, out, _ = run_cli(argv)
    assert (proc.returncode, proc.stdout) == (code, out) and code == 0


def test_json_output_stable_across_hash_seeds(write_doc):
    """Two interpreters with different hash seeds print the same bytes."""
    so_sqrt5 = write_doc({"kind": "SO", "coeffs": ["1", "1", "-3/2-1/2*sqrt(5)"],
                          "field": {"quad": 5}})
    so_unknown = write_doc({"kind": "SO", "coeffs": ["1", "1", "-7"],
                            "field": {"quad": None}})
    lattice = write_doc({"dim": 3, "field": {"m": 2},
                         "basis": [["2", "1", "0"], ["1", "3+1*sqrt(2)", "1"],
                                   ["0", "1", "4"]]})
    matrix = write_doc({"field": {"quad": 5},
                        "matrix": [["2", "1/2+1/2*sqrt(5)"], ["0", "1/2"]]})
    for argv, expected in ((["group", "verdict", so_sqrt5, "--height", "2"], 0),
                           (["group", "verdict", so_unknown, "--height", "3"], 2),
                           (["lattice", "systole", lattice], 0),
                           (["group", "adsys", matrix, "--height", "2"], 0)):
        first, second = (run_child(["--format", "json"] + argv, PYTHONHASHSEED=seed)
                         for seed in ("0", "1"))
        assert first.returncode == second.returncode == expected, first.stderr
        assert first.stdout == second.stdout and first.stdout.startswith("{")


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


def test_group_verdict_follows_the_budget(write_doc, monkeypatch):
    # a box past the node budget exits 3 with one stderr line, at once when
    # one coordinate's box is larger than the budget (6001^2 points over
    # Q(sqrt 2) at height 3000), after the budget's points otherwise
    over_q = write_doc({"kind": "SO", "coeffs": ["1", "1", "-7"],
                        "field": {"quad": None}})
    over_k = write_doc({"kind": "SO", "coeffs": ["1", "1", "-7"],
                        "field": {"quad": 2}})
    for doc, height in ((over_q, "100000"), (over_k, "3000")):
        code, out, err = run_cli(["group", "verdict", doc, "--height", height])
        assert code == 3 and out == "" and err.count("\n") == 1 and "budget" in err
    # a zero found within the budget still answers
    so = write_doc({"kind": "SO", "coeffs": ["1", "1", "-1"], "field": {"quad": None}})
    code, out, err = run_cli(["--format", "json", "group", "verdict", so,
                              "--height", "100000"])
    assert code == 0 and err == ""
    assert loads_strict(out)["isotropic_vector"] == ["1", "0", "1"]
    # the 7 x 7 box of height 3 needs a budget of 49 points
    assert run_cli(["--budget", "49", "group", "verdict", over_q, "--height", "3"])[0] == 2
    code, out, err = run_cli(["--budget", "48", "group", "verdict", over_q,
                              "--height", "3"])
    assert code == 3 and out == "" and err.count("\n") == 1
    monkeypatch.setenv("LATLAB_BUDGET", "48")
    assert run_cli(["group", "verdict", over_q, "--height", "3"]) == (3, out, err)


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


def test_group_verdict_sl40_both_formats(write_doc):
    # the I + E12 witness of SL(40) is verified on sparse ring powers
    doc = write_doc({"kind": "SL", "n": 40, "field": {"quad": None}})
    code, out, err = run_cli(["group", "verdict", doc])
    assert code == 0 and out.startswith("NotUniform") and err == ""
    code, out, err = run_cli(["--format", "json", "group", "verdict", doc])
    assert code == 0 and err == ""
    payload = loads_strict(out)
    assert payload["status"] == "NotUniform"
    witness = payload["witness"]
    assert len(witness) == 40 and witness[0][:3] == ["1", "1", "0"]


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


def test_group_adsys_height_300_answers(write_doc):
    # a box of 601^3 points, searched in 48 nodes
    doc = write_doc({"field": None, "matrix": [["2", "1"], ["1", "1"]]})
    code, out, err = run_cli(["--format", "json", "group", "adsys", doc,
                              "--height", "300"])
    assert code == 0 and err == ""
    assert loads_strict(out) == {"min_norm_sq": "1", "schema": 1,
                                 "witness": [["1", "1"], ["-1", "-1"]],
                                 "witness_nilpotent": True}


def test_group_adsys_small_budget_exits_three(write_doc, monkeypatch):
    doc = write_doc({"field": None, "matrix": [["2", "1"], ["1", "1"]]})
    code, out, err = run_cli(["--budget", "5", "group", "adsys", doc,
                              "--height", "300"])
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "budget" in err
    monkeypatch.setenv("LATLAB_BUDGET", "5")
    assert run_cli(["group", "adsys", doc, "--height", "300"]) == (3, out, err)


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("field, rows", [
    (None, [["1", "2"], ["2", "4"]]),                  # singular
    (None, [["0", "0"], ["0", "0"]]),
    (None, [["0", "1"], ["0", "3"]]),                  # no pivot in column 0
    (None, [["2", "0"], ["0", "1"]]),                  # det 2
    (None, [["0", "1"], ["1", "0"]]),                  # det -1, after a row swap
    (None, [["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    ({"quad": 2}, [["0+1*sqrt(2)", "0"], ["0", "0+1*sqrt(2)"]]),   # det 2
    ({"quad": 5}, [["1+1*sqrt(5)", "2"], ["3+3*sqrt(5)", "6"]]),   # singular
])
def test_group_adsys_rejects_determinant_not_one(write_doc, fmt, field, rows):
    doc = write_doc({"field": field, "matrix": rows})
    assert run_cli(["--format", fmt, "group", "adsys", doc]) == \
        (1, "", "error: matrix must have determinant 1\n")


def test_binary_form_verdicts(write_doc):
    split = write_doc({"kind": "SO", "coeffs": ["1", "-1"], "field": {"quad": None}})
    code, out, err = run_cli(["--format", "json", "group", "verdict", split])
    assert code == 0 and err == ""
    payload = loads_strict(out)
    assert payload["status"] == "NotUniform"
    assert payload["criterion"] == "Godement criterion (split torus)"
    assert payload["witness"] == [["5/4", "3/4"], ["3/4", "5/4"]]
    assert payload["isotropic_vector"] == ["1", "1"]
    anisotropic = write_doc({"kind": "SO", "coeffs": ["1", "-3"], "field": {"quad": None}})
    code, out, err = run_cli(["group", "verdict", anisotropic])
    assert code == 0 and err == "" and out.startswith("Uniform (")
    assert out.endswith("criterion: Godement criterion (anisotropic torus)\n")
    over_k = write_doc({"kind": "SO", "coeffs": ["1", "-3"], "field": {"quad": 3}})
    code, out, err = run_cli(["group", "verdict", over_k])
    assert code == 0 and err == "" and out.startswith("NotUniform (")


def test_arith_rejects_a_basis_that_is_not_full_rank(write_doc):
    z2 = write_doc({"dim": 2, "field": None, "basis": [["1", "0"], ["0", "1"]]})
    for basis in ([["1", "2"], ["2", "4"]], [["0", "0"], ["0", "0"]],
                  [["1", "2"]], [["1", "0"], ["0"]],
                  [["1", "0"], ["0", "1"], ["1", "1"]]):
        bad = write_doc({"dim": len(basis), "field": None, "basis": basis})
        for argv in (["arith", "index", bad, z2], ["arith", "commens", z2, bad]):
            for fmt in ("human", "json"):
                assert run_cli(["--format", fmt] + argv) == \
                    (1, "", "error: expected a full-rank lattice document\n")


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


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "error: argument command: invalid choice: 'frobnicate' "
                     "(choose from 'lattice', 'field', 'group', 'resk', 'arith')\n"),
    (["arith", "congruence"], "error: the following arguments are required: --m\n"),
    (["group", "verdict", "so.json", "--height", "abc"],
     "error: argument --height: invalid int value: 'abc'\n"),
])
def test_usage_errors_are_one_line_on_err(capsys, argv, message):
    assert run_cli(argv) == (1, "", message)
    assert capsys.readouterr() == ("", "")


def test_budget_exhaustion_exit_three(write_doc, monkeypatch):
    doc = write_doc({"dim": 2, "field": None, "basis": [["1", "0"], ["0", "1"]]})
    code, out, err = run_cli(["--budget", "2", "lattice", "systole", doc])
    assert code == 3 and "budget" in err

    monkeypatch.setenv("LATLAB_BUDGET", "2")
    code, out, err = run_cli(["lattice", "systole", doc])
    assert code == 3


def test_quadratic_lattice_document(write_doc):
    doc = write_doc({"dim": 2, "field": {"m": 2},
                     "basis": [["1", "0"], ["0+1*sqrt(2)", "1"]]})
    code, out, _ = run_cli(["--format", "json", "lattice", "systole", doc])
    assert code == 0
    assert loads_strict(out)["systole_sq"] == "1"


def _skewed_doc(write_doc, n, seed):
    """A document of a basis of Z^n behind 90 random shears, swaps and
    flips, its rows, and the canonical witness of its minimum 1."""
    import random

    from conftest import skewed_basis

    rows, canonical = skewed_basis(random.Random(seed), n)
    doc = write_doc({"dim": n, "field": None,
                     "basis": [[str(e) for e in row] for row in rows]})
    return doc, rows, canonical


@pytest.mark.parametrize("n", [10, 11, 12])
def test_skewed_documents_answer_within_the_budget(write_doc, n):
    """The search on the given basis needs more than 20,000 nodes (exit 3
    before LLL); on the LLL-reduced basis both subcommands answer."""
    from latlab import _svp
    from latlab.enumeration import IntegralGram
    from latlab.errors import BudgetExceededError

    doc, rows, canonical = _skewed_doc(write_doc, n, seed=1)
    form = IntegralGram([[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows])
    c0, seed = _svp.initial_bound(form.gram)
    with pytest.raises(BudgetExceededError):
        _svp.search(form.gram, form.d, form.lam, c0, seed, 20000, form.ring)

    code, out, err = run_cli(["--budget", "20000", "--format", "json",
                              "lattice", "systole", doc])
    assert code == 0 and err == ""
    payload = loads_strict(out)
    assert payload["systole_sq"] == "1" and tuple(payload["witness"]) == canonical
    code, out, err = run_cli(["--budget", "20000", "lattice", "systole", doc])
    assert (code, err) == (0, "")
    assert out == "systole_sq = 1\nwitness coefficients = %s\n" % (list(canonical),)

    code, out, err = run_cli(["--budget", "20000", "--format", "json",
                              "lattice", "reduce", doc, "--a", "2"])
    assert code == 0 and err == ""
    payload = loads_strict(out)
    reduced = [[Fraction(e) for e in row] for row in payload["basis"]]
    # a basis of Z^n again: integral with determinant +-1
    assert all(e.denominator == 1 for row in reduced for e in row)
    assert abs(ExactMatrix.from_rows(reduced).det()) == 1
    # C(n, 2) is beyond float range (null) for n >= 11
    bound = payload["bound_approx"]
    assert bound is None or all(t <= bound + 1e-9 for t in payload["norms_approx"])


# a basis that is already LLL-reduced: stdout as before the reduction existed
REDUCED_BASIS = [["-1", "1", "0", "-1", "1"], ["-1", "0", "-3", "2", "3"],
                 ["-2", "2", "1", "0", "-3"], ["0", "0", "-1", "-3", "-2"],
                 ["3", "2", "1", "0", "0"]]
REDUCED_ROWS = ('[["-1","1","0","-1","1"],["0","0","-1","-3","-2"],["3","2","1","0","0"],'
                '["0","1","4","0","0"],["2","-1","2","-3","1"]]')
REDUCED_NORMS = ("[2.0, 3.7416573867739413, 3.7416573867739413, 4.123105625617661, "
                 "4.358898943540674]")
REDUCED_GOLDEN = {
    ("human", "systole"): "systole_sq = 4\nwitness coefficients = [1, 0, 0, 0, 0]\n",
    ("json", "systole"):
        '{"schema":1,"systole_approx":2.0,"systole_sq":"4","witness":[1,0,0,0,0]}\n',
    ("human", "reduce"):
        "reduced basis: %s\nnorms = %s, bound C(n,a) = 2.5102e+41\n"
        % (json.loads(REDUCED_ROWS), REDUCED_NORMS),
    ("json", "reduce"):
        '{"basis":%s,"bound_approx":2.510196553790398e+41,"norms_approx":%s,'
        '"schema":1}\n' % (REDUCED_ROWS, REDUCED_NORMS.replace(" ", "")),
}


@pytest.mark.parametrize("fmt, sub", sorted(REDUCED_GOLDEN))
def test_reduced_basis_output_unchanged(write_doc, monkeypatch, fmt, sub):
    from latlab import _svp

    doc = write_doc({"dim": 5, "field": None, "basis": REDUCED_BASIS})
    if sub == "systole":
        # the top-level search runs on the given basis; the projected
        # lattices of a reduction may still be reduced first
        def fail(gram, ring):
            raise AssertionError("LLL ran on a reduced basis")
        monkeypatch.setattr(_svp, "lll", fail)
    args = ["--format", fmt, "lattice", sub, doc] + (["--a", "338"] if sub == "reduce" else [])
    assert run_cli(args) == (0, REDUCED_GOLDEN[fmt, sub], "")
