"""The --help text of every latlab parser, pinned byte for byte.

The goldens cover the top-level parser, the five command families and the
sixteen subcommands.  COLUMNS is fixed at 80 so that argparse wraps the same
way on every terminal.
"""

import io

import pytest

from latlab import cli

HELP = {
    "": """\
usage: latlab [-h] [--format {human,json}] [--budget BUDGET]
              {lattice,field,group,resk,arith} ...

exact lattice invariants, quadratic fields, and uniformity verdicts over JSON
documents

positional arguments:
  {lattice,field,group,resk,arith}
    lattice             Euclidean lattice invariants
    field               number field computations
    group               group classification and verdicts
    resk                restriction of scalars to Q
    arith               Z-lattice and congruence bookkeeping

options:
  -h, --help            show this help message and exit
  --format {human,json}
                        output format (default: human)
  --budget BUDGET       enumeration node budget (default: LATLAB_BUDGET or
                        1000000)
""",
    "lattice": """\
usage: latlab lattice [-h] {covol,systole,reduce,hermite,mahler} ...

positional arguments:
  {covol,systole,reduce,hermite,mahler}
    covol               squared covolume
    systole             squared systole and witness
    reduce              bounded basis of the same lattice
    hermite             ball-packing bound margin
    mahler              compactness functionals of a family

options:
  -h, --help            show this help message and exit
""",
    "lattice covol": """\
usage: latlab lattice covol [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "lattice systole": """\
usage: latlab lattice systole [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "lattice reduce": """\
usage: latlab lattice reduce [-h] --a A document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
  --a A       reduction parameter, rational > 1
""",
    "lattice hermite": """\
usage: latlab lattice hermite [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "lattice mahler": """\
usage: latlab lattice mahler [-h] documents [documents ...]

positional arguments:
  documents

options:
  -h, --help  show this help message and exit
""",
    "field": """\
usage: latlab field [-h] {info,embed,signature} ...

positional arguments:
  {info,embed,signature}
    info                ring of integers and signature
    embed               trace-form lattice of the integer ring
    signature           signature (r1, r2)

options:
  -h, --help            show this help message and exit
""",
    "field info": """\
usage: latlab field info [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "field embed": """\
usage: latlab field embed [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "field signature": """\
usage: latlab field signature [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "group": """\
usage: latlab group [-h] {verdict,unipotent,adsys} ...

positional arguments:
  {verdict,unipotent,adsys}
    verdict             uniformity verdict
    unipotent           unipotent/nilpotent classification
    adsys               adjoint-orbit systole of a matrix

options:
  -h, --help            show this help message and exit
""",
    "group verdict": """\
usage: latlab group verdict [-h] [--height HEIGHT] document

positional arguments:
  document

options:
  -h, --help       show this help message and exit
  --height HEIGHT  isotropic search height (default 10)
""",
    "group unipotent": """\
usage: latlab group unipotent [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "group adsys": """\
usage: latlab group adsys [-h] [--height HEIGHT] document

positional arguments:
  document

options:
  -h, --help       show this help message and exit
  --height HEIGHT  coefficient bound for trace-zero matrices (default 3)
""",
    "resk": """\
usage: latlab resk [-h] {element,matrix} ...

positional arguments:
  {element,matrix}
    element         2x2 model of a field element
    matrix          blockwise restriction of a matrix

options:
  -h, --help        show this help message and exit
""",
    "resk element": """\
usage: latlab resk element [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "resk matrix": """\
usage: latlab resk matrix [-h] document

positional arguments:
  document

options:
  -h, --help  show this help message and exit
""",
    "arith": """\
usage: latlab arith [-h] {index,commens,congruence} ...

positional arguments:
  {index,commens,congruence}
    index               index of a sublattice
    commens             commensurability constant of two lattices
    congruence          congruence subgroup membership or index

options:
  -h, --help            show this help message and exit
""",
    "arith index": """\
usage: latlab arith index [-h] sublattice superlattice

positional arguments:
  sublattice
  superlattice

options:
  -h, --help    show this help message and exit
""",
    "arith commens": """\
usage: latlab arith commens [-h] first second

positional arguments:
  first
  second

options:
  -h, --help  show this help message and exit
""",
    "arith congruence": """\
usage: latlab arith congruence [-h] --m M [--n N] [document]

positional arguments:
  document    matrix document for a membership test

options:
  -h, --help  show this help message and exit
  --m M       modulus
  --n N       matrix size for the index computation (default 2)
""",
}


def test_goldens_cover_every_parser():
    families = {family for family, _ in cli._COMMANDS}
    rows = {"%s %s" % key for key in cli._COMMANDS}
    assert set(HELP) == {""} | families | rows
    assert len(HELP) == 22


@pytest.mark.parametrize("path", HELP, ids=lambda path: path or "latlab")
def test_help_text_is_unchanged(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(path.split() + ["--help"], out=out, err=err) == cli.EXIT_OK
    assert out.getvalue() == HELP[path] and err.getvalue() == ""
    assert capsys.readouterr() == ("", "")     # nothing on sys.stdout or sys.stderr
