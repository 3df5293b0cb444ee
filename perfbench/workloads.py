"""The four workloads: seeded inputs, the op each input drives, and its check.

Every workload is generated in rounds.  A round holds one op per stratum
(dimension, field, op kind, ...) in a seeded order, and a run always ends on a
round boundary, so the mix of ops is the same in every run and only the
random content of each stratum changes with the seed.

Ops take plain data (ints, Fractions, pairs) and build latlab objects
themselves, because building them is part of what a caller pays for.  Checks
run after the timed loop and use :mod:`oracle`, which shares no code with the
library; only the CLI check (child process against in-process run) and the
kernel check (compiled against pure search) compare two paths of latlab.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import isqrt

import latlab
from latlab import _svp, enumeration
from latlab import cli as latlab_cli
from latlab.numfield import NumberFieldDesc
from latlab.scalars import QuadScalar

import oracle


class Failed(Exception):
    """The op did not produce an answer (exception, traceback, exit code)."""


class Wrong(Exception):
    """The op produced an answer that the independent check rejects."""


class Workload:
    """Rounds of ops; subclasses define round, execute and check."""

    name = ""
    count_rounds = 1   # count metrics cover this many leading rounds
    # Each op's latency is its fastest time over this many passes through the
    # run.  On a machine shared with other tenants the same pass can take 80 %
    # longer from one spell to the next; the fastest of several passes lying
    # seconds apart is far steadier.  More passes leave fewer distinct ops.
    passes = 4

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def probe(self, op, tracer):
        """Side measurements after a traced op (none by default)."""


def _scalar(x, m):
    """A latlab scalar from an int, a Fraction or an (a, b) pair over m."""
    if m is None:
        return Fraction(x)
    a, b = x
    return QuadScalar(Fraction(a), Fraction(b), m)


def _same(value, expected):
    """Exact equality of a latlab scalar with a pair or a rational."""
    if not isinstance(expected, tuple):
        expected = (Fraction(expected), Fraction(0))
    return oracle.pair(value) == expected


def _unimodular(rnd, n, steps, shear):
    """(U, U^-1): a product of random shears (|c| <= shear), swaps and sign
    flips, with its inverse tracked step by step."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rnd.randrange(3)
        i = rnd.randrange(n)
        j = rnd.randrange(n)
        if kind == 0 and i != j:
            c = rnd.randint(-shear, shear)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            for row in v:                       # column op on the inverse
                row[j] -= c * row[i]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
        elif kind == 2:
            u[i] = [-a for a in u[i]]
            for row in v:
                row[i] = -row[i]
    return u, v


def _integer_basis(rnd, n, lo=-5, hi=5):
    while True:
        rows = [[rnd.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if oracle.integer_rank_full(rows):
            return rows


def _quadratic_basis(rnd, n, m, lo=-5, hi=5):
    """Basis over Z[sqrt(m)]; nonsingular iff its 2n x 2n rational
    restriction (blocks [[a, m b], [b, a]]) is."""
    while True:
        rows = [[(rnd.randint(lo, hi), rnd.randint(lo, hi)) for _ in range(n)]
                for _ in range(n)]
        restricted = []
        for row in rows:
            restricted.append([x for a, b in row for x in (a, m * b)])
            restricted.append([x for a, b in row for x in (b, a)])
        if oracle.integer_rank_full(restricted):
            return rows


def _check_systole(basis, m, value, witness):
    """value = Q(witness), witness sign-normalized, and for n <= 4 the
    enumeration oracle's minimum with the canonical (key-minimal) minimizer."""
    pairs = [[(Fraction(e), Fraction(0)) if m is None else
              (Fraction(e[0]), Fraction(e[1])) for e in vec] for vec in basis]
    mm = m or 0
    if not any(witness):
        raise Wrong("zero witness")
    if not _same(value, oracle.norm_sq(pairs, witness, mm)):
        raise Wrong("value %s differs from Q(witness %r)" % (value, witness))
    if oracle.witness_key(witness)[1] != tuple(witness):
        raise Wrong("witness %r is not sign-normalized" % (witness,))
    if len(basis) <= 4:
        best, minimizers = oracle.short_vectors_minimum(pairs, mm, float(value) * (1 + 1e-9))
        if not _same(value, best):
            raise Wrong("systole %s, box oracle %s" % (value, best))
        canon = min(oracle.witness_key(x) for x in minimizers)[1]
        if tuple(witness) != canon:
            raise Wrong("witness %r, canonical %r" % (witness, canon))


def _check_kernels_agree(basis):
    """With the compiled kernel importable, the pure and the compiled search
    must return identical (value, witness, nodes) on the integer Gram matrix
    wherever the overflow certificate admits the compiled one."""
    if not enumeration.compiled_available():
        return
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    d, lam = _svp.integral_gso(gram)
    c0, seed = _svp.initial_bound(gram)
    if not enumeration._fits_compiled(gram, d, lam, c0):
        return
    budget = enumeration.DEFAULT_NODE_BUDGET
    pure = _svp.search(gram, d, lam, c0, seed, budget, _svp.IntRing)
    compiled = enumeration._svp_c.search_int(gram, d, lam, c0, seed, budget)
    if tuple(pure) != tuple(compiled):
        raise Wrong("kernels disagree: pure %r, compiled %r" % (pure, compiled))


NODE_BUDGET = 20_000
"""Node budget of every search in both lattice workloads; a search that needs
more ends in BudgetExceededError, so a blown-up tree costs a bounded time and
leaves its op unsolved (it counts against success_rate and ops_per_s)."""


# -- lattice-random ------------------------------------------------------------------


class LatticeRandom(Workload):
    """Random bases, n = 2..12 over Q, n = 2..6 over Z[sqrt 2] or Z[sqrt 5],
    plus bounded-basis reductions (n = 3..5 and 5..7): construction (Fraction
    Gram and det) outweighs the search."""

    name = "lattice-random"
    count_rounds = 4

    def round(self, rnd):
        ops = [("systole", _integer_basis(rnd, n), None) for n in range(2, 13)]
        odd = rnd.randrange(2)      # Z[sqrt 2] and Z[sqrt 5] alternate over n
        for n in range(2, 7):
            m = (2, 5)[(n + odd) % 2]
            ops.append(("systole", _quadratic_basis(rnd, n, m), m))
        for lo, hi in ((3, 5), (5, 7)):
            basis = _integer_basis(rnd, rnd.randint(lo, hi))
            covol_sq = oracle.rational_det(basis) ** 2
            ops.append(("reduce", basis, isqrt(int(covol_sq)) + 1))
        rnd.shuffle(ops)
        return ops

    def execute(self, op):
        kind, basis, extra = op
        if kind == "systole":
            lattice = latlab.EuclideanLattice(
                [[_scalar(e, extra) for e in vec] for vec in basis])
            return latlab.systole_sq(lattice, NODE_BUDGET)
        lattice = latlab.EuclideanLattice(basis)
        return latlab.reduce_bounded(lattice, extra, NODE_BUDGET).basis

    def check(self, op, result):
        kind, basis, extra = op
        if kind == "systole":
            value, witness = result
            _check_systole(basis, extra, value, witness)
            if extra is None:
                _check_kernels_agree(basis)
            return "systole %s %r" % (value, tuple(witness))
        n = len(basis)
        reduced = [[Fraction(e) for e in vec] for vec in result]
        transform = [oracle.rational_solve(basis, vec) for vec in reduced]
        if any(t.denominator != 1 for col in transform for t in col):
            raise Wrong("reduced vectors are not in the lattice")
        if abs(oracle.rational_det(transform)) != 1:
            raise Wrong("reduced basis spans a proper sublattice")
        bound = oracle.reduction_bound(n, float(extra))
        norms = [float(sum(e * e for e in vec)) ** 0.5 for vec in reduced]
        if max(norms) > bound * (1 + 1e-9):
            raise Wrong("norm %g exceeds C(n, a) = %g" % (max(norms), bound))
        return "reduce %r" % (reduced,)


# -- lattice-skewed ------------------------------------------------------------------


class LatticeSkewed(Workload):
    """Z^n, n = 8..12, behind 60-96 random elementary steps: the known minimum
    1 is hidden by a badly skewed basis, so the search tree dominates."""

    name = "lattice-skewed"
    count_rounds = 2

    def round(self, rnd):
        ops = []
        for n in range(8, 13):
            for steps in (60, 72, 84, 96):
                u, u_inv = _unimodular(rnd, n, steps, 3)
                ops.append(("skewed", u, u_inv))
        rnd.shuffle(ops)
        return ops

    def execute(self, op):
        lattice = latlab.EuclideanLattice(op[1])
        return latlab.systole_sq(lattice, NODE_BUDGET)

    def check(self, op, result):
        _, u, u_inv = op
        value, witness = result
        # basis vectors are the rows of U, so U^T x = +-e_i gives the
        # minimal vectors x = +-(row i of U^-1)
        pairs = [[(Fraction(e), Fraction(0)) for e in vec] for vec in u]
        if value != 1 or oracle.norm_sq(pairs, witness, 0) != (1, 0):
            raise Wrong("systole %s at %r, known minimum 1" % (value, witness))
        canon = min(oracle.witness_key(row) for row in u_inv)[1]
        if tuple(witness) != canon:
            raise Wrong("witness %r, canonical %r" % (witness, canon))
        return "skewed %r" % (tuple(witness),)


# -- groups ----------------------------------------------------------------------------

# a prime p split in Q(sqrt m) (so the completion is Q_p) and a non-residue u
# mod p: <1, -u, -p> and <1, -u, -p, up> are anisotropic over Q_p, hence over
# the field, at every height
_ANISOTROPIC = {None: (7, 3), 2: (7, 3), 3: (11, 2), 5: (11, 2)}


def _ring_element(rnd, m, h):
    """p + q*omega with |p|, |q| <= h (omega = sqrt m, or (1+sqrt 5)/2)."""
    p = rnd.randint(-h, h)
    if m is None:
        return Fraction(p), Fraction(0)
    q = rnd.randint(-h, h)
    if m % 4 == 1:
        return Fraction(2 * p + q, 2), Fraction(q, 2)
    return Fraction(p), Fraction(q)


def _nonzero(rnd, m, h):
    while True:
        x = _ring_element(rnd, m, h)
        if x != oracle.ZERO:
            return x


def _form_uniform(rnd, m, n):
    """Definite over Q; over Q(sqrt m) indefinite with a definite conjugate."""
    if m is None:
        return [(Fraction(rnd.randint(1, 9)), Fraction(0)) for _ in range(n)]
    root = m ** 0.5
    coeffs = []
    for i in range(n):
        b = rnd.randint(1, 4)
        if i % 2:   # a - b sqrt m < 0 < a + b sqrt m
            a = rnd.randint(1, int(b * root))
            coeffs.append((Fraction(a), Fraction(-b)))
        else:       # totally positive
            a = rnd.randint(int(b * root) + 1, int(b * root) + 6)
            coeffs.append((Fraction(a), Fraction(rnd.choice((-b, b)))))
    rnd.shuffle(coeffs)
    return coeffs


def _form_isotropic(rnd, m, n, h):
    """A form with an isotropic vector of height <= h, built around it."""
    while True:
        v = [_ring_element(rnd, m, h) for _ in range(n - 1)] + [_nonzero(rnd, m, h)]
        d = [_nonzero(rnd, m, 3) for _ in range(n - 1)]
        mm = m or 0
        rest = oracle.ZERO
        for di, vi in zip(d, v):
            rest = oracle.p_add(rest, oracle.p_mul(di, oracle.p_mul(vi, vi, mm), mm))
        last = _p_div(rest, oracle.p_mul(v[-1], v[-1], mm), mm)
        if last != oracle.ZERO:
            return d + [(-last[0], -last[1])]


def _p_div(x, y, m):
    norm = y[0] * y[0] - m * y[1] * y[1]
    num = oracle.p_mul(x, (y[0], -y[1]), m)
    return num[0] / norm, num[1] / norm


def _form_anisotropic(rnd, m, n):
    """lambda * <s_i^2 c_i> for an anisotropic base form <c_i>."""
    p, u = _ANISOTROPIC[m]
    base = [1, -u, -p, u * p][:n]
    mm = m or 0
    scale = _nonzero(rnd, m, 2)
    coeffs = []
    for c in base:
        s = _nonzero(rnd, m, 2)
        coeffs.append(oracle.p_mul(scale, oracle.p_mul((Fraction(c), Fraction(0)),
                                                       oracle.p_mul(s, s, mm), mm), mm))
    rnd.shuffle(coeffs)
    return coeffs


def _sl2(rnd, steps=4, bound=2):
    g = [[1, 0], [0, 1]]
    for _ in range(steps):
        c = rnd.choice([k for k in range(-bound, bound + 1) if k])
        if rnd.randrange(2):
            g = [[g[0][0] + c * g[1][0], g[0][1] + c * g[1][1]], g[1]]
        else:
            g = [g[0], [g[1][0] + c * g[0][0], g[1][1] + c * g[0][1]]]
    return g


class Groups(Workload):
    """Uniformity verdicts over Q and Q(sqrt 2, 3, 5), adjoint systoles,
    subgroup and congruence counts: QuadScalar/ExactMatrix arithmetic and the
    brute-force enumerators, with no lattice search."""

    name = "groups"

    # (field m, variables, height, status known by construction)
    VERDICTS = [
        (None, 3, 2, "Uniform"), (None, 5, 3, "Uniform"),
        (2, 4, 3, "Uniform"), (5, 3, 2, "Uniform"),
        (None, 4, 3, "NotUniform"), (None, 5, 3, "NotUniform"),
        (2, 3, 3, "NotUniform"), (3, 4, 2, "NotUniform"), (5, 5, 2, "NotUniform"),
        (None, 4, 3, "Inconclusive"), (2, 3, 3, "Inconclusive"),
        (5, 4, 2, "Inconclusive"),
    ]

    def round(self, rnd):
        ops = []
        for m, n, h, status in self.VERDICTS * 3:
            if status == "Uniform":
                coeffs = _form_uniform(rnd, m, n)
            elif status == "NotUniform":
                coeffs = _form_isotropic(rnd, m, n, h)
            else:
                coeffs = _form_anisotropic(rnd, m, n)
            ops.append(("verdict", (m, coeffs, h), status))
        # the top tenth of a round's 52 latencies is then the (Z/9)^2 count
        # and the ops of height 6 and 5, so p90 falls among the height-5 ops,
        # whose cost does not depend on the input
        for h in (2, 3, 4, 5, 5, 5, 6, 6):
            ops.append(("adjoint", (_sl2(rnd), h), None))
        for q, count in ((2, 15), (2, 15), (3, 23)):
            ops.append(("subgroups", (_integer_basis(rnd, 2), q), count))
        for _ in range(5):
            m = rnd.randint(2, 7)
            ops.append(("congruence", m, oracle.sl2_index(m)))
        rnd.shuffle(ops)
        return ops

    def execute(self, op):
        kind, args, _ = op
        if kind == "verdict":
            m, coeffs, h = args
            field = None if m is None else NumberFieldDesc(m=m)
            form = latlab.DiagForm([_scalar(c, m) if m else c[0] for c in coeffs], field)
            return latlab.uniformity_verdict(latlab.GroupSpec("SO", form=form), h)
        if kind == "adjoint":
            g, h = args
            return latlab.adjoint_systole(latlab.ExactMatrix.from_rows(g), h)
        if kind == "subgroups":
            basis, q = args
            return latlab.intermediate_lattices(latlab.ZLattice(basis), q)
        return latlab.congruence_index(2, args)

    def check(self, op, result):
        kind, args, expected = op
        if kind == "verdict":
            return self._check_verdict(args, expected, result)
        if kind == "adjoint":
            return self._check_adjoint(args, result)
        if result != expected:
            raise Wrong("%s(%r) = %r, expected %r" % (kind, args, result, expected))
        return "%s %r" % (kind, result)

    @staticmethod
    def _check_verdict(args, expected, verdict):
        m, coeffs, _ = args
        if verdict.status != expected:
            raise Wrong("status %s, known %s" % (verdict.status, expected))
        if expected != "NotUniform":
            return "verdict %s" % verdict.status
        mm = m or 0
        n = len(coeffs)
        g = [[oracle.pair(verdict.witness[i, j]) for j in range(n)] for i in range(n)]
        a = [[coeffs[i] if i == j else oracle.ZERO for j in range(n)] for i in range(n)]
        gtag = oracle.mat_mul(oracle.mat_mul(oracle.mat_transpose(g), a, mm), g, mm)
        if gtag != a:
            raise Wrong("witness does not preserve the form")
        ident = oracle.identity(n)
        x = [[oracle.p_sub(g[i][j], ident[i][j]) for j in range(n)] for i in range(n)]
        if oracle.is_zero_matrix(x):
            raise Wrong("witness is the identity")
        power = x
        for _ in range(n - 1):
            power = oracle.mat_mul(power, x, mm)
        if not oracle.is_zero_matrix(power):
            raise Wrong("witness is not unipotent")
        return "verdict NotUniform %r" % (g,)

    @staticmethod
    def _check_adjoint(args, result):
        (a, b), (c, d) = args[0]
        h = args[1]
        w = [[int(result.witness[i, j]) for j in range(2)] for i in range(2)]
        if w[0][0] + w[1][1] != 0 or not any(w[0] + w[1]):
            raise Wrong("witness %r is not a nonzero trace-zero matrix" % (w,))
        if max(abs(e) for e in w[0] + w[1]) > h:
            raise Wrong("witness %r is outside the height box" % (w,))
        g, g_inv = [[a, b], [c, d]], [[d, -b], [-c, a]]
        conj = [[sum(g[i][k] * w[k][l] * g_inv[l][j] for k in range(2) for l in range(2))
                 for j in range(2)] for i in range(2)]
        if result.min_norm_sq != sum(e * e for row in conj for e in row):
            raise Wrong("value %s is not ||g W g^-1||^2 of %r" % (result.min_norm_sq, w))
        square_zero = all(sum(w[i][k] * w[k][j] for k in range(2)) == 0
                          for i in range(2) for j in range(2))
        if result.witness_nilpotent != square_zero:
            raise Wrong("nilpotency flag disagrees with W^2")
        return "adjoint %s %r" % (result.min_norm_sq, w)


# -- cli -------------------------------------------------------------------------------

CHILD = "from latlab.cli import main; main()"
IMPORT_CHILD = ("import time; t = time.perf_counter(); import latlab, latlab.cli; "
                "print(time.perf_counter() - t)")


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(root):
    """Import time of latlab and latlab.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=child_env(root),
                         cwd=root, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def _quad_text(x, m):
    a, b = x
    return "%s%s%s*sqrt(%d)" % (a, "+" if b >= 0 else "-", abs(b), m)


def _digits(rnd, k):
    return rnd.randrange(10 ** (k - 1), 10 ** k) * rnd.choice((-1, 1))


class Cli(Workload):
    """One `latlab` child process per call, every subcommand family in both
    formats, on documents written per round, including a few with entries of
    several hundred digits."""

    name = "cli"
    passes = 2      # 100 child processes take about 13 s per pass

    def __init__(self, root):
        self.root = root
        self.env = child_env(root)
        self._tmp = None
        self._files = 0

    def __enter__(self):
        self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.root)
        return self

    def __exit__(self, *exc):
        self._tmp.cleanup()
        return False

    def _doc(self, payload):
        self._files += 1
        path = os.path.join(self._tmp.name, "d%05d.json" % self._files)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def _lattice(self, rows, m=None):
        if m is None:
            basis = [[str(e) for e in vec] for vec in rows]
        else:
            basis = [[_quad_text(e, m) for e in vec] for vec in rows]
        return self._doc({"dim": len(rows), "field": None if m is None else {"m": m},
                          "basis": basis})

    def _matrix(self, rows, m=None):
        if m is None:
            entries = [[str(e) for e in row] for row in rows]
        else:
            entries = [[_quad_text(e, m) for e in row] for row in rows]
        return self._doc({"field": None if m is None else {"quad": m}, "matrix": entries})

    def round(self, rnd):
        calls = []   # (argv without --format, expected exit code)
        calls.append((["lattice", "systole",
                       self._lattice(_integer_basis(rnd, rnd.randint(3, 5)))], 0))
        red = _integer_basis(rnd, rnd.randint(2, 3))
        a = isqrt(int(oracle.rational_det(red) ** 2)) + 1
        calls.append((["lattice", "reduce", self._lattice(red), "--a", str(a)], 0))
        m = rnd.choice((2, 5))
        calls.append((["lattice", "systole",
                       self._lattice(_quadratic_basis(rnd, rnd.randint(2, 3), m), m)], 0))
        calls.append((["lattice", "mahler"] +
                      [self._lattice(_integer_basis(rnd, 2)) for _ in range(3)], 0))
        quad = rnd.choice((2, 3, 5, 6, 7, 10, 13))
        calls += [(["field", "info", self._doc({"quad": rnd.choice((quad, -quad))})], 0),
                  (["field", "embed", self._doc({"quad": quad})], 0)]
        roots = rnd.sample(range(-6, 7), rnd.randint(1, 3))
        poly = [rnd.randint(1, 5), 0, 1]            # c + x^2, no real roots
        for r in roots:                             # times (x - r)
            poly = [-r * poly[0]] + [poly[i - 1] - r * poly[i] for i in range(1, len(poly))] + [1]
        minpoly = self._doc({"minpoly": poly})
        calls.append((["field", "signature", minpoly], 0))
        status = rnd.choice(("Uniform", "NotUniform", "Inconclusive"))
        nvars = rnd.randint(3, 4)
        coeffs = (_form_uniform(rnd, None, nvars) if status == "Uniform" else
                  _form_isotropic(rnd, None, nvars, 2) if status == "NotUniform" else
                  _form_anisotropic(rnd, None, nvars))
        calls.append((["group", "verdict",
                       self._doc({"kind": "SO", "coeffs": [str(c[0]) for c in coeffs],
                                  "field": {"quad": None}}), "--height", "2"],
                      2 if status == "Inconclusive" else 0))
        calls.append((["group", "verdict", self._doc({"kind": "SL", "n": rnd.randint(2, 4),
                                                      "field": {"quad": None}})], 0))
        unip = [[1, rnd.randint(-3, 3), rnd.randint(-3, 3)], [0, 1, rnd.randint(-3, 3)],
                [0, 0, 1]]
        calls.append((["group", "unipotent", self._matrix(unip)], 0))
        # five calls that do real work on top of start-up (about 80 ms each):
        # the top tenth of a round's 25 latencies then falls in the middle of
        # them, not in the noise of the calls that are start-up alone
        for _ in range(5):
            calls.append((["group", "adsys", self._matrix(_sl2(rnd)), "--height", "5"], 0))
        m = rnd.choice((2, 3, 5))
        scalar = _quad_text((rnd.randint(-9, 9), rnd.randint(1, 9)), m)
        calls.append((["resk", "element", self._doc({"field": {"quad": m}, "scalar": scalar})], 0))
        entries = [[(rnd.randint(-5, 5), rnd.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
        calls.append((["resk", "matrix", self._matrix(entries, m)], 0))
        sup = _integer_basis(rnd, 3)
        t = _integer_basis(rnd, 3, -2, 2)
        sub = [[sum(t[j][k] * sup[k][i] for k in range(3)) for i in range(3)] for j in range(3)]
        calls.append((["arith", "index", self._lattice(sub), self._lattice(sup)], 0))
        scales = (rnd.randint(1, 4), rnd.randint(1, 4))
        scaled = [[Fraction(e, k) for e in vec] for vec, k in zip(_integer_basis(rnd, 2), scales)]
        calls.append((["arith", "commens", self._lattice(_integer_basis(rnd, 2)),
                       self._lattice(scaled)], 0))
        mod = rnd.randint(2, 7)
        calls.append((["arith", "congruence", self._matrix(_sl2(rnd)), "--m", str(mod)], 0))
        # exact input of several hundred digits; systole and hermite print a
        # float of the squared entry, so theirs stay below 155 digits
        big = [[_digits(rnd, 300) for _ in range(2)] for _ in range(2)]
        while not oracle.integer_rank_full(big):
            big = [[_digits(rnd, 300) for _ in range(2)] for _ in range(2)]
        calls.append((["lattice", "covol", self._lattice(big)], 0))
        calls.append((["lattice", "systole", self._lattice([[_digits(rnd, 150)]])], 0))
        calls.append((["lattice", "hermite", self._lattice([[_digits(rnd, 150)]])], 0))
        calls.append((["resk", "element", self._doc(
            {"field": {"quad": 2},
             "scalar": _quad_text((_digits(rnd, 300), _digits(rnd, 300)), 2)})], 0))
        big_t = [[1, _digits(rnd, 200)], [0, rnd.randint(1, 9)]]
        big_sup = [[_digits(rnd, 250), 1], [0, 1]]
        big_sub = [[sum(big_t[j][k] * big_sup[k][i] for k in range(2)) for i in range(2)]
                   for j in range(2)]
        calls.append((["arith", "index", self._lattice(big_sub), self._lattice(big_sup)], 0))
        rnd.shuffle(calls)
        start = rnd.randrange(2)
        return [("cli", ["--format", ("human", "json")[(i + start) % 2]] + argv, code)
                for i, (argv, code) in enumerate(calls)]

    def execute(self, op):
        return subprocess.run([sys.executable, "-c", CHILD] + op[1], env=self.env,
                              cwd=self.root, capture_output=True, timeout=120)

    def check(self, op, proc):
        _, argv, expected = op
        stderr = proc.stderr.decode("utf-8", "replace")
        if "Traceback (most recent call last)" in stderr:
            raise Failed("traceback: %s" % stderr.strip().splitlines()[-1])
        if proc.returncode != expected:
            raise Failed("exit %d, expected %d: %s" % (proc.returncode, expected,
                                                        stderr.strip()))
        out, err = io.StringIO(), io.StringIO()
        code = latlab_cli.run(argv, out=out, err=err)
        if code != proc.returncode or out.getvalue().encode("utf-8") != proc.stdout:
            raise Wrong("child output differs from in-process cli.run")
        return "cli %d %s" % (code, out.getvalue())

    def probe(self, op, tracer):
        """Side measurements of a traced op: bare interpreter, import, and the
        same call in process (with its library spans)."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.root,
                       check=True, timeout=120)
        tracer.record("cli.interp", start, time.perf_counter())
        start = time.perf_counter()
        tracer.record("cli.import", start, start + import_seconds(self.root))
        try:
            latlab_cli.run(op[1], out=io.StringIO(), err=io.StringIO())
        except Exception:   # the child already failed on this input
            pass


WORKLOADS = {
    "lattice-random": lambda root: LatticeRandom(),
    "lattice-skewed": lambda root: LatticeSkewed(),
    "groups": lambda root: Groups(),
    "cli": Cli,
}
