"""Spans and counters recorded around latlab's public functions.

The tracer patches module and class attributes for the duration of a traced
pass and restores them afterwards, so the library itself is unchanged and an
untraced pass runs the original code.  Each wrapped call records a span
(id, name, start, end, parent span, op id) in memory; hot scalar methods only
bump counters, because a span per field multiplication would swamp what it
measures.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from types import ModuleType

import latlab
from latlab import _svp, arith, cli, documents, enumeration, euclid, groups, matrices, scalars
from latlab.errors import BudgetExceededError

# (owner, attribute, layer name); every layer name below is also a metric stem
SPANNED = [
    (euclid.EuclideanLattice, "__init__", "euclid.build"),
    (euclid, "reduce_bounded", "euclid.reduce"),
    (matrices.ExactMatrix, "det", "matrices.det"),
    (matrices.ExactMatrix, "inv", "matrices.inv"),
    (_svp, "integral_gso", "svp.gso"),
    (_svp, "search", "svp.search"),
    (enumeration, "shortest_vector", "enumeration.sv"),
    (groups, "uniformity_verdict", "groups.verdict"),
    (groups, "isotropic_search", "groups.isotropic_search"),
    (groups, "unipotent_from_isotropic", "groups.transvection"),
    (groups, "preserves_form", "groups.verify"),
    (groups, "is_unipotent", "groups.verify"),
    (groups, "adjoint_systole", "groups.adjoint_systole"),
    (arith, "intermediate_lattices", "arith.subgroup_count"),
    (arith, "congruence_index", "arith.congruence_index"),
    (cli, "run", "cli.run"),
    (documents, "load_json", "documents.parse"),
    (documents, "lattice_from_doc", "documents.parse"),
    (documents, "matrix_from_doc", "documents.parse"),
    (documents, "numberfield_from_doc", "documents.parse"),
    (documents, "group_from_doc", "documents.parse"),
    (documents, "scalar_from_doc", "documents.parse"),
]

COUNTED = [
    (scalars.QuadScalar, "__mul__", "scalars.quad_mul_calls"),
    (scalars.QuadScalar, "__rmul__", "scalars.quad_mul_calls"),
    (scalars.QuadScalar, "sign", "scalars.quad_sign_calls"),
    (scalars.QuadScalar, "__init__", "scalars.quad_init_calls"),
]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op)
        self.counts = Counter()
        self.op = -1
        self._stack = [None]
        self._saved = []

    # -- recording -----------------------------------------------------------

    def begin(self, name):
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None, self._stack[-1], self.op])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def record(self, name, start, end):
        """A span measured elsewhere (a child process), parented to nothing."""
        self.spans.append([len(self.spans), name, start, end, None, self.op])

    # -- patching ------------------------------------------------------------

    def install(self):
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        self._patch(matrices.ExactMatrix, "__mul__",
                    self._matmul(matrices.ExactMatrix.__mul__))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        owners = [owner]
        # names re-exported by the package are separate bindings of the same function
        if isinstance(owner, ModuleType) and getattr(latlab, attr, None) is original:
            owners.append(latlab)
        for target in owners:
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _spanned(self, fn, name):
        tracer = self
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError as exc:
                tracer._on_budget(name, exc)
                raise
            finally:
                tracer.end(sid)
            tracer._on_result(name, result)
            return result

        return wrapper

    def _matmul(self, fn):
        tracer = self
        counts = self.counts
        matrix = matrices.ExactMatrix

        def wrapper(a, b):
            if not isinstance(b, matrix):
                return fn(a, b)
            counts["matrices.matmul.calls"] += 1
            sid = tracer.begin("matrices.matmul")
            try:
                return fn(a, b)
            finally:
                tracer.end(sid)

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_result(self, name, result):
        if name == "enumeration.sv":
            self.counts["svp.nodes"] += result[2]
        elif name == "groups.isotropic_search":
            self.counts["groups.isotropic_found"] += result is not None
        elif name == "groups.verdict":
            self.counts["groups.definite"] += result.conjugate_name is not None

    def _on_budget(self, name, exc):
        if name == "enumeration.sv":
            self.counts["svp.nodes"] += exc.budget
            self.counts["enumeration.budget_exhausted"] += 1

    # -- output --------------------------------------------------------------

    def self_ms(self):
        """Total self time in ms per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for sid, name, start, end, _, _ in self.spans:
            out[name] += (end - start - child[sid]) * 1e3
        return out

    def write(self, path, header):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# %s\n# id\tname\tstart_s\tend_s\tparent\top\n" % header)
            for sid, name, start, end, parent, op in self.spans:
                handle.write("%d\t%s\t%.9f\t%.9f\t%s\t%d\n"
                             % (sid, name, start, end,
                                "-" if parent is None else parent, op))


_UNITS = (("_ms", "ms"), ("_calls", "count"), ("nodes", "count"), ("_exhausted", "count"),
          ("_share", "ratio"), ("_per_node", "us"), ("_pct", "%"))


def unit(name):
    """Unit of a per-layer metric, read from the suffix of its name."""
    return next(u for suffix, u in _UNITS if name.endswith(suffix))


def layer_metrics(tracer, counts, traced_ops, traced_s, untraced_s):
    """Per-layer metrics of a traced pass.

    Times are self times averaged over every traced op; counts are the exact
    totals in ``counts`` (a snapshot over a fixed prefix of ops), so they
    repeat for a given seed on any machine.
    """
    ms = tracer.self_ms()
    nodes = tracer.counts["svp.nodes"]          # over every traced op, like ms

    def mean_ms(name):
        return ms[name] / traced_ops

    def share(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    return {
        "euclid.build_ms": mean_ms("euclid.build"),
        "euclid.reduce_ms": mean_ms("euclid.reduce"),
        "matrices.det_ms": mean_ms("matrices.det"),
        "matrices.det_calls": counts["matrices.det.calls"],
        "matrices.matmul_ms": mean_ms("matrices.matmul"),
        "matrices.matmul_calls": counts["matrices.matmul.calls"],
        "matrices.inv_ms": mean_ms("matrices.inv"),
        "svp.gso_ms": mean_ms("svp.gso"),
        "svp.gso_calls": counts["svp.gso.calls"],
        "svp.search_ms": mean_ms("svp.search"),
        "svp.search_calls": counts["svp.search.calls"],
        "svp.nodes": counts["svp.nodes"],
        "svp.us_per_node": ms["svp.search"] * 1e3 / nodes if nodes else 0.0,
        "enumeration.sv_calls": counts["enumeration.sv.calls"],
        "enumeration.self_ms": mean_ms("enumeration.sv"),
        "enumeration.compiled_calls": counts["enumeration.sv.calls"] - counts["svp.search.calls"],
        "enumeration.budget_exhausted": counts["enumeration.budget_exhausted"],
        "scalars.quad_mul_calls": counts["scalars.quad_mul_calls"],
        "scalars.quad_sign_calls": counts["scalars.quad_sign_calls"],
        "scalars.quad_init_calls": counts["scalars.quad_init_calls"],
        "groups.verdict_ms": mean_ms("groups.verdict"),
        "groups.isotropic_search_ms": mean_ms("groups.isotropic_search"),
        "groups.isotropic_found_share": share("groups.isotropic_found",
                                              "groups.isotropic_search.calls"),
        "groups.definite_share": share("groups.definite", "groups.verdict.calls"),
        "groups.transvection_ms": mean_ms("groups.transvection"),
        "groups.verify_ms": mean_ms("groups.verify"),
        "groups.adjoint_systole_ms": mean_ms("groups.adjoint_systole"),
        "arith.subgroup_count_ms": mean_ms("arith.subgroup_count"),
        "arith.congruence_index_ms": mean_ms("arith.congruence_index"),
        "cli.interp_ms": mean_ms("cli.interp"),
        "cli.import_ms": mean_ms("cli.import"),
        "cli.run_ms": _inclusive_ms(tracer, "cli.run") / traced_ops,
        "documents.parse_ms": mean_ms("documents.parse"),
        "trace.op_ms": _inclusive_ms(tracer, "op") / traced_ops,
        "trace.unattributed_ms": mean_ms("op"),
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }


def _inclusive_ms(tracer, name):
    return sum(end - start for _, n, start, end, _, _ in tracer.spans if n == name) * 1e3
