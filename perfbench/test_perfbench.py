"""Tests of the benchmark itself: seeded inputs, exact counts, stable outputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = 8   # ops per repeat: the first ops of the first round


def _input_digest(wl, ops):
    """Digest of the generated inputs; cli documents count by content."""
    text = []
    for op in ops:
        parts = op[1] if wl.name == "cli" else op
        for part in parts:
            if isinstance(part, str) and os.path.isfile(part):
                with open(part, encoding="utf-8") as handle:
                    part = handle.read()
            text.append(repr(part))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


def _traced_small_run(name, seed):
    wl = workloads.WORKLOADS[name](str(run.ROOT))
    with wl:
        ops = wl.round(run.seeded_random(name, seed))[:SMALL]
        inputs = _input_digest(wl, ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, counts = run.execute(wl, ops, tracer=tracer, snapshot_at=len(ops))
        finally:
            tracer.uninstall()
        _, wrong, _, _, outputs = run.check_all(wl, results)
    metrics = tracing.layer_metrics(tracer, counts, len(ops), 1.0, 1.0)
    exact = {k: v for k, v in metrics.items() if tracing.unit(k) == "count"}
    return inputs, outputs, exact, wrong


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_counts_and_outputs(name):
    first = _traced_small_run(name, 11)
    second = _traced_small_run(name, 11)
    assert first[3] == 0 and second[3] == 0, "an output check rejected a result"
    assert first[0] == second[0], "same seed, different inputs"
    assert first[1] == second[1], "same inputs, different output digest"
    assert first[2] == second[2], "count metrics differ between repeats"
    assert any(first[2].values()), "no layer counted any work"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_inputs(name):
    wl = workloads.WORKLOADS[name](str(run.ROOT))
    with wl:
        a = _input_digest(wl, wl.round(run.seeded_random(name, 11)))
        b = _input_digest(wl, wl.round(run.seeded_random(name, 12)))
    assert a != b


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = tracing.layer_metrics(tracing.Tracer(), tracing.Counter(), 1, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit(name) for name in names}


def test_skewed_inverse_and_known_minimizers():
    u, u_inv = workloads._unimodular(random.Random(3), 6, 40, 3)
    n = len(u)
    product = [[sum(u[i][k] * u_inv[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]
