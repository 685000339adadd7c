"""Exact-count self-test of the benchmark's trace harness.

A scripted mini-workload — N unique misses, then M repeats of them — runs
in-process against a worker-less service (every batch drains inline), so
each span count is known in advance and must come out exact.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys

from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layertrace import Tracer, analyze, nest  # noqa: E402

from repro.service import ExplainRequest, ExplanationService  # noqa: E402
from repro.synth import diabetes_like  # noqa: E402

N_UNIQUE = 7
N_REPEAT = 5


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    dataset = diabetes_like(n_rows=2_000, seed=3)
    labels = np.arange(len(dataset)) % 3
    service = ExplanationService(ledger_dir=str(tmp_path_factory.mktemp("ledger")))
    service.register_dataset("d", dataset, labels, 3)
    # Created before tracing: the tenant's first snapshot is fsync'd too.
    service.create_tenant("t", 100.0)
    tracer = Tracer()
    tracer.install("traced")
    try:
        envelopes = [
            service.explain(ExplainRequest("t", "d", seed=s, trace_id=f"u{s}"))
            for s in range(N_UNIQUE)
        ] + [
            service.explain(
                ExplainRequest("t", "d", seed=j % N_UNIQUE, trace_id=f"r{j}")
            )
            for j in range(N_REPEAT)
        ]
    finally:
        tracer.uninstall()
        service.stop()
    return tracer.dump(), envelopes


def test_workload_served_as_scripted(traced):
    _, envelopes = traced
    assert [e["meta"]["cache"] for e in envelopes] == (
        ["miss"] * N_UNIQUE + ["hit"] * N_REPEAT
    )


def test_one_fsync_per_unique_miss(traced):
    dump, _ = traced
    assert sum(1 for name, _, _ in dump["marks"] if name == "os.fsync") == N_UNIQUE


def test_every_unique_seed_goes_through_explain_batched(traced):
    dump, _ = traced
    seeds = [s[4] for s in dump["spans"] if s[0] == "sweeps.explain_batched"]
    assert sum(seeds) == N_UNIQUE


def test_every_request_probes_the_cache_once_from_submit(traced):
    dump, _ = traced
    spans = dump["spans"]
    parent, _ = nest(spans)
    from_submit = [
        i
        for i, s in enumerate(spans)
        if s[0] == "cache.get"
        and parent[i] is not None
        and spans[parent[i]][0] == "admit.submit"
    ]
    assert len(from_submit) == N_UNIQUE + N_REPEAT
    assert sum(1 for i in from_submit if spans[i][4]) == N_REPEAT


def test_each_miss_waits_once_and_rides_one_batch(traced):
    dump, _ = traced
    assert sorted(w[0] for w in dump["waits"]) == sorted(
        f"u{s}" for s in range(N_UNIQUE)
    )
    batches = [s for s in dump["spans"] if s[0] == "queue.batch"]
    assert sorted(t for b in batches for t in b[4]) == sorted(
        f"u{s}" for s in range(N_UNIQUE)
    )


def test_layer_counts(traced):
    dump, _ = traced
    metrics, _ = analyze(dump, overhead=1.0)
    assert metrics["budget.charges"] == N_UNIQUE
    assert metrics["journal.fsyncs"] == N_UNIQUE
    assert metrics["journal.charges_per_fsync"] == 1.0
    assert metrics["cache.puts"] == N_UNIQUE
    assert metrics["sweeps.seeds_per_call"] == 1.0


def test_uninstall_restores_the_originals():
    from repro.service.cache import ExplanationCache
    from repro.service.service import ExplainRequest as Request

    before = (ExplanationCache.__dict__["get"], Request.__dict__["from_json"])
    tracer = Tracer()
    tracer.install("traced")
    tracer.uninstall()
    assert (ExplanationCache.__dict__["get"], Request.__dict__["from_json"]) == before
