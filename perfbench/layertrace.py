"""Outside-in span recording around the program's public calls.

The program itself carries no spans at layer resolution, so the benchmark
records them from its own code: :meth:`Tracer.install` replaces a fixed set
of public functions and methods (see :data:`TARGETS`) with thin wrappers
that time each call, and :meth:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` changes.

A span is ``[name, thread, t0, t1, info, phase]``.  Three kinds of records
follow a request across threads instead of timing one call:

* a **queue wait** runs from ``RequestQueue.put`` of a request to the
  ``take_batch`` that hands it to a worker;
* a **batch** span (``queue.batch``) runs on the worker thread from that
  ``take_batch`` return to the worker's next ``take_batch`` call, which is
  exactly the time the worker spent serving the batch.  Its ``info`` lists
  the trace ids the batch served;
* a **hand-off** runs from the worker resolving a request's future
  (``concurrent.futures.Future.set_result``) to the end of the handler's
  blocked ``ExplanationService.explain`` call: the time the handler thread
  took to resume once its answer was ready.

:func:`analyze` turns a dump into per-layer metrics and a per-request
breakdown whose parts are checked against the HTTP handler's whole time.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import os
import statistics
import threading
import time

from collections import defaultdict

# (module, owner attribute or None for a module-level function, attribute,
#  span name).  Span names are the layer names of the per-layer metrics.
TARGETS = (
    ("repro.service.http", "ExplanationHandler", "do_POST", "http.do_POST"),
    ("repro.service.service", "ExplainRequest", "from_json", "admit.from_json"),
    ("repro.service.service", "PipelineRequest", "from_json", "admit.from_json"),
    ("repro.service.service", "ExplanationService", "submit", "admit.submit"),
    ("repro.service.service", "ExplanationService", "explain", "service.explain"),
    ("repro.service.service", "ExplanationService", "pipeline", "pipeline.route"),
    ("repro.service.cache", "ExplanationCache", "get", "cache.get"),
    ("repro.service.cache", "ExplanationCache", "put", "cache.put"),
    ("repro.pipeline.cache", "FittedClusteringCache", "get", "fitted.get"),
    ("repro.privacy.budget", "PrivacyAccountant", "spend", "budget.spend"),
    ("repro.service.journal", "TenantLedgerStore", "record", "journal.record"),
    ("repro.service.service", None, "explain_batched", "sweeps.explain_batched"),
    ("repro.evaluation.sweeps", None, "select_batched", "sweeps.select_batched"),
    ("repro.core.dpclustx", "DPClustX", "release_histograms", "dpclustx.release"),
    ("repro.service.service", None, "explanation_payload", "payload.encode"),
    ("repro.service.service", None, "canonical_json", "payload.canonical"),
    ("repro.core.engine.engine", "ScoringEngine", "__init__", "engine.build"),
    ("repro.core.engine.engine", "ScoringEngine", "score_matrix", "engine.score"),
    ("repro.core.engine.engine", "ScoringEngine", "sensitive_score_matrix", "engine.score"),
    ("repro.core.engine.engine", "ScoringEngine", "combination_score_tensor", "engine.score"),
    ("repro.core.engine.engine", "ScoringEngine", "multi_combination_score_tensor", "engine.score"),
    ("repro.pipeline.spec", "ClusteringSpec", "fit", "pipeline.fit"),
    ("repro.experiments.common", None, "fit_clustering", "clustering.fit"),
    ("repro.experiments.common", None, "load_dataset", "dataset.generate"),
    ("repro.core.counts", "ClusteredCounts", "__init__", "counts.build"),
    ("repro.core.counts", "ClusteredCounts", "materialise", "counts.build"),
    ("repro.dataset.table", "Dataset", "fingerprint", "dataset.fingerprint"),
    ("repro.evaluation.quality", "QualityEvaluator", "quality_tensor", "quality.tensor"),
    ("repro.evaluation.sweeps", None, "run_grid", "sweep.grid"),
)


def _request_trace_id(args, kwargs, result):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "trace_id", None)


def _explainer_name(args, kwargs, result):
    return type(getattr(args[0], "explainer", args[0])).__name__


# What each span records in ``info`` (computed after the call returns).
INFO = {
    "admit.submit": _request_trace_id,
    "budget.spend": lambda args, kwargs, result: True,
    "cache.get": lambda args, kwargs, result: result is not None,
    "fitted.get": lambda args, kwargs, result: result is not None,
    "sweeps.explain_batched": lambda args, kwargs, result: len(args[2]),
    "sweeps.select_batched": _explainer_name,
    "counts.build": lambda args, kwargs, result: id(args[0]),
    "dataset.fingerprint": lambda args, kwargs, result: id(args[0]),
}


class Tracer:
    """Records spans while installed; ``phase`` tags every record."""

    def __init__(self):
        self.spans: list[list] = []
        self.waits: list[list] = []
        self.marks: list[list] = []
        self.resolves: list[list] = []
        self.phase = "setup"
        self._put_times: dict[int, tuple[float, str]] = {}
        self._open_batch: dict[int, list] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------ #

    def install(self, phase: str) -> None:
        self.phase = phase
        if self._saved:
            return
        for module_name, owner_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self._patch(owner, attr, self._span_wrapper(name, INFO.get(name)))
        from repro.service.queue import RequestQueue

        self._patch(RequestQueue, "put", self._put_wrapper)
        self._patch(RequestQueue, "take_batch", self._take_wrapper)
        self._patch(os, "fsync", self._mark_wrapper("os.fsync"))
        self._patch(concurrent.futures.Future, "set_result", self._resolve_wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    # -- wrappers ---------------------------------------------------------- #

    def _span_wrapper(self, name: str, info_of):
        record = self.spans.append
        clock = time.perf_counter
        ident = threading.get_ident

        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                t0 = clock()
                returned = False
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                    return result
                finally:
                    t1 = clock()
                    info = None
                    if info_of is not None and returned:
                        info = info_of(args, kwargs, result)
                    record([name, ident(), t0, t1, info, self.phase])

            return wrapped

        return make

    def _mark_wrapper(self, name: str):
        record = self.marks.append

        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                record([name, time.perf_counter(), self.phase])
                return fn(*args, **kwargs)

            return wrapped

        return make

    def _resolve_wrapper(self, fn):
        record = self.resolves.append

        @functools.wraps(fn)
        def set_result(future, result):
            meta = result.get("meta") or result.get("error") if isinstance(result, dict) else None
            trace_id = meta.get("trace_id") if isinstance(meta, dict) else None
            record([trace_id, threading.get_ident(), time.perf_counter(), self.phase])
            return fn(future, result)

        return set_result

    def _put_wrapper(self, fn):
        put_times = self._put_times

        @functools.wraps(fn)
        def put(queue, key, item):
            # Stamped before the put: a worker may take the item at once.
            request = getattr(item, "request", None)
            put_times[id(item)] = (
                time.perf_counter(),
                getattr(request, "trace_id", ""),
            )
            return fn(queue, key, item)

        return put

    def _take_wrapper(self, fn):
        @functools.wraps(fn)
        def take_batch(queue, *args, **kwargs):
            thread = threading.get_ident()
            entered = time.perf_counter()
            # The previous batch on this worker ends where the next take begins.
            batch_span = self._open_batch.pop(thread, None)
            if batch_span is not None:
                batch_span[3] = entered
            batch = fn(queue, *args, **kwargs)
            if batch:
                taken = time.perf_counter()
                trace_ids = []
                for item in batch:
                    put_at, trace_id = self._put_times.pop(id(item), (None, ""))
                    trace_ids.append(trace_id)
                    if put_at is not None:
                        self.waits.append([trace_id, put_at, taken, self.phase])
                batch_span = ["queue.batch", thread, taken, None, trace_ids, self.phase]
                self.spans.append(batch_span)
                self._open_batch[thread] = batch_span
            return batch

        return take_batch

    def dump(self) -> dict:
        spans = [s for s in self.spans if s[3] is not None]
        return {"spans": spans, "waits": list(self.waits), "marks": list(self.marks),
                "resolves": list(self.resolves)}


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #

# Span name -> the layer its self time is booked to in the breakdown.
LAYER_OF = {
    "http.do_POST": "http.self",
    "admit.from_json": "admit.submit",
    "admit.submit": "admit.submit",
    "pipeline.route": "pipeline.self",
    "payload.canonical": "payload.encode",
    "queue.batch": "batch.self",
    "sweep.grid": "sweep.self",
}

# Explainer class -> its name in the paper's figures (metric suffix).
EXPLAINER_METRIC = {
    "DPClustX": "DPClustX",
    "TabEE": "TabEE",
    "DPTabEE": "DP-TabEE",
    "DPNaive": "DP-Naive",
}


def _merge(intervals):
    """Sorted, disjoint union of ``(a, b)`` intervals."""
    merged = []
    for a, b in sorted((a, b) for a, b in intervals):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return merged


def _length(merged) -> float:
    return sum(b - a for a, b in merged)


def _intersect(xs, ys):
    """Intersection of two merged interval lists."""
    out, i, j = [], 0, 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if a < b:
            out.append([a, b])
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def nest(spans):
    """Parent index and self time of every span, nesting per thread.

    Calls on one thread nest properly, so a stack sweep in start order
    finds each span's innermost enclosing span.  Self time is the span's
    duration minus its direct children's durations.
    """
    parent = [None] * len(spans)
    self_time = [s[3] - s[2] for s in spans]
    by_thread = defaultdict(list)
    for i, s in enumerate(spans):
        by_thread[s[1]].append(i)
    for idx in by_thread.values():
        idx.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        stack = []
        for i in idx:
            while stack and spans[stack[-1]][3] <= spans[i][2]:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                self_time[stack[-1]] -= spans[i][3] - spans[i][2]
            stack.append(i)
    return parent, self_time


def _root_of(parent):
    roots = list(range(len(parent)))
    for i in range(len(parent)):
        r = i
        while parent[r] is not None:
            r = parent[r]
        roots[i] = r
    return roots


def request_breakdown(spans, waits, resolves, parent, self_time):
    """Per traced HTTP request: layer self times and trace coverage.

    ``service.explain`` only blocks on the request's future, so its own
    self time is not a layer: that wait is covered by the request's queue
    wait and the worker batch that served it.  Coverage is the share of
    ``do_POST`` time covered by the handler's layer spans plus those
    cross-thread records (clipped to the blocking interval).
    """
    roots = _root_of(parent)
    members = defaultdict(list)
    for i, r in enumerate(roots):
        members[r].append(i)
    batches_of = defaultdict(list)
    for i, s in enumerate(spans):
        if s[0] == "queue.batch":
            for trace_id in s[4]:
                batches_of[trace_id].append(i)
    waits_of = defaultdict(list)
    for trace_id, t0, t1, _ in waits:
        waits_of[trace_id].append((t0, t1))
    resolved_at = {trace_id: (thread, t) for trace_id, thread, t, _ in resolves}

    rows = []
    for r, idx in members.items():
        root = spans[r]
        if root[0] != "http.do_POST" or root[5] != "traced":
            continue
        trace_id = next(
            (spans[i][4] for i in idx if spans[i][0] == "admit.submit" and spans[i][4]),
            None,
        )
        if trace_id is None:
            continue
        layers = defaultdict(float)
        blocking = _merge(
            (spans[i][2], spans[i][3]) for i in idx if spans[i][0] == "service.explain"
        )
        cross = [(spans[i][2], spans[i][3]) for i in idx if spans[i][0] == "admit.submit"]
        for i in idx:
            if spans[i][0] != "service.explain":
                name = spans[i][0]
                layers[LAYER_OF.get(name, name)] += self_time[i]
        wait_iv = _merge(waits_of.get(trace_id, ()))
        layers["queue.wait"] += _length(_intersect(wait_iv, blocking))
        cross.extend(wait_iv)
        for b in batches_of.get(trace_id, ()):
            cross.append((spans[b][2], spans[b][3]))
            for j in members[b]:
                name = spans[j][0]
                layers[LAYER_OF.get(name, name)] += self_time[j]
        thread, t = resolved_at.get(trace_id, (root[1], None))
        if thread != root[1]:
            handoff = _intersect(_merge([(t, blocking[-1][1])]), blocking) if blocking else []
            layers["handoff.wake"] += _length(handoff)
            cross.extend(handoff)
        total = root[3] - root[2]
        covered = total - _length(blocking) + _length(
            _intersect(_merge(cross), blocking)
        )
        rows.append({"trace_id": trace_id, "total": total, "covered": covered,
                     "layers": dict(layers)})
    return rows


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def analyze(dump: dict, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, plus the breakdown table.

    Times are medians of per-call self time in ms unless the metric's doc
    says otherwise; counts are totals over the traced phase.
    """
    spans = dump["spans"]
    parent, self_time = nest(spans)
    traced = [i for i, s in enumerate(spans) if s[5] == "traced"]

    def selfs(name, phases=("traced",)):
        return [self_time[i] for i, s in enumerate(spans) if s[0] == name and s[5] in phases]

    def infos(name):
        return [spans[i][4] for i in traced if spans[i][0] == name]

    waits = [w for w in dump["waits"] if w[3] == "traced"]
    resolves = [r for r in dump.get("resolves", ()) if r[3] == "traced"]
    rows = request_breakdown(spans, waits, resolves, parent, self_time)

    m: dict[str, float] = {}
    m["http.self_ms"] = _median_ms([r["layers"].get("http.self", 0.0) for r in rows])
    m["admit.submit_ms"] = _median_ms([r["layers"].get("admit.submit", 0.0) for r in rows])
    gets = infos("cache.get")
    m["cache.get_ms"] = _median_ms(selfs("cache.get"))
    m["cache.gets"] = float(len(gets))
    m["cache.hit_ratio"] = sum(1 for g in gets if g) / len(gets) if gets else 0.0
    m["cache.puts"] = float(len(selfs("cache.put")))
    m["queue.wait_ms"] = _median_ms([t1 - t0 for _, t0, t1, _ in waits])
    m["handoff.wake_ms"] = _median_ms(
        [r["layers"]["handoff.wake"] for r in rows if "handoff.wake" in r["layers"]]
    )
    batches = [s for s in (spans[i] for i in traced) if s[0] == "queue.batch"]
    m["queue.batch_size"] = (
        statistics.fmean(len(b[4]) for b in batches) if batches else 0.0
    )
    m["batch.self_ms"] = _median_ms(selfs("queue.batch"))
    m["budget.spend_ms"] = _median_ms(selfs("budget.spend"))
    m["budget.charges"] = float(sum(1 for ok in infos("budget.spend") if ok))
    m["journal.record_ms"] = _median_ms(selfs("journal.record"))
    fsyncs = sum(1 for name, _, phase in dump["marks"] if name == "os.fsync" and phase == "traced")
    m["journal.fsyncs"] = float(fsyncs)
    m["journal.charges_per_fsync"] = m["budget.charges"] / fsyncs if fsyncs else 0.0
    m["sweeps.explain_batched_ms"] = _median_ms(selfs("sweeps.explain_batched"))
    m["sweeps.select_batched_ms"] = _median_ms(selfs("sweeps.select_batched"))
    seeds = infos("sweeps.explain_batched")
    m["sweeps.seeds_per_call"] = statistics.fmean(seeds) if seeds else 0.0
    m["dpclustx.release_ms"] = _median_ms(selfs("dpclustx.release"))
    n_payloads = len(selfs("payload.encode"))
    m["payload.encode_ms"] = (
        (sum(selfs("payload.encode")) + sum(selfs("payload.canonical"))) / n_payloads * 1e3
        if n_payloads
        else 0.0
    )
    m["engine.builds"] = float(len(selfs("engine.build")))
    m["engine.build_ms"] = _median_ms(selfs("engine.build", ("setup", "traced")))
    m["engine.score_ms"] = _median_ms(selfs("engine.score"))
    m["pipeline.self_ms"] = _median_ms(selfs("pipeline.route"))
    m["pipeline.fit_ms"] = _median_ms(selfs("pipeline.fit"))
    m["pipeline.fits"] = float(len(selfs("pipeline.fit")))
    fitted = infos("fitted.get")
    m["fitted.gets"] = float(len(fitted))
    m["fitted.hit_ratio"] = sum(1 for f in fitted if f) / len(fitted) if fitted else 0.0
    m["clustering.fit_ms"] = _median_ms(selfs("clustering.fit"))
    m["counts.build_ms"] = _per_object_median_ms(spans, self_time, "counts.build")
    m["dataset.fingerprint_ms"] = _per_object_median_ms(
        spans, self_time, "dataset.fingerprint"
    )
    m["quality.tensor_ms"] = _median_ms(selfs("quality.tensor"))
    by_explainer = defaultdict(list)
    for i in traced:
        if spans[i][0] == "sweeps.select_batched":
            by_explainer[spans[i][4]].append(self_time[i])
    for cls, label in EXPLAINER_METRIC.items():
        m[f"baselines.select_ms.{label}"] = _median_ms(by_explainer.get(cls, []))

    grids = [i for i in traced if spans[i][0] == "sweep.grid"]
    if rows:
        total = sum(r["total"] for r in rows)
        m["trace.coverage"] = sum(r["covered"] for r in rows) / total
    elif grids:
        total = sum(spans[i][3] - spans[i][2] for i in grids)
        m["trace.coverage"] = 1.0 - sum(self_time[i] for i in grids) / total
    else:
        m["trace.coverage"] = 0.0
    m["trace.overhead"] = overhead
    return m, breakdown_table(rows, spans, parent, self_time, grids)


def _per_object_median_ms(spans, self_time, name) -> float:
    """Median over objects of the summed self time of their ``name`` calls."""
    per_object = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == name and s[5] in ("setup", "traced") and s[4] is not None:
            per_object[s[4]] += self_time[i]
    return _median_ms(list(per_object.values()))


def breakdown_table(rows, spans, parent, self_time, grids) -> dict:
    """Mean self ms per request (or per grid) by layer, with coverage."""
    if rows:
        n = len(rows)
        layers = defaultdict(float)
        for r in rows:
            for layer, t in r["layers"].items():
                layers[layer] += t
        total = sum(r["total"] for r in rows)
        coverages = sorted(r["covered"] / r["total"] for r in rows if r["total"] > 0)
        # The slowest tenth of requests, to show which layer makes the tail.
        tail = sorted(rows, key=lambda r: r["total"])[-max(1, n // 10):]
        tail_layers = defaultdict(float)
        for r in tail:
            for layer, t in r["layers"].items():
                tail_layers[layer] += t
        return {
            "unit": "request",
            "units": n,
            "total_ms": total / n * 1e3,
            "coverage": sum(r["covered"] for r in rows) / total,
            "coverage_p10": coverages[len(coverages) // 10] if coverages else 0.0,
            "layers_ms": {k: v / n * 1e3 for k, v in sorted(layers.items())},
            "slowest_tenth_total_ms": sum(r["total"] for r in tail) / len(tail) * 1e3,
            "slowest_tenth_layers_ms": {
                k: v / len(tail) * 1e3 for k, v in sorted(tail_layers.items())
            },
        }
    if grids:
        roots = _root_of(parent)
        grid_set = set(grids)
        layers = defaultdict(float)
        for i, s in enumerate(spans):
            if roots[i] in grid_set:
                layers[LAYER_OF.get(s[0], s[0])] += self_time[i]
        total = sum(spans[i][3] - spans[i][2] for i in grids)
        n = len(grids)
        return {
            "unit": "grid",
            "units": n,
            "total_ms": total / n * 1e3,
            "coverage": 1.0 - layers["sweep.self"] / total,
            "layers_ms": {k: v / n * 1e3 for k, v in sorted(layers.items())},
        }
    return {"unit": "none", "units": 0, "layers_ms": {}}
