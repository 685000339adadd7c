"""The service workloads: inputs made from the seed, and the output checks.

Every input — datasets, clusterings, tenants, release seeds and the order
of requests — is drawn from ``numpy.random.default_rng([seed, k])``, so a
seed names one set of inputs.  The server receives only the generated
datasets and requests.
"""

from __future__ import annotations

import json

from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

# The explanation configurations (distinct engine keys per dataset).
CONFIGS = (
    {"n_candidates": 3, "weights": [1 / 3, 1 / 3, 1 / 3]},
    {"n_candidates": 4, "weights": [0.5, 0.25, 0.25]},
    {"n_candidates": 2, "weights": [0.2, 0.4, 0.4]},
)
SEED_SPACE = 2**31


class UniqueSeeds:
    """Distinct seeds in a seeded order: ``(a + i * b) mod 2^31``, ``b`` odd."""

    def __init__(self, rng: np.random.Generator):
        self.a = int(rng.integers(SEED_SPACE))
        self.b = int(rng.integers(SEED_SPACE // 2)) * 2 + 1
        self.i = 0

    def __call__(self) -> int:
        self.i += 1
        return (self.a + self.i * self.b) % SEED_SPACE


def clustered_datasets(seed: int):
    """Diabetes-like 20k x 47 and Census-like 30k x 68, each k-means k=5."""
    from repro import KMeans, census_like, diabetes_like

    out = []
    for name, make, rows in (
        ("diabetes", diabetes_like, 20_000),
        ("census", census_like, 30_000),
    ):
        dataset = make(n_rows=rows, seed=[seed, len(out)])
        labels = KMeans(5).fit(dataset, rng=seed).assign(dataset)
        out.append((name, dataset, labels, 5))
    return out


def write_datasets(data_dir: Path, datasets) -> None:
    """``datasets.json`` (schemas) + ``datasets.npz`` (codes and labels)."""
    meta, arrays = [], {}
    for name, dataset, labels, k in datasets:
        meta.append({
            "id": name,
            "schema": [[a.name, list(a.domain)] for a in dataset.schema],
            "n_clusters": k,
        })
        for a in dataset.schema.names:
            arrays[f"{name}/{a}"] = np.asarray(dataset.column(a))
        if labels is not None:
            arrays[f"{name}/labels"] = np.asarray(labels)
    data_dir.mkdir(parents=True, exist_ok=True)
    (data_dir / "datasets.json").write_text(json.dumps(meta))
    np.savez(data_dir / "datasets.npz", **arrays)


class ExplainHot:
    """Zipf-skewed (tenant, release) over 80 releases: hits after warm-up."""

    name = "explain-hot"
    path = "/v1/explain"
    rate = 150.0
    tenants = tuple(f"hot-{i}" for i in range(4))

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        seeds = UniqueSeeds(rng)
        self.releases = [(ds, seeds()) for ds in ("diabetes", "census") for _ in range(40)]
        keys = [(t, r) for t in self.tenants for r in range(len(self.releases))]
        order = rng.permutation(len(keys))
        self.keys = [keys[i] for i in order]
        weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
        self.weights = weights / weights.sum()
        self.rng = rng
        self.drawn: list[int] = []

    def datasets(self):
        return clustered_datasets(self.seed)

    def _body(self, tenant, release) -> dict:
        dataset, seed = self.releases[release]
        return {"tenant": tenant, "dataset": dataset, "seed": seed, **CONFIGS[0]}

    def first_body(self) -> dict:
        return self._body(self.tenants[0], 0)

    def warmup_bodies(self):
        return [self._body(self.tenants[r % 4], r) for r in range(1, len(self.releases))]

    def next_body(self) -> dict:
        if not self.drawn:
            self.drawn = list(self.rng.choice(len(self.keys), size=4096, p=self.weights))
        return self._body(*self.keys[self.drawn.pop()])


class ExplainCold:
    """Every request a new release over 2 datasets x 3 configurations."""

    name = "explain-cold"
    path = "/v1/explain"
    rate = 40.0
    tenants = tuple(f"cold-{i}" for i in range(4))

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 2])
        self.seeds = UniqueSeeds(self.rng)

    def datasets(self):
        return clustered_datasets(self.seed)

    def _body(self, tenant, dataset, config) -> dict:
        return {"tenant": tenant, "dataset": dataset, "seed": self.seeds(), **config}

    def first_body(self) -> dict:
        return self._body(self.tenants[0], "diabetes", CONFIGS[0])

    def warmup_bodies(self):
        # One miss per engine key, so no measured request pays a cold build.
        return [
            self._body(self.tenants[i % 4], ds, c)
            for i, (ds, c) in enumerate(
                (ds, c) for ds in ("diabetes", "census") for c in CONFIGS
            )
        ]

    def next_body(self) -> dict:
        tenant = self.tenants[int(self.rng.integers(len(self.tenants)))]
        dataset = ("diabetes", "census")[int(self.rng.integers(2))]
        config = CONFIGS[int(self.rng.integers(len(CONFIGS)))]
        return self._body(tenant, dataset, config)


class PipelineFit:
    """DP fit + explain on a labels-free base; 1 caller waits per fit.

    Each block of ten requests holds, in seeded order, five new dp-kmeans
    specs, three new dp-kmodes specs and two repeats of one of the last
    eight new specs with a new explain seed (fitted-cache hits).
    """

    name = "pipeline-fit"
    path = "/v1/pipeline"
    rate = None
    tenants = ("pipe-0", "pipe-1")
    BLOCK = ("dp-kmeans",) * 5 + ("dp-kmodes",) * 3 + ("repeat",) * 2

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 3])
        self.seeds = UniqueSeeds(self.rng)
        self.block: list[str] = []
        self.recent: list[dict] = []

    def datasets(self):
        from repro import diabetes_like

        return [("base", diabetes_like(n_rows=20_000, seed=[self.seed, 9]), None, None)]

    def _new(self, method: str) -> dict:
        spec = {
            "method": method,
            "n_clusters": int(self.rng.choice((3, 4, 5, 6))),
            "clustering_seed": self.seeds(),
        }
        self.recent = (self.recent + [spec])[-8:]
        return spec

    def _body(self, spec: dict) -> dict:
        tenant = self.tenants[int(self.rng.integers(len(self.tenants)))]
        return {"tenant": tenant, "dataset": "base", "seed": self.seeds(), **spec}

    def first_body(self) -> dict:
        return self._body(self._new("dp-kmeans"))

    def warmup_bodies(self):
        return [self._body(self._new(m)) for m in ("dp-kmodes", "dp-kmeans")]

    def next_body(self) -> dict:
        if not self.block:
            self.block = [self.BLOCK[i] for i in self.rng.permutation(len(self.BLOCK))]
        kind = self.block.pop()
        if kind == "repeat":
            spec = self.recent[int(self.rng.integers(len(self.recent)))]
        else:
            spec = self._new(kind)
        return self._body(spec)


SERVICE_WORKLOADS = {w.name: w for w in (ExplainHot, ExplainCold, PipelineFit)}


# --------------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------------- #

GRID = 10**9  # the ledger's nano-epsilon accounting grid


def units(epsilon: float) -> int:
    return round(Fraction(epsilon) * GRID)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _shape_errors(body: dict, env: dict, pipeline: bool) -> list[str]:
    meta, result = env.get("meta") or {}, env.get("result") or {}
    trace_id = body.get("trace_id")
    want_weights = [float(w) for w in body.get("weights", CONFIGS[0]["weights"])]
    k = body.get("n_candidates", 3)
    problems = []
    if env.get("status") != "ok" or env.get("code") != 200:
        problems.append("status")
    if meta.get("trace_id") != trace_id or meta.get("tenant") != body["tenant"]:
        problems.append("meta")
    if meta.get("cache") not in ("hit", "miss", "coalesced"):
        problems.append("cache status")
    if (result.get("seed"), result.get("n_candidates"), result.get("weights")) != (
        body["seed"], k, want_weights
    ):
        problems.append("result parameters")
    eps = result.get("epsilon") or {}
    if eps.get("total") != eps.get("cand_set", 0) + eps.get("top_comb", 0) + eps.get("hist", 0):
        problems.append("epsilon")
    combination = result.get("combination") or []
    clusters = result.get("clusters") or []
    n_clusters = body.get("n_clusters", 5)
    if not len(combination) == len(clusters) == n_clusters:
        problems.append("combination")
    for c in clusters:
        n = len(c.get("domain") or ())
        if not n or len(c["hist_cluster"]) != n or len(c["hist_rest"]) != n:
            problems.append("histogram")
            break
        if c["attribute"] != combination[c["cluster"]]:
            problems.append("cluster attribute")
            break
    if pipeline:
        pipe = env.get("pipeline") or {}
        spec = pipe.get("clustering") or {}
        if spec.get("method") != body["method"] or spec.get("seed") != body["clustering_seed"]:
            problems.append("pipeline block")
    return [f"{trace_id}: {p}" for p in problems]


def check_service(samples, ledgers: "dict | None", pipeline: bool) -> list[str]:
    """Every check on the answered requests of one server; returns errors.

    * each 200 envelope has the right shape and echoes its request;
    * all answers for one release identity carry the same result bytes,
      exactly one of them (the miss) charged, the rest (hits) free;
    * a fitted-cache hit charges 0, the one fit of a spec charges its ε;
    * each tenant ledger's spent equals, on the nano-ε grid, the sum of
      the charges its answers reported (skipped when ``ledgers`` is None).
    """
    errors: list[str] = []
    releases = defaultdict(list)
    fits = defaultdict(list)
    expected = defaultdict(int)
    for s in samples:
        if s.status != 200:
            continue
        env = s.envelope()
        errors += _shape_errors(s.body, env, pipeline)
        meta, result = env["meta"], env["result"]
        charged = meta["charged_epsilon"]
        release = (meta["dataset"], result["seed"], canonical(result["epsilon"]),
                   result["n_candidates"], tuple(result["weights"]))
        releases[release].append((canonical(result), meta["cache"], charged))
        ledger = (meta["tenant"], s.body["dataset"])
        if charged:
            expected[ledger] += units(charged)
        if pipeline:
            pipe = env["pipeline"]
            spec = canonical(pipe["clustering"])
            fits[spec].append((pipe["clustering_cache"], pipe["charged_clustering_epsilon"],
                               pipe["clustering"]["epsilon"]))
            if pipe["charged_clustering_epsilon"]:
                expected[ledger] += units(pipe["charged_clustering_epsilon"])
    for release, answers in releases.items():
        if len({a[0] for a in answers}) != 1:
            errors.append(f"release {release[:2]}: result bytes differ between answers")
        charged = [a for a in answers if a[2]]
        if len(charged) != 1 or charged[0][1] != "miss":
            errors.append(f"release {release[:2]}: {len(charged)} charged answers")
        if any(a[1] == "miss" for a in answers if not a[2]):
            errors.append(f"release {release[:2]}: an uncharged miss")
    for spec, answers in fits.items():
        misses = [a for a in answers if a[0] == "miss"]
        if len(misses) != 1 or misses[0][1] != misses[0][2]:
            errors.append(f"spec {spec}: {len(misses)} fits")
        if any(a[1] != 0 for a in answers if a[0] == "hit"):
            errors.append(f"spec {spec}: a fitted-cache hit was charged")
    if ledgers is None:
        return errors
    observed = {
        (tenant, ds): units(entry["spent"])
        for tenant, body in ledgers.items()
        for ds, entry in body["ledgers"].items()
    }
    for ledger in set(expected) | set(observed):
        if expected.get(ledger, 0) != observed.get(ledger, 0):
            errors.append(
                f"ledger {ledger}: spent {observed.get(ledger, 0)} units, "
                f"answers charged {expected.get(ledger, 0)}"
            )
    return errors
