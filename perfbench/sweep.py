"""The benchmark's sweep process: the paper's ε-sweep grid (Figs. 5-6).

Runs :func:`repro.evaluation.sweeps.run_grid` in-process (``processes=1``)
with all four explainers, the full ε grid and ``n_runs=10`` over the three
synthetic datasets with k-means and DP-k-means.  Each measured grid uses a
new ``ExperimentConfig.seed`` derived from the workload seed, so every grid
regenerates its data and refits its clusterings, as a fresh sweep does.

Protocol on stdout: ``READY`` once the first unit of work — the grid's
first (dataset, method) cell — has completed, then, unless
``--setup-only``, one JSON line with every measured grid and the check
results.

Usage: ``python3 perfbench/sweep.py --seed N --seconds S [--trace 1]``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from dataclasses import replace
from pathlib import Path

from layertrace import Tracer

METHODS = ("k-means", "DP-k-means")
EXPLAINERS = ("DPClustX", "TabEE", "DP-TabEE", "DP-Naive")


def config(seed: int):
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(methods=METHODS, n_runs=10, seed=seed)


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def vm_hwm_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dump", type=Path)
    args = parser.parse_args(argv)

    from repro.evaluation import sweeps
    from repro.experiments.common import DEFAULT_EPS_GRID

    first = replace(
        config(args.seed * 1000 + 999), datasets=("Diabetes",), methods=METHODS[:1]
    )
    sweeps.run_grid(first, explainers=EXPLAINERS, processes=1)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    grids = []
    # With tracing, the first half runs bare and the second half traced, so
    # the two halves give the tracing overhead.
    phases = [("bare", args.seconds / 2), ("traced", args.seconds / 2)] if args.trace \
        else [("bare", args.seconds)]
    rep = 0
    for phase, seconds in phases:
        if phase == "traced":
            tracer.install("traced")
        end = time.perf_counter() + seconds
        last, done = 0.0, 0
        while done < 2 or time.perf_counter() + last <= end:
            cfg = config(args.seed * 1000 + rep)
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                rows = sweeps.run_grid(cfg, explainers=EXPLAINERS, processes=1)
                error = None
            except Exception as exc:  # noqa: BLE001 - counted as failed cells
                rows, error = [], type(exc).__name__
            last = time.perf_counter() - t0
            grids.append({
                "seed": cfg.seed, "phase": phase, "wall_s": last,
                "cpu_s": time.process_time() - cpu0, "rows": len(rows),
                "trials": len(rows) * cfg.n_runs, "digest": digest(rows),
                "error": error,
            })
            rep += 1
            done += 1
    tracer.uninstall()
    peak = vm_hwm_mb()
    if args.dump is not None:
        args.dump.write_text(json.dumps(tracer.dump()))
    # Determinism: the first grid's seed, run again, gives the same rows.
    again = sweeps.run_grid(config(grids[0]["seed"]), explainers=EXPLAINERS, processes=1)
    print(json.dumps({
        "grids": grids,
        "cells_per_grid": len(config(0).datasets) * len(METHODS),
        "rows_per_cell": len(DEFAULT_EPS_GRID) * len(EXPLAINERS),
        "peak_rss_mb": peak,
        "repeat_digest": digest(again),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
