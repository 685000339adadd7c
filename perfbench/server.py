"""The benchmark's server process: the in-process service over HTTP.

Built only from the public API — :class:`ExplanationService`,
``register_dataset`` and :func:`repro.service.http.make_server` — with two
worker threads and a journaled ledger directory.  It loads the datasets
the benchmark generated (``datasets.json`` + ``datasets.npz`` in
``--data``), binds an ephemeral loopback port, prints ``READY <port>`` and
then obeys one-line commands on stdin, answering ``ok`` to each:

``trace on`` / ``trace off``
    install / remove the span wrappers of :mod:`layertrace`;
``dump <path>``
    write the recorded spans as JSON;
``quit``
    drain the service and exit.

With ``--trace 1`` the wrappers are installed before the datasets are
registered, so set-up work is traced as phase ``setup``.

Usage: ``python3 perfbench/server.py --data DIR --ledger DIR [--trace 1]``
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from pathlib import Path

import numpy as np

from layertrace import Tracer

WORKERS = 2
TENANT_BUDGET = 1_000_000.0


def load_datasets(data_dir: Path):
    """Yield ``(dataset id, Dataset, labels or None, n_clusters or None)``."""
    from repro.dataset import Dataset, Schema

    meta = json.loads((data_dir / "datasets.json").read_text())
    with np.load(data_dir / "datasets.npz") as arrays:
        for entry in meta:
            name = entry["id"]
            schema = Schema.from_domains(dict(entry["schema"]))
            columns = {a: arrays[f"{name}/{a}"] for a in schema.names}
            labels = arrays[f"{name}/labels"] if entry["n_clusters"] else None
            yield name, Dataset(schema, columns), labels, entry["n_clusters"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--ledger", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install("setup")

    from repro.service import ExplanationService
    from repro.service.http import make_server

    service = ExplanationService(
        ledger_dir=str(args.ledger), auto_tenant_budget=TENANT_BUDGET
    )
    for name, dataset, labels, k in load_datasets(args.data):
        service.register_dataset(name, dataset, labels, k)
    service.start(workers=WORKERS)
    server = make_server(service, port=0)
    serving = threading.Thread(target=server.serve_forever, name="http", daemon=True)
    serving.start()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command == ["trace", "on"]:
                tracer.install("traced")
            elif command == ["trace", "off"]:
                tracer.uninstall()
            elif command[0] == "dump":
                Path(command[1]).write_text(json.dumps(tracer.dump()))
            elif command == ["quit"]:
                break
            print("ok", flush=True)
    finally:
        tracer.uninstall()
        service.stop()
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    print("ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
