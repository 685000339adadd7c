"""The repo benchmark: one command per workload, metrics plus output checks.

Usage, from the repository root::

    python3 perfbench/run.py --workload explain-hot --seed 1 --seconds 20 --trace 0

Workloads: ``explain-hot``, ``explain-cold``, ``pipeline-fit`` (the HTTP
service in its own process, loaded by this single-threaded client process)
and ``paper-sweep`` (the paper's ε-sweep grid in its own process).  With
``--trace 0`` the last line of stdout is one JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric.
Each run also writes its record — metrics, run health, check results and,
when traced, the per-request layer table — to
``.perfbench/{run,layers}-<workload>-seed<seed>.json``.  The exit code is 1
when an output check fails and 2 when the program's sources are missing.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
OPEN_SHARE = 0.6  # of --seconds: the latency phase; the rest is throughput
MAX_CONNS = 2  # = nproc of the reference box
TIMEOUT_S = 120.0

# Metric names and units, as BENCHMARK.json declares them.
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}

# The program's processes run on the first allowed CPU and this client on
# the last: on a shared 2-vCPU host, a server spread over both vCPUs
# thrashes its interpreter lock between them and draws more host steal.
_CPUS = sorted(os.sched_getaffinity(0))
PROGRAM_CPUS, CLIENT_CPUS = {_CPUS[0]}, {_CPUS[-1]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # One BLAS thread per process, on the one CPU it is pinned to.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3 if values else 0.0


# --------------------------------------------------------------------------- #
# host readings
# --------------------------------------------------------------------------- #

TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, in seconds (``/proc/<pid>/stat``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICK


def proc_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def host_steal_s() -> float:
    """Host-wide CPU steal so far, in CPU-seconds (``/proc/stat``)."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()
    return int(fields[8]) / TICK if len(fields) > 8 else 0.0


# --------------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------------- #


class Child:
    """A spawned benchmark process speaking lines on stdin/stdout.

    ``ready_s`` runs from the spawn to its ``READY`` line.
    """

    def __init__(self, proc, started: float, ready_line: str):
        self.proc = proc
        self.ready_s = time.perf_counter() - started
        self.ready_line = ready_line

    @classmethod
    async def spawn(cls, script: str, *args: str) -> "Child":
        started = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(BENCH / script), *args,
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=child_env(), cwd=str(ROOT),
            preexec_fn=lambda: os.sched_setaffinity(0, PROGRAM_CPUS),
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), TIMEOUT_S)
        except asyncio.TimeoutError:
            line = b""
        if not line.startswith(b"READY"):
            await cls._stop(proc)
            raise RuntimeError(f"{script} did not start")
        return cls(proc, started, line.decode().strip())

    async def command(self, text: str) -> str:
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()
        reply = await asyncio.wait_for(self.proc.stdout.readline(), TIMEOUT_S)
        return reply.decode().strip()

    async def finish(self) -> None:
        """Close stdin and wait for the process (killed after the timeout)."""
        if not self.proc.stdin.is_closing():
            self.proc.stdin.close()
        await self._stop(self.proc)

    @staticmethod
    async def _stop(proc) -> None:
        try:
            await asyncio.wait_for(proc.wait(), TIMEOUT_S)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()


# A busy loop at the lowest scheduling class, one per CPU, for as long as a
# service run lasts.  Request/response traffic leaves the vCPUs idle between
# messages, and on the shared reference host waking an idle vCPU cost a
# hypervisor reschedule: host steal fell from 0.10-0.34 to under 0.08
# CPU-s/s with the spinners.  They run only when nothing else on their CPU
# wants to (SCHED_IDLE), and exit as soon as their parent is gone.
_SPIN = (
    "import os, sys\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = int(sys.argv[1])\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100_000): pass\n"
)


class IdleSpinners:
    """Keeps every allowed CPU busy at SCHED_IDLE while the block runs."""

    def __enter__(self):
        self.procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(os.getpid())],
                preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}),
            )
            for cpu in _CPUS
        ]
        return self

    def __exit__(self, *exc_info):
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


# --------------------------------------------------------------------------- #
# service workloads
# --------------------------------------------------------------------------- #


class Traffic:
    """Tags every request with a unique trace id and keeps every answer."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = []
        self.n = 0

    def tag(self, body: dict) -> dict:
        self.n += 1
        return {**body, "trace_id": f"bench-{self.n}"}

    def next_body(self) -> dict:
        return self.tag(self.workload.next_body())

    async def measure(self, client, seconds: float, pid: int) -> dict:
        """Latency phase, then the 2-connection closed-loop throughput phase.

        The client's garbage collector is off while it measures, so its own
        pauses do not show up as service latency.
        """
        wl = self.workload
        gc.collect()
        gc.disable()
        cpu0 = proc_cpu_s(pid)
        try:
            if wl.rate:
                n = int(wl.rate * seconds * OPEN_SHARE)
                latency, lateness = await client.open_loop(
                    [self.next_body() for _ in range(n)], wl.rate, MAX_CONNS
                )
            else:
                latency, _ = await client.closed_loop(
                    self.next_body, seconds * OPEN_SHARE, 1
                )
                lateness = []
            throughput, elapsed = await client.closed_loop(
                self.next_body, seconds * (1 - OPEN_SHARE), MAX_CONNS
            )
        finally:
            gc.enable()
        cpu_s = proc_cpu_s(pid) - cpu0
        self.samples += latency + throughput
        ok = [s.latency for s in latency if s.status == 200]
        return {
            "latency_p50_ms": percentile_ms(ok, 50),
            "latency_p90_ms": percentile_ms(ok, 90),
            "throughput_rps": sum(1 for s in throughput if s.status == 200) / elapsed,
            "server_cpu_ms_per_req": cpu_s / (len(latency) + len(throughput)) * 1e3,
            "lateness": lateness,
        }


async def start_server(workload, traffic, data_dir: Path, ledger: Path, trace: bool):
    """Spawn a server and send its first request; returns (server, client, set-up s)."""
    from client import Client

    server = await Child.spawn(
        "server.py", "--data", str(data_dir), "--ledger", str(ledger),
        "--trace", str(int(trace)),
    )
    client = Client("127.0.0.1", int(server.ready_line.split()[1]), workload.path)
    first = await client.post(traffic.tag(workload.first_body()))
    traffic.samples.append(first)
    return server, client, server.ready_s + first.done - first.sent


async def serve_session(workload, data_dir: Path, run_dir: Path, seconds: float,
                        trace: bool) -> dict:
    """Set-ups, warm-up and measured phases against one server, then checks."""
    from workloads import check_service

    pipeline = workload.path == "/v1/pipeline"
    traffic = Traffic(workload)
    setups, errors = [], []
    # Extra set-ups (untraced runs only): each server answers its first
    # request and quits; each answer is checked on its own.
    for k in range(0 if trace else SETUP_REPEATS - 1):
        server, _, setup_s = await start_server(
            workload, traffic, data_dir, run_dir / f"ledger-{k}", False
        )
        setups.append(setup_s)
        await server.command("quit")
        await server.finish()
        errors += check_service(traffic.samples[-1:], None, pipeline)
    checked = len(traffic.samples)

    server, client, setup_s = await start_server(
        workload, traffic, data_dir, run_dir / "ledger", trace
    )
    result = {"setups": setups + [setup_s]}
    try:
        pid = server.proc.pid
        for body in workload.warmup_bodies():
            traffic.samples.append(await client.post(traffic.tag(body)))
        if trace:
            # Bare first, then traced: the two halves give the overhead.
            await server.command("trace off")
            result["bare"] = await traffic.measure(client, seconds / 2, pid)
            before = await client.get_json("/v1/stats")
            await server.command("trace on")
            result["traced"] = await traffic.measure(client, seconds / 2, pid)
            await server.command("trace off")
            after = await client.get_json("/v1/stats")
            result["evictions"] = after["cache"]["evictions"] - before["cache"]["evictions"]
            dump = run_dir / "spans.json"
            await server.command(f"dump {dump}")
            result["dump"] = json.loads(dump.read_text())
        else:
            result["bare"] = await traffic.measure(client, seconds, pid)
        ledgers = {t: await client.get_json(f"/v1/ledger/{t}") for t in workload.tenants}
        result["peak_rss_mb"] = proc_hwm_mb(pid)
        await server.command("quit")
    finally:
        await server.finish()

    result["errors"] = errors + check_service(traffic.samples[checked:], ledgers, pipeline)
    result["attempted"] = len(traffic.samples)
    result["failed"] = sum(1 for s in traffic.samples if s.status != 200)
    served = [s.envelope()["meta"]["cache"] for s in traffic.samples if s.status == 200]
    result["served"] = {k: served.count(k) for k in sorted(set(served))}
    return result


def service_metrics(result: dict) -> dict:
    bare = result["bare"]
    return {
        "latency_p50_ms": bare["latency_p50_ms"],
        "server_cpu_ms_per_req": bare["server_cpu_ms_per_req"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setups"]),
    }


# --------------------------------------------------------------------------- #
# the sweep workload
# --------------------------------------------------------------------------- #


async def sweep_session(seed: int, run_dir: Path, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        child = await Child.spawn("sweep.py", "--seed", str(seed), "--setup-only")
        setups.append(child.ready_s)
        await child.finish()
    dump = run_dir / "spans.json"
    child = await Child.spawn(
        "sweep.py", "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--dump", str(dump),
    )
    setups.append(child.ready_s)
    try:
        line = await asyncio.wait_for(child.proc.stdout.readline(), 3 * TIMEOUT_S)
    finally:
        await child.finish()
    report = json.loads(line)
    grids, cells = report["grids"], report["cells_per_grid"]
    rows_per_grid = cells * report["rows_per_cell"]
    errors = [f"grid seed {g['seed']}: {g['error']}" for g in grids if g["error"]]
    errors += [
        f"grid seed {g['seed']}: {g['rows']} rows, expected {rows_per_grid}"
        for g in grids if not g["error"] and g["rows"] != rows_per_grid
    ]
    if report["repeat_digest"] != grids[0]["digest"]:
        errors.append("paper-sweep rows differ between two runs of the same seed")
    result = {
        "setups": setups,
        "grids": grids,
        "peak_rss_mb": report["peak_rss_mb"],
        "errors": errors,
        "attempted": len(grids) * cells,
        "failed": sum(cells for g in grids if g["error"]),
    }
    if trace:
        result["dump"] = json.loads(dump.read_text())
    return result


def sweep_figures(grids) -> dict:
    """One grid is one unit of work; one trial is one (cell, ε, explainer, run)."""
    ok = [g for g in grids if not g["error"]]
    walls = [g["wall_s"] for g in ok]
    return {
        "latency_p50_ms": percentile_ms(walls, 50),
        "latency_p90_ms": percentile_ms(walls, 90),
        "throughput_rps": statistics.median(g["trials"] / g["wall_s"] for g in ok),
        "server_cpu_ms_per_req": statistics.median(g["cpu_s"] / g["trials"] * 1e3 for g in ok),
    }


def sweep_metrics(result: dict) -> dict:
    figures = sweep_figures([g for g in result["grids"] if g["phase"] == "bare"])
    return {
        "latency_p50_ms": figures["latency_p50_ms"],
        "server_cpu_ms_per_req": figures["server_cpu_ms_per_req"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setups"]),
    }


# --------------------------------------------------------------------------- #
# the command
# --------------------------------------------------------------------------- #

WORKLOADS = ("explain-hot", "explain-cold", "pipeline-fit", "paper-sweep")


def not_gated(figures: dict) -> dict:
    """Printed and recorded, but too noisy on a shared host to gate on
    (see README.md): the latency tail and the closed-loop throughput."""
    return {
        "latency_p90_ms": (figures["latency_p90_ms"], "ms"),
        "throughput_rps": (figures["throughput_rps"], "1/s"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    """Run one workload; returns ``(result, end-to-end or per-layer metrics)``."""
    from layertrace import analyze

    if workload == "paper-sweep":
        result = asyncio.run(sweep_session(seed, run_dir, seconds, trace))
        if not trace:
            result["not_gated"] = not_gated(sweep_figures(result["grids"]))
            return result, sweep_metrics(result)
        bare, traced = (
            sweep_figures([g for g in result["grids"] if g["phase"] == p])
            for p in ("bare", "traced")
        )
    else:
        from workloads import SERVICE_WORKLOADS, write_datasets

        wl = SERVICE_WORKLOADS[workload](seed)
        data_dir = run_dir / "data"
        write_datasets(data_dir, wl.datasets())
        with IdleSpinners():
            result = asyncio.run(serve_session(wl, data_dir, run_dir, seconds, trace))
        if not trace:
            result["not_gated"] = not_gated(result["bare"])
            return result, service_metrics(result)
        bare, traced = result["bare"], result["traced"]
    overhead = traced["latency_p50_ms"] / bare["latency_p50_ms"]
    layers, table = analyze(result.pop("dump"), overhead)
    layers["cache.evictions"] = float(result.get("evictions", 0))
    result["table"] = table
    return result, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_THREADS")})
    os.sched_setaffinity(0, CLIENT_CPUS)

    import numpy

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    steal0, wall0 = host_steal_s(), time.perf_counter()
    try:
        result, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wall = time.perf_counter() - wall0
    lateness = sorted(x for phase in ("bare", "traced")
                      for x in result.get(phase, {}).get("lateness", []))
    health = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "steal_cpu_s_per_s": (host_steal_s() - steal0) / wall,
        "lateness_p50_ms": percentile_ms(lateness, 50),
        "lateness_max_ms": lateness[-1] * 1e3 if lateness else 0.0,
        "wall_s": wall,
    }
    attempted, failed = result["attempted"], result["failed"]
    units = {m: UNITS[m] for m in metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "units": units,
        "not_gated": result.get("not_gated"), "health": health,
        "errors": result["errors"], "attempted": attempted, "failed": failed,
        "served": result.get("served"), "setups_s": result["setups"],
        "layers": result.get("table"),
    }
    name = f"{'layers' if args.trace else 'run'}-{args.workload}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(record, indent=2))

    label = f"{args.workload:13s}"
    for metric, value in metrics.items():
        print(f"{label} {metric:34s} {value:14.6f} {units[metric]}")
    for metric, (value, unit) in result.get("not_gated", {}).items():
        print(f"{label} {metric + ' (not gated)':34s} {value:14.6f} {unit}")
    print(f"{label} {'error_ratio':34s} {failed / attempted:14.6f} "
          f"({failed} of {attempted})")
    if result.get("served"):
        print(f"{label} served {result['served']}")
    if result.get("table"):
        print_table(label, result["table"])
    for key, value in health.items():
        print(f"{label} health.{key} {value}")
    for error in result["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if not result["errors"] else 1


def print_table(label: str, table: dict) -> None:
    print(f"{label} layer table: mean self ms per {table['unit']} over "
          f"{table['units']} (whole {table.get('total_ms', 0):.3f} ms, "
          f"coverage {table.get('coverage', 0):.3f})")
    for layer, ms in sorted(table["layers_ms"].items(), key=lambda kv: -kv[1]):
        print(f"{label}   {layer:28s} {ms:10.4f}")


if __name__ == "__main__":
    sys.exit(main())
