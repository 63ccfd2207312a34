"""specflow benchmark: one workload, checked outputs, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of
several fresh-interpreter set-up probes, the rest come from one measured
run in its own fresh process.  ``--trace 1`` prints the per-layer metrics
of a traced run and the tracing slowdown.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
WORKLOADS = ("certify-mix", "oracle-grid", "components-k8", "dense-sampled")
# One BLAS thread: within the 2-CPU limit, and the steadiest choice on a
# machine shared with other jobs.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 7
IMPORT_PROBES = 3
# A run must end within 180 s; the worker gets what is left of this.
RUN_DEADLINE_S = 170.0
# Seconds one round takes on the reference machine (see README).  A run
# does round(--seconds / this) whole rounds: a fixed amount of work, so that
# item counts, the failed share and memory that grows with the number of
# items do not depend on how fast the machine happens to be.
NOMINAL_ROUND_S = {
    "certify-mix": 0.95,
    "oracle-grid": 1.35,
    "components-k8": 0.4,
    "dense-sampled": 23.0,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "eigensolves_per_item": "count",
    "peak_rss_mib": "MiB",
}
IMPORT_LAYERS = {
    "cli.import_s": "total",
    "cli.import_numpy_s": "numpy",
    "cli.import_jsonschema_s": "jsonschema",
    "cli.import_specflow_s": "specflow",
}


class BenchError(RuntimeError):
    """A probe or the worker failed; the run prints no result."""


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARIABLES:
        env[var] = str(BLAS_THREADS)
    env.pop("SPECFLOW_LOG", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and parse its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting the worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the run deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args) -> tuple[list[dict], dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    rounds = ["--rounds", str(max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload])))]
    scratch = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            probes = [
                call_worker(["probe", *common, "--split-imports"], deadline)
                for _ in range(IMPORT_PROBES)
            ]
            spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"
            run = call_worker(
                ["run", *common, *rounds, "--trace", "1",
                 "--scratch", str(scratch), "--spans", str(spans)],
                deadline,
            )
        else:
            probes = [call_worker(["probe", *common], deadline) for _ in range(SETUP_PROBES)]
            run = call_worker(
                ["run", *common, *rounds, "--trace", "0", "--scratch", str(scratch)],
                deadline,
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return probes, run


def report(args, probes: list[dict], run: dict) -> dict:
    if args.trace:
        units = layer_units()
        values = dict(run["layers"])
        for name, key in IMPORT_LAYERS.items():
            values[name] = statistics.median(p["imports"][key] for p in probes)
        missing = set(units) - set(values)
        if missing:
            raise BenchError(f"per-layer metrics not measured: {sorted(missing)}")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "items_per_s": run["items_per_s"],
            "item_p50_ms": run["latency"]["p50_ms"],
            "eigensolves_per_item": run["eigensolves_per_item"],
            "peak_rss_mib": run["peak_rss_mib"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return {
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def print_human(args, probes: list[dict], run: dict, result: dict) -> None:
    print(
        f"specflow benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} blas_threads={BLAS_THREADS} python={sys.version.split()[0]}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    lat = run["latency"]
    tail = lat.get("tail")
    tail_text = f", p{tail['percentile']:g} {tail['ms']:.4g} ms" if tail else ""
    print(f"  item latency: p50 {lat['p50_ms']:.4g} ms{tail_text} over {lat['samples']} items")
    if args.trace:
        plain = run["untraced"]
        print(
            f"  tracing overhead: {run['layers']['trace.slowdown']:.3f}x "
            f"({run['timed_s']:.3f} s traced vs {plain['timed_s']:.3f} s untraced, "
            f"{run['rounds']} identical rounds, {run['spans']} spans)"
        )
    else:
        probe_text = ", ".join(f"{p['setup_s']:.4f}" for p in probes)
        print(f"  setup probes: {probe_text} s")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  rounds {run['rounds']}")
    for key, count in sorted(run["failures"].items()):
        print(f"  failed item {key} x{count}")
    for err in run["errors"]:
        print(f"  CHECK FAILED {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "specflow" / "__init__.py").is_file():
        print(f"bench: no specflow source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        probes, run = measure(args)
        result = report(args, probes, run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print_human(args, probes, run, result)
    detail = {"args": vars(args), "blas_threads": BLAS_THREADS, "probes": probes, "run": run}
    target = RESULTS / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
