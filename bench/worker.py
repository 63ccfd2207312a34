"""One benchmark process: a set-up probe or a measured run of one workload.

``run.py`` starts this file in a fresh interpreter; it is not imported.

* ``probe`` times what a user pays before the first item: the import of
  ``specflow.cli`` and the program constructors the workload calls before
  it.  With ``--split-imports`` it times numpy, jsonschema and the rest of
  ``specflow.cli`` one after the other.
* ``run`` measures ``--rounds`` whole rounds of the workload.  With
  ``--trace 1`` it first runs a third of them untraced, then the same
  number with spans on, and reports per-layer metrics and the tracing
  slowdown of the identical traced rounds.

The last line of standard output is one JSON object for ``run.py``.
"""

import os
import sys
from time import perf_counter

_START = perf_counter()
_BENCH = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_BENCH), "src")
sys.path.insert(0, _SRC)


def _import_program() -> dict:
    """Import ``specflow.cli`` first thing, so that its cost is measured whole."""
    marks = {}
    t = perf_counter()
    if "--split-imports" in sys.argv:
        import numpy  # noqa: F401

        marks["numpy"] = perf_counter() - t
        t = perf_counter()
        import jsonschema  # noqa: F401

        marks["jsonschema"] = perf_counter() - t
        t = perf_counter()
    import specflow.cli  # noqa: F401

    marks["specflow"] = perf_counter() - t
    marks["total"] = perf_counter() - _START
    return marks


IMPORT_MARKS = _import_program()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import specflow  # noqa: E402
from tracing import EigenCounter, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Percentiles reported next to the median, highest first; one is printed
# only when at least ten samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TRACE_UNTRACED_SHARE = 1.0 / 3.0


def _emit(result: dict) -> None:
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def probe(args) -> None:
    t = perf_counter()
    WORKLOADS[args.workload].prepare(args.seed)
    constructors = perf_counter() - t
    _emit(
        {
            "setup_s": IMPORT_MARKS["total"] + constructors,
            "imports": IMPORT_MARKS,
            "constructors_s": constructors,
        }
    )


class Tally:
    """Outcomes of the items of one measured phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.eigensolves = 0
        self.eig_flops = 0.0
        self.rounds = 0
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []

    def check_failed(self, where: str, exc: Exception) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")


def run_round(workload, counter: EigenCounter, tally: Tally, tracer: Tracer | None) -> None:
    summaries = []
    item_span = tracer.name_id("bench.item") if tracer else None
    for item in workload.items():
        if tracer:
            tracer.item_id = tally.attempted
            span = tracer.open(item_span)
        solves, flops = counter.matrices, counter.flops
        t = perf_counter()
        try:
            value = item.run()
        except Exception as exc:  # noqa: BLE001 - a failing item is counted, not fatal
            dt = perf_counter() - t
            ok = False
            key = f"{item.kind}/{item.group}: {type(exc).__name__}"
            if key not in tally.failures:
                print(f"item failed: {key}: {exc}", file=sys.stderr)
            tally.failures[key] = tally.failures.get(key, 0) + 1
        else:
            dt = perf_counter() - t
            ok = True
        finally:
            if tracer:
                tracer.close(span)
                tracer.item_id = -1
        tally.attempted += 1
        tally.timed_s += dt
        tally.eigensolves += counter.matrices - solves
        tally.eig_flops += counter.flops - flops
        if not ok:
            tally.failed += 1
            tally.latencies.append(math.inf)
            continue
        tally.latencies.append(dt)
        try:
            summaries.append((item, workload.check_item(item, value)))
        except Exception as exc:  # noqa: BLE001 - malformed output fails the check
            tally.check_failed(f"{item.kind}/{item.group}", exc)
        value = None
    try:
        workload.check_round(summaries)
    except Exception as exc:  # noqa: BLE001
        tally.check_failed("round", exc)
    tally.rounds += 1


def measure(workload, counter, rounds: int, tracer=None) -> Tally:
    tally = Tally()
    for _ in range(rounds):
        run_round(workload, counter, tally, tracer)
    return tally


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"samples": n, "p50_ms": statistics.median(ordered) * 1e3}
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            out["tail"] = {"percentile": p, "ms": ordered[rank] * 1e3}
            break
    return out


def phase_report(tally: Tally) -> dict:
    completed = tally.attempted - tally.failed
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": tally.rounds,
        "timed_s": tally.timed_s,
        "items_per_s": completed / tally.timed_s,
        "latency": latency_summary(tally.latencies),
        "eigensolves_per_item": tally.eigensolves / tally.attempted,
        "failures": tally.failures,
        "errors": tally.errors,
    }


def layer_metrics(tracer: Tracer, tally: Tally, slowdown: float) -> dict:
    total, self_time, calls = tracer.totals()
    c = tracer.counts
    n = tally.attempted

    def per_item(table, name):
        return table.get(name, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "operators.ingest_calls": per_item(calls, "operators.ingest"),
        "operators.ingest_s": per_item(total, "operators.ingest"),
        "operators.eigensolve_s": per_item(total, "operators.eigensolve"),
        "operators.eig_gflop_computed": tally.eig_flops / 1e9 / n,
        "paths.at_calls": c["paths.at_calls"] / n,
        "paths.cache_hit_ratio": ratio(c["paths.cache_hits"], c["paths.at_calls"]),
        "paths.eval_s": per_item(self_time, "paths.eval"),
        "paths.cached_mib_peak": tracer.peak_cache_bytes / 2**20,
        "flow.self_s": per_item(self_time, "flow.spectral_flow"),
        "flow.segments_per_flow": ratio(c["flow.segments"], c["flow.flows"]),
        "flow.bisections_per_flow": ratio(c["flow.bisections"], c["flow.flows"]),
        "flow.max_depth": c["flow.max_depth"],
        "oracle.self_s": per_item(self_time, "oracle.oracle_flow"),
        "oracle.evals_per_call": ratio(c["oracle.evals"], c["oracle.calls"]),
        "families.build_s": per_item(total, "families.build"),
        "gluing.build_s": per_item(total, "gluing.build"),
        "components.build_s": per_item(total, "components.build"),
        "components.certify_s": per_item(total, "components.certify"),
        "components.flow_calls": c["components.flow_calls"] / n,
        "config.load_s": per_item(self_time, "config.load"),
        "config.validate_calls": per_item(calls, "config.validate"),
        "config.validate_s": per_item(total, "config.validate"),
        "config.build_s": per_item(total, "config.build"),
        "reporting.validate_s": per_item(total, "reporting.validate"),
        "reporting.dumps_s": per_item(total, "reporting.dumps"),
        "cli.self_s": per_item(self_time, "cli.main"),
        "trace.slowdown": slowdown,
    }


def run(args) -> None:
    counter = EigenCounter()
    counter.install()
    scratch = Path(args.scratch)
    workload = WORKLOADS[args.workload](args.seed, scratch, counter.original("eigvalsh"))
    workload.prepare_checks()

    if not args.trace:
        tally = measure(workload, counter, args.rounds)
        result = phase_report(tally)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _emit(result)
        return

    plain = measure(workload, counter, max(1, round(args.rounds * TRACE_UNTRACED_SHARE)))
    tracer = Tracer()
    instrument(tracer)
    traced = measure(workload, counter, plain.rounds, tracer)
    if args.spans:
        tracer.save(args.spans)
    result = phase_report(traced)
    result["untraced"] = phase_report(plain)
    result["spans"] = len(tracer.start)
    result["layers"] = layer_metrics(tracer, traced, traced.timed_s / plain.timed_s)
    result["attempted"] += plain.attempted
    result["failed"] += plain.failed
    result["errors"] = plain.errors + result["errors"]
    _emit(result)


def main() -> None:
    src = os.path.realpath(_SRC)
    if not os.path.realpath(specflow.__file__).startswith(src + os.sep):
        sys.exit(f"specflow was imported from {specflow.__file__}, not from {src}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["probe", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scratch", help="directory for the run's input files")
    parser.add_argument("--spans", help="file for the traced run's spans (.npz)")
    parser.add_argument("--split-imports", action="store_true")
    args = parser.parse_args()
    if args.mode == "probe":
        probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
