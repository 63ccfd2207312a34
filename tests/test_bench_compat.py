"""The benchmark's tracer still instruments the engine it measures.

``bench/tracing.py`` rebinds engine names (``OperatorPath.__init__`` with a
positional build, ``at``, ``_cache``, ``operators._solve_spectrum``, the
``cli`` entry point, ...) to record per-layer spans.  The tracer is loaded
read-only in a child process, so its class patches cannot leak into this
one, and three CLI runs must still succeed with every path build seen.
Paths whose gauge is not ``L t`` (a sampled config, a warp and every
other composite, which sets its gauge after the wrapped constructor
returns) must certify byte for byte as they do untraced, so the wrapped
constructor keeps every gauge.  A 64-dim sampled config, run with BLAS
pinned to one thread, takes the pooled eigensolve route, while the chunks
of a 36-dim diagonal path are sorted on the calling thread: all spans
must still nest strictly, which shows that none was opened on a solver
thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.instrument(tracer)
tracer.item_id = 0
import specflow.cli
codes = []
for argv in (
    ["flow", "--family", "random", "--dim", "4", "--oracle"],
    ["components", "--k", "3"],
    ["spectrum", "--family", "circle", "--modes", "3", "--winding", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(specflow.cli.main(argv))
_, _, calls = tracer.totals()
print(json.dumps({"codes": codes, "calls": calls}))
"""


# argv: the tracer's file, or "" to run untraced, then sampled config files.
# A traced run also reports whether every span lies inside its parent's interval.
PARITY_SCRIPT = """
import contextlib, importlib.util, io, json, sys
if sys.argv[1]:
    spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    tracer.item_id = 0
import numpy as np
import specflow as sf
import specflow.cli
from specflow import operators
from specflow.reporting import dumps_document, flow_certificate_document
codes, sampled = [], []
for config in sys.argv[2:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(specflow.cli.main(["flow", "--config", config]))
    sampled.append(out.getvalue())
a = sf.random_family(5, 0)
xs, ys = [0.0, 0.5, 0.5 + 1 / 900, 1.0], [0.0, 1 / 3, 2 / 3, 1.0]
warped = sf.reparametrize(a, lambda t: float(np.interp(t, xs, ys)), lipschitz=300 * a.lipschitz)
h = sf.affine_homotopy(a, warped)
paths = {
    "warped": warped,
    "concat": sf.concat(a, sf.reverse(warped)),
    "reverse": sf.reverse(a),
    "add": sf.add(a, sf.random_family(5, 1)),
    "constant": sf.constant_path(a.at(0.3)),
    "interior slice": h.slice_at(0.5),
    "end slice": h.slice_at(1.0),
    "baer 36": sf.baer_family(sf.BaerFamilySpec(m=31)),
}
certs = {name: dumps_document(flow_certificate_document(sf.spectral_flow(path)))
         for name, path in paths.items()}
result = {"codes": codes, "sampled": sampled, "certificates": certs,
          "pooled": operators._POOL is not None}
if sys.argv[1]:
    cols = tracer.columns()
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    child = parent >= 0
    result["nested"] = bool(
        child.any()
        and (start[parent[child]] <= start[child]).all()
        and (end[child] <= end[parent[child]]).all()
    )
print(json.dumps(result))
"""


def _run(script: str, *args: str, blas_threads: str | None = None) -> dict:
    """The JSON line ``script`` prints last, run with ``args`` in a child process.

    ``blas_threads`` pins ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``.
    """
    env = dict(os.environ)
    env.pop("SPECFLOW_LOG", None)
    if blas_threads is not None:
        env.update(OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -B: loading the tracer must not write bytecode next to it.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_instruments_cli_runs():
    result = _run(SCRIPT, str(ROOT / "bench" / "tracing.py"))
    assert result["codes"] == [0, 0, 0]
    assert result["calls"]["paths.eval"] > 0
    assert result["calls"]["cli.main"] == 3


def test_traced_gauged_paths_certify_as_untraced(tmp_path):
    # Knot slopes 1 to 40 apart, so the gauge and the steepest slope give
    # other partitions.
    rng = np.random.default_rng(3)
    samples = []
    for t in (0.0, 0.3, 0.31, 1.0):
        g = rng.standard_normal((3, 3))
        samples.append({"t": t, "matrix": ((g + g.T) / 2).tolist()})
    cfg = tmp_path / "sampled.json"
    cfg.write_text(json.dumps({"family": {"kind": "sampled", "samples": samples}}))
    # 64-dim knots: the pooled route when two CPUs are usable.
    dense = []
    for t in (0.0, 0.4, 1.0):
        g = rng.standard_normal((64, 64))
        dense.append({"t": t, "matrix": ((g + g.T) / 2).tolist()})
    dense_cfg = tmp_path / "sampled-64.json"
    dense_cfg.write_text(json.dumps({"family": {"kind": "sampled", "samples": dense}}))
    configs = (str(cfg), str(dense_cfg))
    untraced = _run(PARITY_SCRIPT, "", *configs, blas_threads="1")
    traced = _run(PARITY_SCRIPT, str(ROOT / "bench" / "tracing.py"), *configs, blas_threads="1")
    assert untraced["codes"] == [0, 0]
    assert traced.pop("nested")
    assert traced == untraced
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus > 1:
        assert untraced["pooled"]
