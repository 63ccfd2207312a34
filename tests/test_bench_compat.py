"""The benchmark's tracer still instruments the engine it measures.

``bench/tracing.py`` rebinds engine names (``OperatorPath.__init__`` with a
positional build, ``at``, ``_cache``, ``operators._solve_spectrum``, the
``cli`` entry point, ...) to record per-layer spans.  The tracer is loaded
read-only in a child process, so its class patches cannot leak into this
one, and three CLI runs must still succeed with every path build seen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_tracer_instruments_cli_runs():
    env = dict(os.environ)
    env.pop("SPECFLOW_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -B: loading the tracer must not write bytecode next to it.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "bench" / "tracing.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["calls"]["paths.eval"] > 0
    assert result["calls"]["cli.main"] == 3
