"""Counter gate per benchmark workload: the matrices one round hands to ``eigvalsh``.

``bench/workloads.py`` is imported read-only and one seed-1 round of each
workload runs its items, as the benchmark's worker does, without timing
them or running their output checks.  The counts are machine-independent
and are the benchmark's ``eigensolves_per_item`` times the item count, so
a change that moves one moves that metric.  dense-sampled runs its first
item only (the 64-dim path); its whole round takes seconds.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# workload: (eigensolves, items run, the kind/group of every failed item)
ROUNDS = {
    "certify-mix": (5_704, 52, ["warp/failing"]),
    "oracle-grid": (11_681, 24, []),
    "components-k8": (0, 1, []),
    "dense-sampled": (233, 1, []),
}
FIRST_ITEM_ONLY = {"dense-sampled"}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_seed_1_round(name, workloads, eigvalsh_counter, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path, eigvalsh_counter.original)
    items = workload.items()
    if name in FIRST_ITEM_ONLY:
        items = items[:1]
    eigvalsh_counter.matrices = 0
    failed = []
    for item in items:
        try:
            item.run()
        except Exception:  # noqa: BLE001 - the worker counts a failing item, as here
            failed.append(f"{item.kind}/{item.group}")
    assert (eigvalsh_counter.matrices, len(items), failed) == ROUNDS[name]
