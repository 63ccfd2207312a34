"""Counter gate per benchmark workload: the matrices one round hands to ``eigvalsh``,
and its refinement rounds.

``bench/workloads.py`` is imported read-only and one seed-1 round of each
workload runs its items, as the benchmark's worker does, without timing
them or running their output checks.  The counts are machine-independent.
The eigensolves are the benchmark's ``eigensolves_per_item`` times the item
count, so a change that moves one moves that metric.  A refinement round
is one ``flow._witness_spectra`` call (``verify`` reads the recorded
grids and makes none): a schedule that trades eigensolves for Python
round-trips, the cost on the workloads that are not LAPACK-bound, raises it.  The one failing
item, ``warp/failing``, counts what refinement solves before its leftmost
failure is found.  dense-sampled
runs its first two items only (the 64-dim real path and the first 96-dim
complex path); its whole round takes seconds.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from specflow import flow

BENCH = Path(__file__).resolve().parents[1] / "bench"

# workload: (eigensolves, refinement rounds, items run, the kind/group of
# every failed item).  When a rejected segment was halved into two 9-point
# halves they read 5,704, 190 / 11,681, 49 / 0, 113 / 233, 7 (dense-sampled's
# first item alone).  When a witness interval was proved only by a margin
# above half its largest gauge step they read 5,249, 171 / 11,681, 25 /
# 0, 60 / 376, 32 (99, 5 for the first item).  Depth first, with at most
# ``max(1, 64 >> depth)`` segments per round, dense-sampled took 28 rounds;
# rounds of every rejected segment's children, with no bound, took 125 and
# 8.
ROUNDS = {
    "certify-mix": (4_478, 139, 52, ["warp/failing"]),  # 5,233, 170 with the families' gauge L t
    "oracle-grid": (11_681, 25, 24, []),
    "components-k8": (0, 30, 1, []),  # 60 while each pair segment's flow was certified
    "dense-sampled": (327, 11, 2, []),  # 28 rounds depth first
}
FIRST_ITEMS = {"dense-sampled": 2}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_seed_1_round(name, workloads, eigvalsh_counter, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name](1, tmp_path, eigvalsh_counter.original)
    items = workload.items()
    items = items[: FIRST_ITEMS.get(name)]
    rounds = []
    original = flow._witness_spectra

    def counted(*args):
        rounds.append(None)
        return original(*args)

    monkeypatch.setattr(flow, "_witness_spectra", counted)
    eigvalsh_counter.matrices = 0
    failed = []
    for item in items:
        try:
            item.run()
        except Exception:  # noqa: BLE001 - the worker counts a failing item, as here
            failed.append(f"{item.kind}/{item.group}")
    assert (eigvalsh_counter.matrices, len(rounds), len(items), failed) == ROUNDS[name]
