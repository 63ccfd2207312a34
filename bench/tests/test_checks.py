"""The benchmark's checks accept the program's outputs and reject tampered ones.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/tests

Each test feeds a check one real output of the program and then the same
output with one fact broken (a flow off by one, a shrunk or inflated
margin, a missing pair, ...).  Nothing under ``src/`` is changed; the
tampering happens on the returned objects and documents.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import specflow as sf  # noqa: E402
from specflow.cli import main as cli_main  # noqa: E402

from checks import (  # noqa: E402
    CheckFailed,
    check_component_report,
    check_sampled_certificate,
)
from workloads import CertifyMix, OracleGrid  # noqa: E402

EIGVALSH = np.linalg.eigvalsh


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


def _item(workload, kind, group=None):
    return next(i for i in workload.items() if i.kind == kind and (group is None or i.group == group))


class TestCertifyMix:
    @pytest.fixture
    def workload(self, tmp_path):
        return CertifyMix(3, tmp_path, EIGVALSH)

    def test_accepts_and_rejects_flow_off_by_one(self, workload):
        item = _item(workload, "pair-a", 2)
        path, cert = item.run()
        assert workload.check_item(item, (path, cert)) == cert.flow
        with pytest.raises(CheckFailed, match="endpoint formula"):
            workload.check_item(item, (path, dataclasses.replace(cert, flow=cert.flow + 1)))

    def test_rejects_counts_that_do_not_telescope(self, workload):
        item = _item(workload, "zero")
        path, cert = item.run()
        (lo, hi), *rest = cert.counts
        broken = dataclasses.replace(cert, counts=((lo, hi + 1), *rest))
        with pytest.raises(CheckFailed, match="telescope"):
            workload.check_item(item, (path, broken))

    def test_rejects_partition_not_increasing(self, workload):
        item = _item(workload, "zero")
        path, cert = item.run()
        times = list(cert.times)
        times[1], times[2] = times[2], times[1]
        with pytest.raises(CheckFailed, match="strictly increase"):
            workload.check_item(item, (path, dataclasses.replace(cert, times=tuple(times))))

    def test_round_identities_reject_a_wrong_concat_flow(self, workload):
        summaries = []
        for item in workload.items():
            if item.kind.startswith("pair-") and item.group == 0:
                summaries.append((item, workload.check_item(item, item.run())))
        workload.check_round(summaries)
        broken = [(i, f + 1 if i.kind == "pair-concat" else f) for i, f in summaries]
        with pytest.raises(CheckFailed, match="concat flow"):
            workload.check_round(broken)

    def test_round_identities_reject_disagreeing_slices(self, workload):
        items = [i for i in workload.items() if i.kind == "slice" and i.group == 0]
        summaries = [(i, 1) for i in items]
        workload.check_round(summaries)
        summaries[-1] = (items[-1], 2)
        with pytest.raises(CheckFailed, match="slices"):
            workload.check_round(summaries)


class TestOracleGrid:
    def test_rejects_oracle_disagreement_and_wrong_closed_form(self, tmp_path):
        workload = OracleGrid(3, tmp_path, EIGVALSH)
        item = _item(workload, "closed", 3)  # baer m=2 gives m + 1 = 3
        path, cert, oracle = item.run()
        assert workload.check_item(item, (path, cert, oracle)) == 3
        with pytest.raises(CheckFailed, match="oracle flow"):
            workload.check_item(item, (path, cert, dataclasses.replace(oracle, flow=oracle.flow + 1)))
        wrong_form = dataclasses.replace(item, group=4)
        with pytest.raises(CheckFailed, match="closed form"):
            workload.check_item(wrong_form, (path, cert, oracle))


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    rng = np.random.default_rng(11)
    ts = np.array([0.0, 0.45, 1.0])
    mats = []
    for _ in ts:
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        mats.append((g + g.conj().T) / 2)
    config = {
        "family": {
            "kind": "sampled",
            "samples": [
                {"t": float(t), "matrix": {"real": m.real.tolist(), "imag": m.imag.tolist()}}
                for t, m in zip(ts, mats)
            ],
        }
    }
    target = tmp_path_factory.mktemp("sampled") / "config.json"
    target.write_text(json.dumps(config))
    doc = json.loads(_cli(["flow", "--config", str(target)]))
    return doc, ts, mats


class TestSampledCertificate:
    def test_accepts_the_program_output(self, sampled):
        doc, ts, mats = sampled
        check_sampled_certificate(EIGVALSH, doc, ts, mats)

    def test_rejects_flow_off_by_one(self, sampled):
        doc, ts, mats = sampled
        broken = copy.deepcopy(doc)
        broken["flow"] += 1
        with pytest.raises(CheckFailed, match="endpoint formula"):
            check_sampled_certificate(EIGVALSH, broken, ts, mats)

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_rejects_shrunk_or_inflated_margin(self, sampled, factor):
        doc, ts, mats = sampled
        broken = copy.deepcopy(doc)
        broken["segments"][len(broken["segments"]) // 2]["margin"] *= factor
        with pytest.raises(CheckFailed, match="margin"):
            check_sampled_certificate(EIGVALSH, broken, ts, mats)

    def test_rejects_wrong_symmetric_count(self, sampled):
        doc, ts, mats = sampled
        broken = copy.deepcopy(doc)
        broken["segments"][0]["symmetric_count"] += 1
        with pytest.raises(CheckFailed, match="symmetric count"):
            check_sampled_certificate(EIGVALSH, broken, ts, mats)


@pytest.fixture(scope="module")
def components(tmp_path_factory):
    k, seed = 4, 2
    out = tmp_path_factory.mktemp("components")
    doc = json.loads(_cli(["components", "--k", str(k), "--seed", str(seed), "--out", str(out)]))
    basepoint, generator = sf.default_component_setup(ambient_dim=24, epsilon=0.25, seed=seed)
    report = sf.build_distinct_paths(k, generator, basepoint)
    return doc, k, basepoint.entries, [p.at(1.0).entries for p in report.paths]


class TestComponentReport:
    def test_accepts_the_program_output(self, components):
        doc, k, basepoint, endpoints = components
        check_component_report(EIGVALSH, doc, k, basepoint, endpoints)

    def test_rejects_wrong_pair_count(self, components):
        doc, k, basepoint, endpoints = components
        broken = copy.deepcopy(doc)
        broken["pairs"].pop()
        with pytest.raises(CheckFailed, match="pairs reported"):
            check_component_report(EIGVALSH, broken, k, basepoint, endpoints)

    def test_rejects_wrong_segment_flow(self, components):
        doc, k, basepoint, endpoints = components
        broken = copy.deepcopy(doc)
        broken["pairs"][0]["segment_flow"] += 1
        with pytest.raises(CheckFailed, match="segment flow"):
            check_component_report(EIGVALSH, broken, k, basepoint, endpoints)

    def test_rejects_a_point_that_is_not_singular(self, components):
        doc, k, basepoint, endpoints = components
        broken = copy.deepcopy(doc)
        broken["pairs"][0]["singular_t"] = 0.0
        with pytest.raises(CheckFailed, match="not singular"):
            check_component_report(EIGVALSH, broken, k, basepoint, endpoints)

    def test_rejects_repeated_flows(self, components):
        doc, k, basepoint, endpoints = components
        broken = copy.deepcopy(doc)
        broken["flows"][-1] = broken["flows"][0]
        with pytest.raises(CheckFailed, match="pairwise distinct"):
            check_component_report(EIGVALSH, broken, k, basepoint, endpoints)
