"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every assertion is exact (flows are integers) except where a stated
tolerance applies.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

from specflow import (
    BaerFamilySpec,
    GluingSpec,
    SelfAdjointOperator,
    Spectrum,
    baer_family,
    build_distinct_paths,
    circle_family,
    concat,
    glue,
    invertible_valued_family,
    matrix_path,
    oracle_flow,
    random_family,
    reverse,
    spectral_flow,
    window_count_constancy,
)
from specflow.cli import main
from specflow.paths import OperatorPath
from specflow.properties import _extension_path, _perturbation_homotopy

DIMS = tuple(range(2, 13))


class budget:
    """Context manager asserting a wall-clock budget and printing the verdict."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"[acceptance] {self.name}: FAIL")
            return False
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.seconds, (
            f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
        )
        print(f"[acceptance] {self.name}: PASS ({elapsed:.1f}s)")
        return False


def test_property_i_invertible_paths_zero_flow():
    with budget("property i: flow vanishes on invertible-valued paths", 30):
        for idx in range(100):
            p = invertible_valued_family(DIMS[idx % len(DIMS)], seed=idx)
            assert spectral_flow(p).flow == 0, f"case {idx}"


def test_properties_ii_iii_additivity_and_antisymmetry():
    with budget("properties ii+iii: additivity and antisymmetry", 60):
        for idx in range(100):
            a = random_family(DIMS[idx % len(DIMS)], seed=1000 + idx)
            b = _extension_path(a, seed=2000 + idx)
            fa = spectral_flow(a).flow
            fb = spectral_flow(b).flow
            assert spectral_flow(concat(a, b)).flow == fa + fb, f"case {idx}"
            assert spectral_flow(reverse(a)).flow == -fa, f"case {idx}"


def test_property_iv_homotopy_invariance():
    with budget("property iv: flow constant across affine homotopies", 120):
        for idx in range(50):
            a = random_family(DIMS[idx % len(DIMS)], seed=3000 + idx, invertible_ends=True)
            h = _perturbation_homotopy(a, seed=4000 + idx)
            # every slice keeps the same (invertible) endpoints
            for t in (0.0, 1.0):
                assert np.abs(h.slice_at(0.5).at(t).spectrum).min() >= 1e-3
            flows = {
                spectral_flow(h.slice_at(float(s))).flow for s in np.linspace(0.0, 1.0, 11)
            }
            assert len(flows) == 1, f"case {idx}: slice flows {flows}"


def test_oracle_equivalence_on_shipped_and_random_families():
    with budget("oracle equivalence with grid-doubling stability", 300):
        shipped = [
            baer_family(BaerFamilySpec(m=m)) for m in (1, 2, 3, 5)
        ] + [
            circle_family(modes=5, winding=n) for n in range(-3, 4)
        ] + [
            glue(
                GluingSpec(
                    base=Spectrum([-7.0, -3.0, 3.0, 7.0]),
                    sphere_family=BaerFamilySpec(m=m),
                    epsilon=0.4,
                    seed=m,
                )
            ).path
            for m in (1, 4)
        ]
        for p in shipped:
            # the doubled-grid run raises ResolutionWarning on any instability
            assert spectral_flow(p).flow == oracle_flow(p, grid=512).flow
        for idx in range(200):
            p = random_family(DIMS[idx % len(DIMS)], seed=5000 + idx, invertible_ends=True)
            assert spectral_flow(p).flow == oracle_flow(p, grid=512).flow, f"case {idx}"


def test_step2_reproduction_flow_exceeds_any_floor():
    with budget("flow merge: flow m+1 > m, window count, deviation < 0.4", 120):
        base = Spectrum([-7.0, -3.0, 3.0, 7.0])
        for m in range(1, 11):
            for seed in range(20):
                spec = GluingSpec(
                    base=base,
                    sphere_family=BaerFamilySpec(m=m),
                    epsilon=0.4,
                    seed=seed,
                )
                g = glue(spec)
                flow = spectral_flow(g.path).flow
                assert flow == m + 1, f"m={m} seed={seed}: flow {flow}"
                assert flow > m
                report = window_count_constancy(g.path, grid=101)
                assert report.count == m + 1, f"m={m} seed={seed}: count {report.count}"
                assert g.max_deviation(grid=101) < 0.4, f"m={m} seed={seed}"


def test_circle_winding_flows():
    with budget("circle family: flow equals winding for |n| <= 3, K=5", 10):
        for n in range(-3, 4):
            p = circle_family(modes=5, winding=n)
            assert spectral_flow(p).flow == n, f"winding {n}"


def test_step3_components_k8(capsys):
    with budget("distinct components: k=8 induction and pair certificates", 120):
        assert main(["components", "--k", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        flows = doc["flows"]
        assert len(flows) == 8
        assert len(set(flows)) == 8, f"flows not pairwise distinct: {flows}"
        assert len(doc["pairs"]) == 28
        for pair in doc["pairs"]:
            assert pair["min_abs_eigenvalue"] < 1e-8 * pair["spectral_radius"], pair
        assert doc["verdict"] == "distinct components certified in the convex model"

        # the CLI run is reproducible in-process; every path's certified
        # flow must agree with the independent oracle
        from specflow import default_component_setup

        basepoint24, gen = default_component_setup()
        rebuilt = build_distinct_paths(8, gen, basepoint24)
        assert list(rebuilt.flows) == flows
        for p, f in zip(rebuilt.paths, rebuilt.flows):
            assert oracle_flow(p).flow == f

        # adversarial generator forcing the fallback branch: the ledger must
        # record the collision and the inequality that justifies the choice
        basepoint = SelfAdjointOperator.from_diagonal([5.0, 5.0, -5.0, 7.0])

        def adversarial(bound: int) -> OperatorPath:
            return matrix_path(4, lambda t: np.diag([2 * t - 1, 5.0, -5.0, 7.0]))

        report = build_distinct_paths(2, adversarial, basepoint)
        entry = report.ledger[0]
        assert entry.branch == "connector"
        assert entry.collision_with == 0
        assert entry.generator_flow > entry.bound
        assert "contradiction" in entry.note
        assert report.flows == (0, -1)


def test_cli_determinism_byte_identical(tmp_path):
    with budget("determinism: identical configs give byte-identical outputs", 120):
        commands = [
            ["flow", "--family", "baer", "--m", "3"],
            ["flow", "--family", "glue", "--m", "2", "--seed", "7"],
            ["spectrum", "--family", "random", "--dim", "6", "--seed", "3", "--grid", "21"],
            ["components", "--k", "3", "--ambient-dim", "16"],
            ["check", "--paths", "3", "--pairs", "3", "--homotopies", "1", "--slices", "3"],
        ]
        for args in commands:
            out = tmp_path / "out"
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "specflow.cli", *args, "--out", str(out)],
                    capture_output=True,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                files = {f.name: f.read_bytes() for f in out.iterdir()}
                runs.append((proc.stdout, files))
            assert runs[0] == runs[1], f"outputs differ for {args}"
