"""Flow-axiom property suites and their failure reporting."""

from __future__ import annotations

import numpy as np
import pytest

import specflow.properties as properties_module
from specflow import Homotopy, check_flow_properties, matrix_path, random_family
from specflow.families import random_symmetric
from specflow.flow import FlowCertificate, FlowOptions, spectral_flow
from specflow.reporting import dumps_document, flow_certificate_document


class TestCheckFlowProperties:
    def test_small_run_passes(self):
        report = check_flow_properties(
            seed=5, invertible_paths=8, concat_pairs=8, homotopies=4, slices=5
        )
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "invertible-paths-zero-flow",
            "concatenation-additivity",
            "reversal-antisymmetry",
            "affine-homotopy-invariance",
        ]
        assert [c.cases for c in report.checks] == [8, 8, 8, 4]

    def test_failures_list_offending_seed(self, monkeypatch):
        # sabotage the flow computation for exactly one case seed and make
        # sure that seed (and only that seed) lands in the failure list
        target = 7 * 100000 + 3  # seed=7, invertible-path case index 3
        real_flow = spectral_flow
        state = {"armed": True}

        def lying_flow(path, options=None, **kw):
            cert = real_flow(path, options, **kw)
            if state.get("poison") == id(path) and state["armed"]:
                state["armed"] = False
                return FlowCertificate(
                    times=cert.times,
                    witnesses=cert.witnesses,
                    counts=cert.counts,
                    flow=cert.flow + 1,
                    options=cert.options or FlowOptions(),
                )
            return cert

        real_family = properties_module.invertible_valued_family

        def tagging_family(dim, seed):
            p = real_family(dim, seed)
            if seed == target:
                state["poison"] = id(p)
            return p

        monkeypatch.setattr(properties_module, "spectral_flow", lying_flow)
        monkeypatch.setattr(properties_module, "invertible_valued_family", tagging_family)
        report = check_flow_properties(
            seed=7, invertible_paths=6, concat_pairs=2, homotopies=1, slices=3
        )
        zero_check = report.checks[0]
        assert zero_check.failures == (target,)
        assert not report.passed

    def test_deterministic_at_fixed_seed(self):
        a = check_flow_properties(seed=1, invertible_paths=5, concat_pairs=5, homotopies=2)
        b = check_flow_properties(seed=1, invertible_paths=5, concat_pairs=5, homotopies=2)
        assert a == b


class TestExtensionPath:
    def test_batched_build_matches_the_scalar_formula(self):
        # Reference: the per-parameter A + t B + sin(pi t) C the suite
        # evaluated before extension paths were built in stacks.
        a = random_family(5, seed=3)
        ext = properties_module._extension_path(a, seed=4)
        rng = np.random.default_rng(4)
        b, c = random_symmetric(rng, 5), random_symmetric(rng, 5)
        start = a.at(1.0).entries
        ts = np.linspace(0.0, 1.0, 33)
        for t, entries in zip(ts.tolist(), ext._build_chunk(ts.tolist())):
            assert np.array_equal(entries, start + t * b + np.sin(np.pi * t) * c)
        assert ext.lipschitz == float(np.linalg.norm(b, 2) + np.pi * np.linalg.norm(c, 2))


def _per_parameter_homotopy(a, seed: int) -> Homotopy:
    # Reference: the suite's homotopy before ``add``, its bumped path built
    # one parameter at a time from ``a.at(t)``.
    e = random_symmetric(np.random.default_rng(seed), a.dim) * 0.5
    lip = a.lipschitz + np.pi * float(np.linalg.norm(e, 2))
    return Homotopy(a, matrix_path(a.dim, lambda t: a.at(t).entries + np.sin(np.pi * t) * e, lip))


class TestPerturbationHomotopy:
    @pytest.mark.parametrize("idx", range(5))
    def test_same_bytes_as_the_per_parameter_bump(self, idx):
        # The first homotopy cases of ``check --seed 0``.
        seed = properties_module._case_seed(2, idx)
        dim = properties_module.DEFAULT_DIMS[idx]
        a = random_family(dim, seed, invertible_ends=True)
        new = properties_module._perturbation_homotopy(a, seed + 7)
        old = _per_parameter_homotopy(random_family(dim, seed, invertible_ends=True), seed + 7)
        grid = np.linspace(0.0, 1.0, 17)
        for s in np.linspace(0.0, 1.0, 11).tolist():
            p, q = new.slice_at(s), old.slice_at(s)
            doc = dumps_document(flow_certificate_document(spectral_flow(p)))
            assert doc == dumps_document(flow_certificate_document(spectral_flow(q)))
            assert p.spectra(grid).tobytes() == q.spectra(grid).tobytes()
            assert p.at(0.37).entries.tobytes() == q.at(0.37).entries.tobytes()
