"""Counter gate: the exact number of matrices each fixed workload hands to ``eigvalsh``,
and the number of refinement rounds of a few flows.

The counts are machine-independent, so a change that makes any of them
larger solves more than it needs to.  A change that lowers one on purpose
updates the table here and says so in CHANGES.md.  The failing cases also
pin their ``DepthExceeded`` text: batched refinement must name the segment
depth-first order names.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import rotated_report
from specflow import (
    DepthExceeded,
    OperatorPath,
    SelfAdjointOperator,
    affine_homotopy,
    certify_distinct_components,
    check_flow_properties,
    concat,
    constant_path,
    invertible_valued_family,
    matrix_path,
    oracle_flow,
    random_family,
    reparametrize,
    reverse,
    spectral_flow,
    straight_segment,
)
from specflow import flow, paths
from specflow.cli import main
from specflow.config import sampled_path


def _flow_and_verify(make):
    """Certify a path, then verify the certificate on a fresh copy."""
    cert = spectral_flow(make())
    cert.verify(make())


def _warp():
    # Piecewise-linear bijection that spends [0.4, 0.41] on a third of [0, 1].
    a = random_family(4, 1)
    xs, ys = [0.0, 0.4, 0.41, 1.0], [0.0, 1 / 3, 2 / 3, 1.0]
    return reparametrize(a, lambda t: float(np.interp(t, xs, ys)), a.lipschitz * 100 / 3)


def _concat():
    a = random_family(4, 3)
    return concat(a, straight_segment(a.at(1.0), invertible_valued_family(4, 3).at(0.0)))


def _interior_slice():
    a = random_family(5, 4, invertible_ends=True)
    bump = np.diag(np.linspace(-0.5, 0.5, 5))
    bumped = matrix_path(5, lambda t: a.at(t).entries + np.sin(np.pi * t) * bump, a.lipschitz + np.pi)
    return affine_homotopy(a, bumped).slice_at(0.3)


def _complex_sampled():
    rng = np.random.default_rng(5)
    knots = []
    for t in (0.0, 0.4, 1.0):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        knots.append((t, (g + g.conj().T) / 2))
    return sampled_path(knots)


def _dense_constant():
    g = np.random.default_rng(8).standard_normal((4, 4))
    return constant_path(SelfAdjointOperator((g + g.T) / 2))


def _knot_warp(a, knots):
    # Piecewise-linear bijection through the interior knots, with its slope bound.
    xs = np.concatenate([[0.0], np.sort(knots), [1.0]])
    ys = np.linspace(0.0, 1.0, xs.size)
    slope = float(np.max(np.diff(ys) / np.diff(xs)))
    return reparametrize(a, lambda t: float(np.interp(t, xs, ys)), a.lipschitz * slope)


def _depth_exceeded(make, text):
    def run(_):
        with pytest.raises(DepthExceeded) as info:
            spectral_flow(make())
        assert str(info.value) == text

    return run


def _components(tmp_path):
    assert main(["components", "--k", "4", "--out", str(tmp_path)]) == 0


def _tanh(scale, lipschitz):
    return matrix_path(1, lambda t: [[-2.0 * np.tanh(scale * (t - 0.44))]], lipschitz)


CASES = {
    "flow+verify random_family(2, 6)": lambda _: _flow_and_verify(lambda: random_family(2, 6)),
    "flow+verify random_family(5, 2)": lambda _: _flow_and_verify(lambda: random_family(5, 2)),
    "flow+verify random_family(12, 6)": lambda _: _flow_and_verify(lambda: random_family(12, 6)),
    "flow+verify warp of slope 33": lambda _: _flow_and_verify(_warp),
    "flow+verify concat": lambda _: _flow_and_verify(_concat),
    "flow+verify reverse": lambda _: _flow_and_verify(lambda: reverse(random_family(4, 6))),
    "flow+verify interior slice": lambda _: _flow_and_verify(_interior_slice),
    "flow+verify complex sampled": lambda _: _flow_and_verify(_complex_sampled),
    "flow+verify dense constant_path": lambda _: _flow_and_verify(_dense_constant),
    "oracle_flow(grid=64) random_family(6, 7)": lambda _: oracle_flow(random_family(6, 7), grid=64),
    # A non-dyadic grid: its two crossing cells reach REFINE_WIDTH at different levels.
    "oracle_flow(grid=100) random_family(6, 1)": lambda _: oracle_flow(random_family(6, 1), grid=100),
    "components --k 4": _components,
    # Dense pairs: the bisection's final reads hit the rows its levels cached.
    "certify_distinct_components, 3 rotated real paths": lambda _: certify_distinct_components(
        rotated_report((0, 1, 3), ("real",) * 3, 4, 0)
    ),
    "certify_distinct_components, 3 rotated complex paths": lambda _: certify_distinct_components(
        rotated_report((0, 2, 3), ("complex",) * 3, 4, 0)
    ),
    # Certifies nothing, so it is refined one segment at a time, depth first.
    "DepthExceeded: warp between adjacent floats": _depth_exceeded(
        lambda: _knot_warp(random_family(5, 0), [0.99, 0.9899999999999999]),
        "segment [0, 1.1920929e-07] not certifiable at bisection depth 20 (Lipschitz slack: "
        "margin 4.898e-01 does not exceed 0.5 * L * step = 2.972e+08 with L = 3.988e+16, "
        "step = 1.490e-08)",
    ),
    # Certifies [0, 0.5) first, so later batches also solve rows right of 0.5.
    "DepthExceeded: zero eigenvalue at t=0.5": _depth_exceeded(
        lambda: matrix_path(1, lambda t: [[t - 0.5]], lipschitz=1.0),
        "segment [0.499999881, 0.5] not certifiable at bisection depth 20 (Lipschitz slack: "
        "margin 7.451e-09 does not exceed 0.5 * L * step = 7.451e-09 with L = 1.000e+00, "
        "step = 1.490e-08)",
    ),
    "DepthExceeded: (t - 0.5) I_4": _depth_exceeded(
        lambda: matrix_path(4, lambda t: (t - 0.5) * np.eye(4), lipschitz=1.0),
        "segment [0.499999881, 0.5] not certifiable at bisection depth 20 (Lipschitz slack: "
        "margin 7.451e-09 does not exceed 0.5 * L * step = 7.451e-09 with L = 1.000e+00, "
        "step = 1.490e-08)",
    ),
    "DepthExceeded: zero eigenvalue at t=0.3": _depth_exceeded(
        lambda: matrix_path(1, lambda t: [[t - 0.3]], lipschitz=1.0),
        "segment [0.299999952, 0.300000072] not certifiable at bisection depth 20 (Lipschitz "
        "slack: margin 7.451e-09 does not exceed 0.5 * L * step = 7.451e-09 with L = 1.000e+00, "
        "step = 1.490e-08)",
    ),
    "DepthExceeded: two eigenvalues zero at t=1/3": _depth_exceeded(
        lambda: matrix_path(2, lambda t: np.diag([t - 1 / 3, 2 * t - 2 / 3]), lipschitz=2.0),
        "segment [0.333333254, 0.333333373] not certifiable at bisection depth 20 (Lipschitz "
        "slack: margin 1.490e-08 does not exceed 0.5 * L * step = 1.490e-08 with L = 2.000e+00, "
        "step = 1.490e-08)",
    ),
    # No bound, so nothing fails on the slack: a count drift at the jump.
    "DepthExceeded: tanh jump without a bound": _depth_exceeded(
        lambda: _tanh(1e6, None),
        "segment [0.439999938, 0.440000057] not certifiable at bisection depth 20 (count drift: "
        "the count in [-1.490e-02, 1.490e-02] is 0 at t=0.43999993801116943 but 1 at "
        "t=0.4399999976158142)",
    ),
    # Bounded: resolution-limited segments on both sides of the crossing.
    "DepthExceeded: tanh with L = 2e3": _depth_exceeded(
        lambda: _tanh(1e3, 2e3),
        "segment [0.439999938, 0.440000057] not certifiable at bisection depth 20 (Lipschitz "
        "slack: margin 1.013e-05 does not exceed 0.5 * L * step = 1.490e-05 with L = 2.000e+03, "
        "step = 1.490e-08)",
    ),
}

EIGENSOLVES = {
    "flow+verify random_family(2, 6)": 130,
    "flow+verify random_family(5, 2)": 130,
    "flow+verify random_family(12, 6)": 146,
    "flow+verify warp of slope 33": 1058,
    "flow+verify concat": 194,
    "flow+verify reverse": 130,
    "flow+verify interior slice": 134,
    "flow+verify complex sampled": 130,
    "flow+verify dense constant_path": 2,
    "oracle_flow(grid=64) random_family(6, 7)": 129,
    "oracle_flow(grid=100) random_family(6, 1)": 253,
    "components --k 4": 0,
    "certify_distinct_components, 3 rotated real paths": 344,
    "certify_distinct_components, 3 rotated complex paths": 345,
    "DepthExceeded: warp between adjacent floats": 89,
    # 193 with depth-first refinement, which stops at the failure.
    "DepthExceeded: zero eigenvalue at t=0.5": 257,
    "DepthExceeded: (t - 0.5) I_4": 257,
    "DepthExceeded: zero eigenvalue at t=0.3": 197,
    "DepthExceeded: two eigenvalues zero at t=1/3": 193,
    "DepthExceeded: tanh jump without a bound": 201,
    # 713 with the depth cap alone.
    "DepthExceeded: tanh with L = 2e3": 705,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_eigensolve_count(name, eigvalsh_counter, tmp_path, capsys):
    CASES[name](tmp_path)
    assert eigvalsh_counter.matrices == EIGENSOLVES[name]


def _warp_of_slope(slope):
    return lambda _: spectral_flow(_knot_warp(random_family(5, 0), [0.5, 0.5 + 1 / (3 * slope)]))


# Calls of ``flow._witness_spectra``: one per refinement round, and one per
# ``verify`` (the components report verifies every certificate).  The
# comments give the counts of refinement with the depth cap alone, which
# read ``max(1, 64 >> depth)`` segments per round.
ROUND_CASES = {
    # 581: after depth 6 one segment per round, though no crossing lies there.
    "warp of slope 300": _warp_of_slope(300),
    # 99.
    "warp of slope 100": _warp_of_slope(100),
    # 14, mostly rounds of 8 at depth 3.
    "invertible_valued_family(12, 0)": lambda _: spectral_flow(invertible_valued_family(12, 0)),
    # 37: its segments cross, so their rounds keep the depth cap.
    "components --k 4": _components,
}

ROUNDS = {
    "warp of slope 300": 29,
    "warp of slope 100": 18,
    "invertible_valued_family(12, 0)": 7,
    "components --k 4": 37,
}


@pytest.mark.parametrize("name", sorted(ROUND_CASES))
def test_refinement_rounds(name, monkeypatch, tmp_path, capsys):
    calls = []
    original = flow._witness_spectra

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(flow, "_witness_spectra", counted)
    ROUND_CASES[name](tmp_path)
    assert len(calls) == ROUNDS[name]


def test_property_suite_builds_no_path_one_parameter_at_a_time(monkeypatch):
    # The perturbed path is ``add(a, bump)``, built a stack at a time, so the
    # only ``at`` calls are the homotopy's endpoint checks, four per case.
    # Built per parameter from ``a.at(t)`` it read 408 calls and 453 ingests.
    calls = {"at": 0, "ingest": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(OperatorPath, "at", counted("at", OperatorPath.at))
    monkeypatch.setattr(paths, "_ingest_stack", counted("ingest", paths._ingest_stack))
    report = check_flow_properties(seed=0, invertible_paths=0, concat_pairs=0, homotopies=3, slices=3)
    assert report.passed
    assert calls == {"at": 12, "ingest": 105}
