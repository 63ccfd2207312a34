"""Counter gate: the exact number of matrices each fixed workload hands to ``eigvalsh``,
and the number of refinement rounds of a few flows.

The counts are machine-independent, so a change that makes any of them
larger solves more than it needs to.  A change that lowers one on purpose
updates the table here and says so in CHANGES.md.  The failing cases also
pin their ``DepthExceeded`` text: refinement in rounds must name the
segment depth-first order names.  Their eigensolves count what refinement
solves before the leftmost failure is found, some of [0, 1] right of it
included: each round after the first reads the leftmost 64 pending
segments.  The zero path and the constant path with a far too loose bound
are rejected everywhere, so they pin that bound on a round.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import knot_warp, rotated_report
from specflow import (
    DepthExceeded,
    FlowOptions,
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


def _depth_exceeded(make, text, options=None):
    def run(_):
        with pytest.raises(DepthExceeded) as info:
            spectral_flow(make(), options)
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
    # Dense pairs: the brackets open from the endpoint counts, and the final
    # read solves every pair's t once more.
    "certify_distinct_components, 3 rotated real paths": lambda _: certify_distinct_components(
        rotated_report((0, 1, 3), ("real",) * 3, 4, 0)
    ),
    "certify_distinct_components, 3 rotated complex paths": lambda _: certify_distinct_components(
        rotated_report((0, 2, 3), ("complex",) * 3, 4, 0)
    ),
    # The gauge jumps between two adjacent floats, so the segment holding
    # the jump fails at depth 20 and the rest certifies.  Its L is the
    # segment's local slope, its largest gauge step over the witness spacing.
    # The endpoint inertia gives the flow 0 of the base path.
    "DepthExceeded: warp between adjacent floats": _depth_exceeded(
        lambda: knot_warp(random_family(5, 0), [0.99, 0.9899999999999999]),
        "segment [0.989999995, 0.99000001] not certifiable at bisection depth 20 (Lipschitz "
        "slack: on [0.989999994635582, 0.9900000095367432] eigenvalue 3 is 1.030e+00 and 7.314e-01 "
        "from the window edge, a sum of 1.761e+00 that does not exceed the gauge step 2.059e+00 "
        "(L = 1.382e+08 times the witness spacing 1.490e-08); the gauge rises by 2.059e+00 "
        "between the adjacent floats 0.9899999999999999 and 0.99, so no witness can split that "
        "step); endpoint inertia gives flow 0",
    ),
    # The first round reads all of [0, 1], so rows right of 0.5 are solved too.
    "DepthExceeded: zero eigenvalue at t=0.5": _depth_exceeded(
        lambda: matrix_path(1, lambda t: [[t - 0.5]], lipschitz=1.0),
        "segment [0.499999985, 0.5] not certifiable at bisection depth 20 (Lipschitz "
        "slack: on [0.4999999850988388, 0.5] eigenvalue 0 is 7.451e-09 and 7.451e-09 "
        "from the window edge, a sum of 1.490e-08 that does not exceed the gauge step 1.490e-08 "
        "(L = 1.000e+00 times the witness spacing 1.490e-08)); endpoint inertia gives flow 1",
    ),
    "DepthExceeded: (t - 0.5) I_4": _depth_exceeded(
        lambda: matrix_path(4, lambda t: (t - 0.5) * np.eye(4), lipschitz=1.0),
        "segment [0.499999985, 0.5] not certifiable at bisection depth 20 (Lipschitz "
        "slack: on [0.4999999850988388, 0.5] eigenvalue 0 is 7.451e-09 and 7.451e-09 "
        "from the window edge, a sum of 1.490e-08 that does not exceed the gauge step 1.490e-08 "
        "(L = 1.000e+00 times the witness spacing 1.490e-08)); endpoint inertia gives flow 4",
    ),
    "DepthExceeded: zero eigenvalue at t=0.3": _depth_exceeded(
        lambda: matrix_path(1, lambda t: [[t - 0.3]], lipschitz=1.0),
        "segment [0.299999982, 0.299999997] not certifiable at bisection depth 20 (Lipschitz "
        "slack: on [0.29999998211860657, 0.29999999701976776] eigenvalue 0 is 7.451e-09 and 7.451e-09 "
        "from the window edge, a sum of 1.490e-08 that does not exceed the gauge step 1.490e-08 "
        "(L = 1.000e+00 times the witness spacing 1.490e-08)); endpoint inertia gives flow 1",
    ),
    "DepthExceeded: two eigenvalues zero at t=1/3": _depth_exceeded(
        lambda: matrix_path(2, lambda t: np.diag([t - 1 / 3, 2 * t - 2 / 3]), lipschitz=2.0),
        "segment [0.333333299, 0.333333313] not certifiable at bisection depth 20 (Lipschitz "
        "slack: on [0.3333332985639572, 0.3333333134651184] eigenvalue 0 is 1.490e-08 and 1.490e-08 "
        "from the window edge, a sum of 2.980e-08 that does not exceed the gauge step 2.980e-08 "
        "(L = 2.000e+00 times the witness spacing 1.490e-08)); endpoint inertia gives flow 2",
    ),
    # No bound, so nothing fails on the slack: a count drift at the jump.
    # The endpoint inertia gives -1, the oracle's flow.
    "DepthExceeded: tanh jump without a bound": _depth_exceeded(
        lambda: _tanh(1e6, None),
        "segment [0.439999983, 0.439999998] not certifiable at bisection depth 20 (count drift: "
        "the count in [-1.967e-02, 1.967e-02] is 0 at t=0.439999982714653 but 1 at "
        "t=0.4399999976158142); endpoint inertia gives flow -1",
    ),
    # Bounded: the slack rejects segments on both sides of the crossing,
    # and each round refines the leftmost 64 of them.
    "DepthExceeded: tanh with L = 2e3": _depth_exceeded(
        lambda: _tanh(1e3, 2e3),
        "segment [0.439999983, 0.439999998] not certifiable at bisection depth 20 (Lipschitz "
        "slack: on [0.439999982714653, 0.4399999976158142] eigenvalue 0 is 1.490e-05 and 1.490e-05 "
        "from the window edge, a sum of 2.980e-05 that does not exceed the gauge step 2.980e-05 "
        "(L = 2.000e+03 times the witness spacing 1.490e-08)); endpoint inertia gives flow -1",
    ),
    # Rejected everywhere: every round holds 64 segments, and the leftmost
    # reaches the depth cap first.
    "DepthExceeded: zero path": _depth_exceeded(
        lambda: matrix_path(1, lambda t: np.zeros((1, 1))),
        "segment [0, 1.49011612e-08] not certifiable at bisection depth 20 (all zero: every "
        "witnessed eigenvalue is 0, so no window radius exists); endpoint inertia gives flow 0",
    ),
    "DepthExceeded: constant path with L = 1e9": _depth_exceeded(
        lambda: matrix_path(1, lambda t: [[1.0]], lipschitz=1e9),
        "segment [0, 1.49011612e-08] not certifiable at bisection depth 20 (Lipschitz slack: on "
        "[0.0, 1.4901161193847656e-08] eigenvalue 0 is 5.000e-01 and 5.000e-01 from the window "
        "edge, a sum of 1.000e+00 that does not exceed the gauge step 1.490e+01 (L = 1.000e+09 "
        "times the witness spacing 1.490e-08)); endpoint inertia gives flow 0",
    ),
    # cluster_tol above the margin floor: every window near t=0 has an end
    # eigenvalue within 0.2 times the row's scale of its radius.  It raised
    # BoundaryAmbiguity after 65 eigensolves when only the final count of
    # the partition checked the collision.
    "DepthExceeded: collision at the radius": _depth_exceeded(
        lambda: random_family(5, 0),
        "segment [0, 1.49011612e-08] not certifiable at bisection depth 20 (eigenvalue at "
        "t=0.0 within 5.301e-01 of the window radius 0.7286646064014789); endpoint inertia "
        "gives flow 0",
        FlowOptions(cluster_tol=0.2),
    ),
}

EIGENSOLVES = {
    "flow+verify random_family(2, 6)": 130,
    "flow+verify random_family(5, 2)": 130,
    # 146 when a rejected segment was halved into two 9-point halves.
    "flow+verify random_family(12, 6)": 130,
    # 1058 with the global slope bound in place of the gauge, 194 with
    # the gauge and halving, 142 while the base path's gauge was its
    # global bound ``L t``.
    "flow+verify warp of slope 33": 130,
    # 194 with the global bound 2 * max(L_a, L_b), 146 with halving.
    "flow+verify concat": 130,
    "flow+verify reverse": 130,
    "flow+verify interior slice": 134,
    "flow+verify complex sampled": 130,
    "flow+verify dense constant_path": 2,
    "oracle_flow(grid=64) random_family(6, 7)": 129,
    "oracle_flow(grid=100) random_family(6, 1)": 253,
    "components --k 4": 0,
    # 344 and 345 when each pair segment's flow was certified; the pair
    # flows now come from the endpoint rows the report cached.  173 and 174
    # when the bisection solved both ends of every pair to open its brackets
    # and its final reads hit the rows its levels had cached.
    "certify_distinct_components, 3 rotated real paths": 170,
    "certify_distinct_components, 3 rotated complex paths": 171,
    # The counts with halving into 9-point halves follow each case, then
    # those of the depth-first batched schedule (``max(1, 64 >> depth)``
    # segments per round), which stopped at the failure.  Rounds that read
    # every child of every rejected segment, with no bound, solved the
    # same except for tanh with L = 2e3 (1072) and the paths rejected
    # everywhere, whose last round held 64 * 2**20 segments.
    # 89 with the global slope bound, which failed at [0, 1.2e-07] first;
    # 87 while the base path's gauge was its global bound ``L t``.
    "DepthExceeded: warp between adjacent floats": 86,  # 225, 87
    # 111 when the margin had to exceed half the largest gauge step.
    "DepthExceeded: zero eigenvalue at t=0.5": 105,  # 257, 89
    "DepthExceeded: (t - 0.5) I_4": 105,  # 257, 89
    "DepthExceeded: zero eigenvalue at t=0.3": 125,  # 197, 108
    "DepthExceeded: two eigenvalues zero at t=1/3": 165,  # 193, 129
    "DepthExceeded: tanh jump without a bound": 96,  # 201, 88
    # 713 with the depth cap alone; 546 when the margin had to exceed half
    # the largest gauge step.
    "DepthExceeded: tanh with L = 2e3": 1032,  # 705, 545
    # 111 and 705: the depth-first schedule read one segment per round
    # from depth 6 on, or up to 64 when only the slack failed.
    "DepthExceeded: zero path": 705,
    "DepthExceeded: constant path with L = 1e9": 705,
    "DepthExceeded: collision at the radius": 651,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_eigensolve_count(name, eigvalsh_counter, tmp_path, capsys):
    CASES[name](tmp_path)
    assert eigvalsh_counter.matrices == EIGENSOLVES[name]


def _warp_of_slope(slope):
    return lambda _: spectral_flow(knot_warp(random_family(5, 0), [0.5, 0.5 + 1 / (3 * slope)]))


# Calls of ``flow._witness_spectra``: one per refinement round of
# ``spectral_flow``, summed over every flow a case certifies; ``verify``
# reads the recorded grids and makes none.  Each round after the first
# reads the leftmost 64 pending segments.  The comments give the counts of
# older schedules, most of them depth first with ``max(1, 64 >> depth)``
# segments per round.
ROUND_CASES = {
    # 29 with the global slope bound in place of the gauge; 581 with that
    # bound and the depth cap alone, one segment per round after depth 6.
    "warp of slope 300": _warp_of_slope(300),
    # 18 with the global slope bound; 99 with it and the depth cap alone.
    "warp of slope 100": _warp_of_slope(100),
    # 14, mostly rounds of 8 at depth 3.  7 when a rejected segment was
    # halved into two 9-point halves.  Since the split at the witnesses its
    # rounds read at most 64 two-point segments, depth first or leftmost
    # first; 5 with rounds of every rejected segment's children.
    "invertible_valued_family(12, 0)": lambda _: spectral_flow(invertible_valued_family(12, 0)),
    # 37 with halving: its segments cross, so their rounds keep the depth
    # cap.  The first round now reads all eight initial segments.  19 when
    # each of the six pair segments had its flow certified too.
    "components --k 4": _components,
}

# The first three were 8, 6 and 17 while ``random_family`` and
# ``invertible_valued_family`` had the gauge ``L t`` of their global bound.
ROUNDS = {
    "warp of slope 300": 6,
    "warp of slope 100": 5,
    "invertible_valued_family(12, 0)": 10,
    "components --k 4": 13,
}


# The warp ladder: a piecewise-linear warp of random_family(5, 0) that spends
# a third of [0, 1] on 1 / (3 * slope) of it.  The gauge keeps the steep
# piece local, so the eigensolves grow with the log of the slope.  With the
# global slope bound they grew with the slope: 65, 385, 3657, 45329, 403105.
# With halving into 9-point halves they were 65, 89, 113, 137, 169: a split
# at the witnesses reuses the rejected segment's rows, and each halving of a
# two-point segment solves one.  When a witness interval was proved only by
# a margin above half its largest gauge step they were 65, 68, 71, 74, 78,
# and 65, 67, 71, 74, 77 while the base path's gauge was its global bound.
LADDER = {3: 65, 30: 66, 300: 69, 3333: 73, 33333: 76}


@pytest.mark.parametrize("slope", sorted(LADDER))
def test_warp_ladder(slope, eigvalsh_counter):
    _warp_of_slope(slope)(None)
    assert eigvalsh_counter.matrices == LADDER[slope]


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
    # Built per parameter from ``a.at(t)`` it read 408 calls and 453 ingests;
    # 105 ingests when a rejected segment was halved into 9-point halves.
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
    assert calls == {"at": 12, "ingest": 78}
