"""Output checks computed apart from the engine, with numpy alone.

Every check raises :class:`CheckFailed` with the reason; none compares
against a stored copy of an earlier output.  The eigensolver is passed in
(``eigvalsh``) so that the benchmark can hand over numpy's uncounted entry
point and keep its own work out of the program's eigensolve count.
"""

from __future__ import annotations

import numpy as np

# An endpoint counts as invertible when its smallest |eigenvalue| exceeds
# this share of its spectral radius (the components certifier's threshold).
INVERTIBLE_RTOL = 1e-8
# Relative rounding allowed when re-deriving a recorded window margin.
MARGIN_RTOL = 1e-9
# A located singular operator has smallest |eigenvalue| below this share of
# its spectral radius.
SINGULAR_RTOL = 1e-8


class CheckFailed(AssertionError):
    """A program output disagrees with the independently computed result."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def negative_count(eigvalsh, matrix: np.ndarray) -> int:
    return int(np.count_nonzero(eigvalsh(matrix) < 0.0))


def endpoint_flow(eigvalsh, a0: np.ndarray, a1: np.ndarray) -> int:
    """``neg(A(0)) - neg(A(1))`` after asserting both ends are invertible.

    In fixed finite dimension the spectral flow of a path with invertible
    ends is exactly the drop of its negative eigenvalue count.
    """
    for label, m in (("A(0)", a0), ("A(1)", a1)):
        vals = np.abs(eigvalsh(m))
        require(
            vals.min() > INVERTIBLE_RTOL * vals.max(),
            f"endpoint {label} is not invertible: min |eig| {vals.min():.3e}, "
            f"radius {vals.max():.3e}",
        )
    return negative_count(eigvalsh, a0) - negative_count(eigvalsh, a1)


def check_flow(eigvalsh, flow: int, a0: np.ndarray, a1: np.ndarray) -> None:
    expected = endpoint_flow(eigvalsh, a0, a1)
    require(flow == expected, f"flow {flow} != endpoint formula {expected}")


def check_partition(times, counts, flow: int) -> None:
    """Times run from 0 to 1 strictly increasing; counts telescope to the flow."""
    times = [float(t) for t in times]
    require(len(times) >= 2, f"partition has {len(times)} points")
    require(times[0] == 0.0 and times[-1] == 1.0, f"partition spans [{times[0]}, {times[-1]}]")
    require(
        all(b > a for a, b in zip(times, times[1:])),
        "partition times do not strictly increase",
    )
    require(len(counts) == len(times) - 1, f"{len(counts)} count pairs for {len(times) - 1} segments")
    total = sum(int(hi) - int(lo) for lo, hi in counts)
    require(total == flow, f"counts telescope to {total}, certificate says {flow}")


def check_equal_flows(label: str, flows) -> None:
    flows = list(flows)
    require(len(set(flows)) <= 1, f"{label}: flows disagree {flows}")


def interpolate_samples(ts: np.ndarray, mats: list[np.ndarray], t: float) -> np.ndarray:
    """Linear interpolation of sampled matrices at ``t`` in [ts[0], ts[-1]]."""
    j = int(np.searchsorted(ts, t, side="right")) - 1
    j = min(max(j, 0), len(mats) - 2)
    u = (t - ts[j]) / (ts[j + 1] - ts[j])
    return (1.0 - u) * mats[j] + u * mats[j + 1]


def check_sampled_certificate(eigvalsh, doc: dict, ts: np.ndarray, mats: list[np.ndarray]) -> None:
    """Re-derive a flow certificate of a sampled path from its samples.

    The flow must equal the endpoint formula.  For every segment the
    window ``[-radius, radius]`` is rebuilt at each witness point from the
    samples: ``+/-radius`` must clear the spectrum by the recorded margin,
    the closest approach must be that margin (so a shrunk margin is caught
    too), both up to ``MARGIN_RTOL`` relative rounding, and the symmetric
    count must match.
    """
    require(doc.get("kind") == "flow-certificate", f"document kind {doc.get('kind')!r}")
    flow = int(doc["flow"])
    check_flow(eigvalsh, flow, mats[0], mats[-1])
    segments = doc["segments"]
    check_partition(doc["times"], [(s["count_lower"], s["count_upper"]) for s in segments], flow)
    for s in segments:
        radius, margin = float(s["radius"]), float(s["margin"])
        stack = np.stack([interpolate_samples(ts, mats, float(t)) for t in s["witness_grid"]])
        spectra = eigvalsh(stack)
        scale = float(np.abs(spectra).max())
        tol = MARGIN_RTOL * max(scale, margin)
        closest = float(np.minimum(np.abs(spectra - radius), np.abs(spectra + radius)).min())
        where = f"segment [{s['t_lower']}, {s['t_upper']}]"
        require(closest >= margin - tol, f"{where}: +/-radius within {closest:.6e} < margin {margin:.6e}")
        require(closest <= margin + tol, f"{where}: closest approach {closest:.6e} != recorded margin {margin:.6e}")
        inside = np.count_nonzero(np.abs(spectra) <= radius, axis=1)
        require(
            bool(np.all(inside == int(s["symmetric_count"]))),
            f"{where}: symmetric counts {sorted(set(inside.tolist()))} != {s['symmetric_count']}",
        )


def check_component_report(
    eigvalsh,
    doc: dict,
    k: int,
    basepoint: np.ndarray,
    endpoints: list[np.ndarray],
) -> None:
    """Check a ``specflow components`` report against rebuilt endpoints.

    ``k`` pairwise-distinct flows, one pair per ``i < j`` with
    ``segment_flow = flow_j - flow_i``, each flow equal to the endpoint
    formula from the basepoint, and at each ``singular_t`` the operator
    ``(1-t) A_i + t A_j`` singular to ``SINGULAR_RTOL`` of its radius.
    """
    require(doc.get("kind") == "component-report", f"document kind {doc.get('kind')!r}")
    flows = [int(f) for f in doc["flows"]]
    require(len(flows) == k, f"{len(flows)} flows reported, expected {k}")
    require(len(set(flows)) == k, f"flows are not pairwise distinct: {flows}")
    require(len(endpoints) == k, f"{len(endpoints)} rebuilt endpoints, expected {k}")
    for idx, (f, end) in enumerate(zip(flows, endpoints)):
        expected = endpoint_flow(eigvalsh, basepoint, end)
        require(f == expected, f"path {idx}: flow {f} != endpoint formula {expected}")
    pairs = doc["pairs"]
    want = {(i, j) for i in range(k) for j in range(i + 1, k)}
    got = [(int(p["i"]), int(p["j"])) for p in pairs]
    require(len(got) == len(want) and set(got) == want, f"{len(got)} pairs reported, expected {len(want)}")
    for p in pairs:
        i, j = int(p["i"]), int(p["j"])
        require(
            (int(p["flow_i"]), int(p["flow_j"])) == (flows[i], flows[j]),
            f"pair ({i}, {j}) restates flows {p['flow_i']}, {p['flow_j']}",
        )
        require(
            int(p["segment_flow"]) == flows[j] - flows[i],
            f"pair ({i}, {j}): segment flow {p['segment_flow']} != {flows[j] - flows[i]}",
        )
        t = float(p["singular_t"])
        vals = np.abs(eigvalsh((1.0 - t) * endpoints[i] + t * endpoints[j]))
        require(
            vals.min() < SINGULAR_RTOL * vals.max(),
            f"pair ({i}, {j}): operator at t={t!r} is not singular "
            f"(min |eig| {vals.min():.3e}, radius {vals.max():.3e})",
        )
