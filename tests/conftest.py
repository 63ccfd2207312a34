"""Shared test helpers: an eigvalsh counter and brute-force spectral checks
independent of the engine."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


class _CountingEigvalsh:
    """Counts the matrices handed to ``numpy.linalg.eigvalsh``, stacked or not.

    Solver threads call it concurrently, so the counts are updated under a lock.
    """

    def __init__(self, original):
        self.original = original
        self.calls = 0
        self.matrices = 0
        self._lock = threading.Lock()

    def __call__(self, a, *args, **kwargs):
        arr = np.asarray(a)
        stacked = 1 if arr.ndim == 2 else math.prod(arr.shape[:-2])
        with self._lock:
            self.calls += 1
            self.matrices += stacked
        return self.original(a, *args, **kwargs)


@pytest.fixture
def eigvalsh_counter(monkeypatch):
    counter = _CountingEigvalsh(np.linalg.eigvalsh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counter)
    return counter


def brute_window_count(path, t: float, radius: float) -> int:
    """Eigenvalue count in [-radius, radius] by direct eigendecomposition."""
    vals = np.linalg.eigvalsh(path.at(t).entries)
    return int(np.count_nonzero(np.abs(vals) <= radius))


def brute_min_abs(path, grid: int = 1000) -> float:
    """Smallest |eigenvalue| over a fine parameter grid."""
    return min(
        float(np.abs(np.linalg.eigvalsh(path.at(float(t)).entries)).min())
        for t in np.linspace(0.0, 1.0, grid)
    )


def brute_negative_count(path, t: float) -> int:
    return int(np.count_nonzero(np.linalg.eigvalsh(path.at(t).entries) < 0.0))


def brute_endpoint_flow(path) -> int:
    """Net zero crossings of a finite-dimensional path with invertible ends.

    In fixed finite dimension this is exactly the drop in the negative
    eigenvalue count from t=0 to t=1; an independent closed form the
    partition engine never uses.
    """
    return brute_negative_count(path, 0.0) - brute_negative_count(path, 1.0)


def mixed_matrix_path(seed: int):
    """A 3-dim ``matrix_path`` that is real up to t = 0.5, then complex."""
    from specflow import matrix_path

    rng = np.random.default_rng(seed)
    g, k = rng.standard_normal((2, 3, 3))
    h, k = (g + g.T) / 2, k - k.T

    def fn(t):
        real = np.cos(3 * t) * h + np.diag([t, -t, 2 * t])
        # An imaginary antisymmetric part grows in after t = 0.5.
        return real if t <= 0.5 else real + 1j * (t - 0.5) * k

    return matrix_path(3, fn, lipschitz=3 * np.linalg.norm(h, 2) + 2 + np.linalg.norm(k, 2))


def knot_warp(a, knots):
    """``a`` warped by the piecewise-linear bijection through the interior ``knots``, with its slope bound."""
    from specflow import reparametrize

    xs = np.concatenate([[0.0], np.sort(knots), [1.0]])
    ys = np.linspace(0.0, 1.0, xs.size)
    slope = float(np.max(np.diff(ys) / np.diff(xs)))
    return reparametrize(a, lambda t: float(np.interp(t, xs, ys)), a.lipschitz * slope)


def dense_sum(seed: int):
    """``add`` of two dense random families of one dimension."""
    from specflow import add, random_family

    dim = 2 + seed % 8
    return add(random_family(dim, seed), random_family(dim, seed + 1))


def diagonal_sum(seed: int):
    """``add`` of a crossing family and a constant diagonal shift in [-0.5, 0.5)."""
    from specflow import BaerFamilySpec, SelfAdjointOperator, add, baer_family, constant_path

    a = baer_family(BaerFamilySpec(m=1 + seed % 4))
    shift = np.random.default_rng(seed).uniform(-0.5, 0.5, a.dim)
    return add(a, constant_path(SelfAdjointOperator.from_diagonal(shift)))


def mixed_sum(seed: int):
    """``add`` of a crossing family (diagonal) and a dense random family of its dimension."""
    from specflow import BaerFamilySpec, add, baer_family, random_family

    a = baer_family(BaerFamilySpec(m=1 + seed % 4))
    return add(a, random_family(a.dim, seed))


def mixed_concat(seed: int):
    """``concat`` of a crossing family (diagonal) and a segment from its end to a dense operator."""
    from specflow import (
        BaerFamilySpec,
        baer_family,
        concat,
        invertible_valued_family,
        straight_segment,
    )

    a = baer_family(BaerFamilySpec(m=1 + seed % 4))
    return concat(a, straight_segment(a.at(1.0), invertible_valued_family(a.dim, seed).at(0.0)))


def rotated_report(neg_counts, kinds, dim: int, seed: int):
    """Component report of straight paths from a diagonal basepoint to rotated diagonals.

    Path ``k`` ends at ``U diag(v) U^H`` where ``v`` has ``neg_counts[k]``
    negative entries of magnitude in [0.5, 3] and ``U`` is the identity
    (``kinds[k] == "diagonal"``), a random orthogonal (``"real"``) or a
    random unitary (``"complex"``) matrix.  A path's flow is the drop in the
    negative count from the basepoint, so distinct ``neg_counts`` give
    pairwise-distinct flows.
    """
    from specflow import ComponentReport, SelfAdjointOperator, straight_segment

    rng = np.random.default_rng(seed)

    def values(negatives: int) -> np.ndarray:
        v = rng.uniform(0.5, 3.0, dim)
        v[rng.permutation(dim)[:negatives]] *= -1.0
        return v

    base_values = values(dim // 2)
    basepoint = SelfAdjointOperator.from_diagonal(base_values)
    paths, flows = [], []
    for negatives, kind in zip(neg_counts, kinds):
        v = values(negatives)
        if kind == "diagonal":
            end = SelfAdjointOperator.from_diagonal(v)
        else:
            g = rng.standard_normal((dim, dim))
            if kind == "complex":
                g = g + 1j * rng.standard_normal((dim, dim))
            u = np.linalg.qr(g)[0]
            end = SelfAdjointOperator((u * v) @ u.conj().T)
        paths.append(straight_segment(basepoint, end))
        flows.append(int(np.count_nonzero(base_values < 0)) - negatives)
    return ComponentReport(basepoint=basepoint, paths=tuple(paths), flows=tuple(flows), ledger=())
