"""Counter gate: the exact number of matrices each fixed workload hands to ``eigvalsh``.

The counts are machine-independent, so a change that makes any of them
larger solves more than it needs to.  A change that lowers one on purpose
updates the table here and says so in CHANGES.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from specflow import (
    SelfAdjointOperator,
    affine_homotopy,
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


def _components(tmp_path):
    assert main(["components", "--k", "4", "--out", str(tmp_path)]) == 0


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
    "components --k 4": _components,
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
    "components --k 4": 0,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_eigensolve_count(name, eigvalsh_counter, tmp_path, capsys):
    CASES[name](tmp_path)
    assert eigvalsh_counter.matrices == EIGENSOLVES[name]
