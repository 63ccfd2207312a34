"""Randomized verification suites for the flow axioms.

Four checks: vanishing on invertible-valued paths, additivity under
concatenation, antisymmetry under reversal, and constancy across affine
homotopies with invertible ends.  Flows are integers, so every assertion
is exact; failures record the offending case seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .components import _singular
from .families import _smooth_path, invertible_valued_family, random_family, random_symmetric
from .flow import FlowOptions, spectral_flow
from .paths import Homotopy, OperatorPath, add, concat, reverse

__all__ = ["PropertyCheck", "PropertyReport", "check_flow_properties"]

DEFAULT_DIMS = tuple(range(2, 13))


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    cases: int
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _case_seed(base: int, index: int) -> int:
    return base * 100000 + index


def _extension_path(a: OperatorPath, seed: int) -> OperatorPath:
    """Path starting exactly at a(1): fuel for composable pairs."""
    rng = np.random.default_rng(seed)
    b = random_symmetric(rng, a.dim)
    c = random_symmetric(rng, a.dim)
    return _smooth_path(a.at(1.0).entries, b, c)


def _perturbation_homotopy(a: OperatorPath, seed: int) -> Homotopy:
    """Straight-line homotopy from ``a`` to ``a + sin(pi t) E``, which has ``a``'s ends.

    ``E`` is half the symmetric part of a seeded normal draw.  The bump is
    a path of its own, bounded by ``pi * ||E||_2``, and the perturbed path
    is :func:`add` of the two, built a stack at a time.
    """
    e = random_symmetric(np.random.default_rng(seed), a.dim) * 0.5
    lip = np.pi * float(np.linalg.norm(e, 2))
    bump = OperatorPath(a.dim, lambda ts: np.sin(np.pi * ts)[:, None, None] * e, lip)
    return Homotopy(a, add(a, bump))


def check_flow_properties(
    seed: int = 0,
    invertible_paths: int = 100,
    concat_pairs: int = 100,
    homotopies: int = 50,
    dims: Sequence[int] = DEFAULT_DIMS,
    slices: int = 11,
    options: FlowOptions | None = None,
) -> PropertyReport:
    """Run all four flow-axiom suites on seeded random families."""
    opts = options or FlowOptions()
    dims = tuple(dims)

    zero_failures = []
    for idx in range(invertible_paths):
        cs = _case_seed(seed, idx)
        p = invertible_valued_family(dims[idx % len(dims)], cs)
        if spectral_flow(p, opts).flow != 0:
            zero_failures.append(cs)

    additive_failures = []
    antisym_failures = []
    for idx in range(concat_pairs):
        cs = _case_seed(seed + 1, idx)
        a = random_family(dims[idx % len(dims)], cs)
        b = _extension_path(a, cs + 1)
        fa = spectral_flow(a, opts).flow
        fb = spectral_flow(b, opts).flow
        if spectral_flow(concat(a, b), opts).flow != fa + fb:
            additive_failures.append(cs)
        if spectral_flow(reverse(a), opts).flow != -fa:
            antisym_failures.append(cs)

    homotopy_failures = []
    s_grid = np.linspace(0.0, 1.0, slices)
    for idx in range(homotopies):
        cs = _case_seed(seed + 2, idx)
        a = random_family(dims[idx % len(dims)], cs, invertible_ends=True)
        h = _perturbation_homotopy(a, cs + 7)
        slice_paths = [h.slice_at(float(s)) for s in s_grid]
        # Ends are pinned in s and invertible by construction; verify at
        # every sampled slice anyway before trusting the flows.
        ends_ok = not any(_singular(row) for p in slice_paths for row in p.spectra([0.0, 1.0]))
        if not ends_ok:
            homotopy_failures.append(cs)
            continue
        flows = {spectral_flow(p, opts).flow for p in slice_paths}
        if len(flows) != 1:
            homotopy_failures.append(cs)

    return PropertyReport(
        checks=(
            PropertyCheck("invertible-paths-zero-flow", invertible_paths, tuple(zero_failures)),
            PropertyCheck("concatenation-additivity", concat_pairs, tuple(additive_failures)),
            PropertyCheck("reversal-antisymmetry", concat_pairs, tuple(antisym_failures)),
            PropertyCheck("affine-homotopy-invariance", homotopies, tuple(homotopy_failures)),
        )
    )
