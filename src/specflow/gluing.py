"""Window-preserving spectrum merge under bounded perturbation.

Models the gluing step: the spectrum of a base operator (empty inside the
window [-2, 2]) is merged with a crossing-family spectrum, and every
merged eigenvalue is perturbed by a smooth seeded amount strictly inside
(-epsilon, epsilon).  The merge preserves the window count and keeps +/-2
off the spectrum, so the flow of the merged path equals the crossing
multiplicity m + 1 > m.

Only the net count is m + 1: a crossing slot need not be monotone.  The
noise slope reaches 21 * epsilon (smoothstep slope 1.5, 7 knot intervals,
knot values in [-1, 1]) against the crossing's slope of 2, so at
epsilon = 0.4 a slot can cross zero up, down and up again.  Two such
crossings of opposite sign can fall in one cell of a sampling grid and
cancel there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .families import WINDOW_RADIUS, BaerFamilySpec, crossing_eigenvalues
from .operators import Spectrum
from .paths import OperatorPath

__all__ = [
    "GluingSpec",
    "glue",
    "WINDOW_RADIUS",
]

_NOISE_KNOTS = 8
# Keeps the perturbation strictly below epsilon even when a knot draws the
# extreme of the uniform range.
_NOISE_HEADROOM = 1.0 - 1e-12


@dataclass(frozen=True, eq=False)
class GluingSpec:
    """Inputs of the merge: base spectrum, crossing family, noise level.

    ``base`` is given as any sequence of eigenvalues and stored as its
    checked row (:func:`operators.Spectrum`: sorted, finite, read-only
    float64).  It must avoid [-2, 2] entirely, and epsilon must stay below
    half the minimal distance of any merged eigenvalue to +/-2 so the
    window count survives the perturbation.  A spec compares and hashes
    by identity, since a row has no truth value to compare by.
    """

    base: np.ndarray
    sphere_family: BaerFamilySpec
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "base", Spectrum(self.base))
        for v in self.base:
            if abs(v) <= WINDOW_RADIUS:
                raise InvalidSpec(
                    f"base eigenvalue {float(v)!r} lies in [-2, 2]; rescale the base "
                    "spectrum out of the window first"
                )
        if not 0.0 <= self.epsilon < 0.5:
            raise InvalidSpec(f"epsilon must satisfy 0 <= epsilon < 1/2, got {self.epsilon!r}")
        if self.epsilon >= self.min_boundary_gap / 2:
            raise InvalidSpec(
                f"epsilon {self.epsilon!r} is not below half the minimal gap "
                f"{self.min_boundary_gap:.6g} between merged eigenvalues and +/-2"
            )

    @property
    def min_boundary_gap(self) -> float:
        """Minimal distance of any merged eigenvalue (over all t) to +/-2.

        The crossing eigenvalue contributes 1 (attained at the endpoints);
        static eigenvalues contribute their distance to the boundary.
        """
        static = np.concatenate([np.asarray(self.sphere_family.background), self.base])
        gap = 1.0
        if static.size:
            gap = min(gap, float(np.abs(np.abs(static) - WINDOW_RADIUS).min()))
        return gap

    @property
    def dim(self) -> int:
        return self.sphere_family.dim + len(self.base)


def _noise(ts: np.ndarray, knots: np.ndarray) -> np.ndarray:
    # Cubic-smoothstep interpolation of the seeded knot values: smooth,
    # deterministic, bounded by the knot maxima.
    x = ts * (_NOISE_KNOTS - 1)
    j = np.minimum(x.astype(np.int64), _NOISE_KNOTS - 2)
    u = x - j
    w = (u * u * (3.0 - 2.0 * u))[:, None]
    lo, hi = knots[:, j].T, knots[:, j + 1].T
    return lo + w * (hi - lo)


def _perturbed(ts, mult, static, knots, epsilon) -> np.ndarray:
    return crossing_eigenvalues(ts, mult, static) + epsilon * _noise(ts, knots)


class GluedPath:
    """Merged path with bounded perturbation, realized diagonally.

    Slot order: crossing block (multiplicity m + 1), then the family
    background, then the base spectrum.  ``unperturbed_values`` /
    ``perturbed_values`` expose the per-slot eigenvalue curves for
    deviation checks.
    """

    __slots__ = ("spec", "path", "_static", "_knots", "__weakref__")

    def __init__(self, spec: GluingSpec):
        self.spec = spec
        self._static = np.concatenate([np.asarray(spec.sphere_family.background), spec.base])
        rng = np.random.default_rng(spec.seed)
        self._knots = rng.uniform(-1.0, 1.0, size=(spec.dim, _NOISE_KNOTS)) * _NOISE_HEADROOM
        # The build holds the arrays it needs and not self, so a glued
        # path and its cached rows are freed by reference counting.
        args = (spec.sphere_family.multiplicity, self._static, self._knots, spec.epsilon)

        def build(ts: np.ndarray) -> np.ndarray:
            return _perturbed(ts, *args)

        lip = 2.0 + spec.epsilon * 1.5 * (_NOISE_KNOTS - 1) * 2.0
        self.path = OperatorPath(spec.dim, build, lipschitz=lip)

    def _curves(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mult = self.spec.sphere_family.multiplicity
        return (
            crossing_eigenvalues(ts, mult, self._static),
            _perturbed(ts, mult, self._static, self._knots, self.spec.epsilon),
        )

    def unperturbed_values(self, t: float) -> np.ndarray:
        return self._curves(np.array([float(t)]))[0][0]

    def perturbed_values(self, t: float) -> np.ndarray:
        return self._curves(np.array([float(t)]))[1][0]

    def max_deviation(self, grid: int = 101) -> float:
        """Largest |perturbed - unperturbed| over a parameter grid."""
        unperturbed, perturbed = self._curves(np.linspace(0.0, 1.0, grid))
        return float(np.abs(perturbed - unperturbed).max())


def glue(spec: GluingSpec) -> GluedPath:
    """Build the merged, perturbed path.

    Endpoints are invertible: the crossing block sits at -1 + O(eps) and
    1 + O(eps) with eps < 1/2, and static eigenvalues stay outside the
    window.
    """
    return GluedPath(spec)

