"""Concrete operator families: crossing families, circle Dirac operators,
and seeded random paths used as property-test fuel.

All families are realized diagonally (or by an explicit orthogonal
conjugation for the random invertible-valued paths), so their spectra are
exact and oracle tests stay sharp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .operators import SelfAdjointOperator, _spectrum_rows
from .paths import OperatorPath

__all__ = [
    "BaerFamilySpec",
    "CircleDiracSpec",
    "baer_family",
    "circle_dirac",
    "circle_family",
    "random_family",
    "invertible_valued_family",
    "random_symmetric",
]

# Endpoint spectra of seeded random paths clear zero by at least this much
# when invertible ends are requested.
INVERTIBLE_END_MARGIN = 1e-3

# Half-width of the counting window [-2, 2]: the crossing eigenvalue sweeps
# [-1, 1] inside it, and every static eigenvalue stays outside it.
WINDOW_RADIUS = 2.0

# Default background spectrum: outside [-2, 2] with room to spare.
DEFAULT_BACKGROUND = (5.0, -5.0, 7.0, -7.0)


@dataclass(frozen=True)
class BaerFamilySpec:
    """Crossing family: one eigenvalue of fixed multiplicity sweeps [-1, 1].

    ``m`` is the multiplicity floor; the realized multiplicity is the
    minimal choice ``m + 1``.  Background eigenvalues stay outside
    [-2, 2] for every t, so the sweeping eigenvalue is the only one in
    that window.
    """

    m: int
    background: tuple[float, ...] = DEFAULT_BACKGROUND

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise InvalidSpec(f"multiplicity floor must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "background", tuple(float(v) for v in self.background))
        for v in self.background:
            if not np.isfinite(v):
                raise InvalidSpec(f"background value {v!r} is not finite")
            if abs(v) <= WINDOW_RADIUS:
                raise InvalidSpec(
                    f"background value {v!r} lies in [-2, 2]; the crossing eigenvalue "
                    "must be the only one in the window"
                )

    @property
    def multiplicity(self) -> int:
        return self.m + 1

    @property
    def dim(self) -> int:
        return self.multiplicity + len(self.background)


def crossing_eigenvalues(ts: np.ndarray, multiplicity: int, static: np.ndarray) -> np.ndarray:
    """Rows ``(2t - 1,) * multiplicity + static``, one per parameter in ``ts``."""
    crossing = np.repeat((2.0 * ts - 1.0)[:, None], multiplicity, axis=1)
    return np.hstack([crossing, np.broadcast_to(static, (ts.size, static.size))])


def baer_family(spec: BaerFamilySpec) -> OperatorPath:
    """Path with eigenvalue 2t - 1 of multiplicity m + 1 over a fixed background."""
    mult = spec.multiplicity
    bg = np.asarray(spec.background, dtype=np.float64)

    def build(ts: np.ndarray) -> np.ndarray:
        return crossing_eigenvalues(ts, mult, bg)

    return OperatorPath(spec.dim, build, lipschitz=2.0)


@dataclass(frozen=True)
class CircleDiracSpec:
    """Circle Dirac operator in its Fourier eigenbasis.

    Modes k = -K..K give eigenvalues k + spin_shift + twist, each simple.
    ``spin_shift`` 0 is the trivial spin structure (a zero mode at zero
    twist), 1/2 the nontrivial one.
    """

    modes: int
    spin_shift: float = 0.5
    twist: float = 0.0

    def __post_init__(self):
        if int(self.modes) != self.modes or self.modes < 1:
            raise InvalidSpec(f"modes must be a positive integer, got {self.modes!r}")
        if self.spin_shift not in (0.0, 0.5):
            raise InvalidSpec(f"spin_shift must be 0 or 0.5, got {self.spin_shift!r}")

    @property
    def dim(self) -> int:
        return 2 * self.modes + 1


def _circle_eigenvalues(spec: CircleDiracSpec, twists: np.ndarray) -> np.ndarray:
    """Rows k + spin_shift + twist, one per twist, k = -K..K."""
    k = np.arange(-spec.modes, spec.modes + 1, dtype=np.float64)
    return k + spec.spin_shift + twists[:, None]


def circle_dirac(spec: CircleDiracSpec) -> SelfAdjointOperator:
    """Diagonal realization with eigenvalues k + spin_shift + twist."""
    return SelfAdjointOperator.from_diagonal(_circle_eigenvalues(spec, np.array([spec.twist]))[0])


def circle_family(modes: int, winding: int, spin_shift: float = 0.5) -> OperatorPath:
    """Twist winding path t -> circle operator with twist = winding * t.

    Needs the nontrivial spin structure (shift 1/2) so both endpoints are
    invertible, and |winding| <= modes so every crossing mode is
    represented; the flow then equals the winding.
    """
    spec = CircleDiracSpec(modes=modes, spin_shift=spin_shift)
    if int(winding) != winding:
        raise InvalidSpec(f"winding must be an integer, got {winding!r}")
    if spec.spin_shift != 0.5:
        raise InvalidSpec("circle family needs spin_shift 0.5 for invertible endpoints")
    if abs(winding) > spec.modes:
        raise InvalidSpec(
            f"winding {winding} exceeds represented modes K={spec.modes}; "
            "crossings would leave the modeled spectrum"
        )

    def build(ts: np.ndarray) -> np.ndarray:
        return _circle_eigenvalues(spec, float(winding) * ts)

    return OperatorPath(spec.dim, build, lipschitz=float(abs(winding)))


def random_symmetric(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Symmetric part of a standard normal ``dim x dim`` draw from ``rng``."""
    g = rng.standard_normal((dim, dim))
    return (g + g.T) / 2


def _invertibility_shift(endpoint_eigs: np.ndarray, margin: float) -> float:
    """Shift mu so all endpoint eigenvalues + mu clear zero by ``margin``.

    Picks the midpoint of the pooled-spectrum gap nearest to zero that is
    wide enough, so the shift stays as small as possible.
    """
    e = np.sort(endpoint_eigs)
    if np.abs(e).min() >= margin:
        return 0.0
    candidates = [0.5 * (a + b) for a, b in zip(e[:-1], e[1:]) if b - a >= 4 * margin]
    candidates.extend([e[0] - 1.0, e[-1] + 1.0])
    x = min(candidates, key=abs)
    return -x


def random_family(dim: int, seed: int, invertible_ends: bool = False) -> OperatorPath:
    """Smooth seeded Hermitian path A + t B + sin(pi t) C.

    With ``invertible_ends`` the whole path is shifted by a multiple of
    the identity so both endpoint spectra clear zero by at least
    ``INVERTIBLE_END_MARGIN``.  Identical seeds give bitwise-identical
    samples.
    """
    if not 2 <= dim <= 32:
        raise ValueError(f"dim must be in 2..32, got {dim!r}")
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, dim)
    b = random_symmetric(rng, dim)
    c = random_symmetric(rng, dim)
    if invertible_ends:
        ends = _spectrum_rows(np.stack([a, a + b])).ravel()
        mu = _invertibility_shift(ends, INVERTIBLE_END_MARGIN)
        a = a + mu * np.eye(dim)
    return _smooth_path(a, b, c)


def _cos_variation(ts: np.ndarray) -> np.ndarray:
    """``S(t) = int_0^t pi |cos(pi s)| ds``: ``sin(pi t)`` up to 1/2, ``2 - sin(pi t)`` beyond.

    ``S`` is nondecreasing, ``S(0) = 0``, and ``|sin(pi t) - sin(pi s)| <=
    S(t) - S(s)`` for ``s <= t``, since the left side is ``|int_s^t pi
    cos(pi u) du|``.  It reads the same ``sin(pi t)`` the families build
    with.
    """
    s = np.sin(np.pi * ts)
    return np.where(ts <= 0.5, s, 2.0 - s)


def _smooth_path(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> OperatorPath:
    """Path ``A + t B + sin(pi t) C``, built in stacks.

    Its derivative ``B + pi cos(pi t) C`` has norm at most ``||B|| + pi
    |cos(pi t)| ||C||``; integrated, ``||A(t) - A(s)||_2 <= g(t) - g(s)``
    for ``s <= t`` with the gauge ``g(t) = ||B|| t + ||C|| S(t)``
    (:func:`_cos_variation`).  Its slope is ``||B||`` alone at ``t = 1/2``,
    and its total variation ``||B|| + 2 ||C||``.  ``lipschitz`` is the
    global bound ``||B|| + pi ||C||``, the largest slope of ``g``.

    The bound is exact to first order near ``t = 1/2``, so it holds for the
    computed operators and the computed ``g`` only up to rounding of order
    ``eps * g(1)``: the step ``g(t) - g(s)`` cancels values of that size,
    and the built matrices carry rounding of order ``eps * ||A(t)||``, as
    the eigenvalue distances the certifier compares with it do.
    """

    def build(ts: np.ndarray) -> np.ndarray:
        t = ts[:, None, None]
        return a + t * b + np.sin(np.pi * t) * c

    nb, nc = float(np.linalg.norm(b, 2)), float(np.linalg.norm(c, 2))
    path = OperatorPath(a.shape[0], build, lipschitz=nb + np.pi * nc)
    path._gauge = lambda ts: nb * ts + nc * _cos_variation(ts)
    return path


def _skew(g: np.ndarray) -> np.ndarray:
    return (g - g.T) / 2


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _cayley(k: np.ndarray) -> np.ndarray:
    # (I - K)(I + K)^-1 is orthogonal for skew K; I + K is always invertible.
    # k is a stack (n, d, d); each matrix is solved on its own.
    eye = np.eye(k.shape[-1])
    return _transpose(np.linalg.solve(_transpose(eye + k), _transpose(eye - k)))


def invertible_valued_family(dim: int, seed: int) -> OperatorPath:
    """Seeded random path whose operators are invertible for every t.

    Eigenvalues are prescribed bounded away from zero (|eig| in
    [0.2, 1.0]) and the eigenbasis rotates along a smooth orthogonal
    path, so the certifier sees full matrices but the flow is provably 0.

    The operator is ``Q D Q^T`` with ``Q`` the Cayley transform of ``K(t)
    = t K1 + sin(pi t) K2`` (skew) and ``D`` diagonal.  Its derivative
    ``Q' D Q^T + Q D' Q^T + Q D Q'^T`` has norm at most ``2 ||Q'|| ||D|| +
    ||D'||``.  Here ``Q' = -(I + Q) K' (I + K)^-1`` with ``||I + Q|| <= 2``
    and ``||(I + K)^-1|| <= 1`` (``I + K`` is normal with eigenvalues ``1 +
    iy``), so ``||Q'|| <= 2 ||K'|| <= 2 (||K1|| + pi |cos(pi t)| ||K2||)``;
    ``||D|| <= 1`` and ``||D'|| <= 0.4 max_i |beta_i|``.  Integrated, the
    gauge is ``g(t) = 4 (||K1|| t + ||K2|| S(t)) + 0.4 max_i |beta_i| t``
    (``S`` of :func:`_cos_variation`).  ``lipschitz`` is the global bound
    ``4 (||K1|| + pi ||K2||) + 0.4 pi``, at least every slope of ``g``, as
    ``|beta_i| <= pi``.  As for :func:`_smooth_path`, the gauge holds for
    the computed operators only up to rounding of order ``eps * g(1)``.
    """
    if not 2 <= dim <= 32:
        raise ValueError(f"dim must be in 2..32, got {dim!r}")
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=dim)
    alpha = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    beta = rng.uniform(-np.pi, np.pi, size=dim)
    k1 = _skew(rng.standard_normal((dim, dim)))
    k2 = _skew(rng.standard_normal((dim, dim)))

    idx = np.arange(dim)

    def build(ts: np.ndarray) -> np.ndarray:
        t = ts[:, None, None]
        d = np.zeros((ts.size, dim, dim))
        d[:, idx, idx] = signs * (0.6 + 0.4 * np.sin(alpha + beta * ts[:, None]))
        q = _cayley(t * k1 + np.sin(np.pi * t) * k2)
        return q @ d @ _transpose(q)

    n1, n2 = float(np.linalg.norm(k1, 2)), float(np.linalg.norm(k2, 2))
    rate = 0.4 * float(np.abs(beta).max())
    path = OperatorPath(dim, build, lipschitz=4.0 * (n1 + np.pi * n2) + 0.4 * np.pi)
    path._gauge = lambda ts: 4.0 * (n1 * ts + n2 * _cos_variation(ts)) + rate * ts
    return path
