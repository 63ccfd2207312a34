"""Exception types raised by the spectral-flow engine.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (wrong shapes, non-finite input) raises plain
``ValueError``.
"""

from __future__ import annotations

__all__ = [
    "SpectralFlowError",
    "BoundaryAmbiguity",
    "DepthExceeded",
    "EndpointMismatch",
    "InvalidSpec",
    "GeneratorFailure",
    "CertificateBroken",
    "ResolutionWarning",
    "EigensolverError",
    "WindowCountViolation",
]


class SpectralFlowError(Exception):
    """Base class for all engine-specific errors."""


class BoundaryAmbiguity(SpectralFlowError):
    """An eigenvalue sits too close to a counting boundary.

    Counts on an interval are only reliable when both endpoints are
    bounded away from the spectrum; the caller must move the endpoint.
    """


class DepthExceeded(SpectralFlowError):
    """Recursive bisection hit its depth limit without certifying a segment.

    The message names the segment and the first of six reasons its last
    attempt was rejected for, in the order they are tested:

    - all zero: every witnessed eigenvalue is zero;
    - margin floor: the margin is below ``min_margin`` times the largest
      witnessed magnitude;
    - Lipschitz slack: the margin does not exceed ``0.5 * L * step``;
    - window margin violated: a witnessed magnitude is closer to the window
      radius than the margin;
    - count drift: the count in the window changes over the witness grid;
    - jump across the window: the count below the window changes.

    Callers may raise ``max_depth`` or ``witness_points``, loosen
    ``min_margin``, or supply a smaller valid Lipschitz bound, depending on
    the reason.
    """


class EndpointMismatch(SpectralFlowError):
    """Path endpoints do not agree where an operation requires them to."""


class InvalidSpec(SpectralFlowError):
    """A family or gluing specification violates its invariants."""


class GeneratorFailure(SpectralFlowError):
    """A flow generator returned a path whose flow does not exceed the bound."""


class CertificateBroken(SpectralFlowError):
    """A certificate does not hold, or an internal consistency check failed.

    Raised by :meth:`FlowCertificate.verify` when the certificate does not
    hold for the path it is checked against (a stale, tampered or forged
    certificate, or another path), and by the engine's own cross-checks,
    where it indicates a bug rather than bad input.
    """


class ResolutionWarning(SpectralFlowError):
    """Doubling the oracle grid changed the result.

    Raised as a hard error: an under-resolved oracle run is never
    silently accepted.
    """


class EigensolverError(SpectralFlowError):
    """The dense eigensolver failed to converge."""


class WindowCountViolation(SpectralFlowError):
    """The eigenvalue count inside the gluing window is not constant."""

    def __init__(self, message: str, t: float | None = None, spectrum=None):
        super().__init__(message)
        self.t = t
        self.spectrum = spectrum
