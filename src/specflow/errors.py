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
]


class SpectralFlowError(Exception):
    """Base class for all engine-specific errors."""


class BoundaryAmbiguity(SpectralFlowError):
    """An eigenvalue sits too close to a counting boundary.

    Counts on an interval are only reliable when both endpoints are
    bounded away from the spectrum; the caller must move the endpoint.
    """


class DepthExceeded(SpectralFlowError):
    """Refinement hit its depth limit without certifying a segment.

    The message names the segment and the first of six reasons its last
    attempt was rejected for, in the order they are tested:

    - all zero: every witnessed eigenvalue is zero;
    - margin floor: the margin is below ``min_margin`` times the largest
      witnessed magnitude;
    - Lipschitz slack: on some witness interval, an eigenvalue's two
      distances to the window edge sum to no more than the gauge step
      ``L * step``, so by Weyl's inequality it could reach the edge between
      the witnesses (the message names the interval, the eigenvalue
      counted from 0 at the lowest, both distances, their sum and ``L``);
    - window margin violated: a witnessed magnitude is closer to the window
      radius than the margin;
    - count drift: the count in the window changes over the witness grid;
    - jump across the window: the count below the window changes.

    It ends with the flow that endpoint inertia gives, ``neg(A(0)) -
    neg(A(1))`` counted outside the zero band: for a continuous path of
    finite matrices that is the flow, so it tells what a certificate would
    have shown.

    The cost of a failing flow: it reads the first round and every segment
    left of the failure, which any order of refinement must read.  Each
    later round reads the leftmost 64 pending segments, so it reads right
    of the failure only while it holds one of the at most ``max_depth + 1``
    later segments of the failing branch.  So beyond those a failing flow
    solves at most ``128 * (max_depth + 1)`` rows, 2,688 at the defaults.
    A path rejected everywhere comes near that order: at the defaults the
    1 x 1 zero path solves 705 rows.

    The segment at the limit is witnessed at its two ends alone, so
    ``witness_points``, which sets the grid of the initial segments only,
    does not move it.  Callers may raise ``max_depth`` (each level halves
    the witness spacing), loosen ``min_margin``, or supply a smaller valid
    Lipschitz bound to the base path (its ``lipschitz=``; a composite
    derives its gauge from its parts), depending on the reason.
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

