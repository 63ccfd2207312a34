"""Report documents: JSON certificates/reports and CSV spectrum tables.

Output is deterministic byte-for-byte for a fixed input: floats are
serialized with Python's shortest round-trip representation (lossless),
dict keys keep construction order, and no timestamps or environment data
are embedded.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .components import ComponentCertification, ComponentReport
from .config import ConfigError, _validate
from .errors import CertificateBroken
from .flow import FlowCertificate, FlowOptions, SegmentWitness
from .oracle import OracleResult
from .paths import OperatorPath
from .properties import PropertyReport

__all__ = [
    "flow_certificate_document",
    "flow_certificate_from_document",
    "component_report_document",
    "property_report_document",
    "validate_document",
    "dumps_document",
    "spectrum_csv",
]

# Document kinds, each validated by the shipped schema of the same name.
_SCHEMAS = ("flow-certificate", "component-report", "property-report")


def flow_certificate_document(
    cert: FlowCertificate,
    path_descriptor: dict | None = None,
    oracle: OracleResult | None = None,
) -> dict:
    """The version 2 flow-certificate document of ``cert``.

    ``path_descriptor`` is the ``path`` block, which names the path the
    certificate holds for; ``specflow flow`` passes
    :func:`config.path_descriptor`, so a sampled path appears as its
    dimension, knot count and sha256, not as its samples.  Version 1
    echoed the samples; its documents must be regenerated to be verified.
    :func:`flow_certificate_from_document` reads the certificate back.
    """
    segments = []
    for w, (c_lo, c_hi) in zip(cert.witnesses, cert.counts):
        segments.append(
            {
                "t_lower": w.t_lower,
                "t_upper": w.t_upper,
                "radius": w.radius,
                "margin": w.margin,
                "witness_grid": list(w.grid),
                "symmetric_count": w.symmetric_count,
                "count_lower": c_lo,
                "count_upper": c_hi,
            }
        )
    doc = {
        "version": 2,
        "kind": "flow-certificate",
        "flow": cert.flow,
        "times": list(cert.times),
        "radii": list(cert.radii),
        "segments": segments,
        "options": asdict(cert.options),
    }
    if path_descriptor is not None:
        doc["path"] = path_descriptor
    if oracle is not None:
        doc["oracle"] = {
            "flow": oracle.flow,
            "grid": oracle.grid,
            "crossings": [asdict(r) for r in oracle.crossings],
        }
    return doc


def flow_certificate_from_document(doc: dict) -> FlowCertificate:
    """The certificate a schema-valid flow-certificate document records.

    Witnesses, counts, flow and options are read as written; the ``path``
    and ``oracle`` blocks are not.  The ``radii`` must repeat the segments'
    radii, or :class:`CertificateBroken` is raised.  A radius or margin
    that is not finite, or options :class:`FlowOptions` rejects, raise
    :class:`ConfigError`.
    """
    segments = doc["segments"]
    for i, seg in enumerate(segments):
        for key in ("radius", "margin"):
            if not math.isfinite(seg[key]):
                raise ConfigError(
                    f"certificate invalid at segments/{i}/{key}: {seg[key]!r} is not finite"
                )
    try:
        options = FlowOptions(**doc["options"])
    except ValueError as exc:
        raise ConfigError(f"certificate invalid at options: {exc}") from exc
    witnesses = tuple(
        SegmentWitness(
            t_lower=seg["t_lower"],
            t_upper=seg["t_upper"],
            radius=seg["radius"],
            margin=seg["margin"],
            grid=tuple(seg["witness_grid"]),
            symmetric_count=seg["symmetric_count"],
        )
        for seg in segments
    )
    if doc["radii"] != [w.radius for w in witnesses]:
        raise CertificateBroken("radii do not repeat the segments' radius")
    return FlowCertificate(
        times=tuple(doc["times"]),
        witnesses=witnesses,
        counts=tuple((seg["count_lower"], seg["count_upper"]) for seg in segments),
        flow=doc["flow"],
        options=options,
    )


def component_report_document(
    report: ComponentReport,
    certification: ComponentCertification,
    options: FlowOptions,
) -> dict:
    return {
        "version": 1,
        "kind": "component-report",
        "k": len(report.paths),
        "ambient_dim": report.basepoint.dim,
        "flows": list(report.flows),
        "ledger": [asdict(entry) for entry in report.ledger],
        "pairs": [asdict(pair) for pair in certification.pairs],
        "verdict": certification.verdict,
        "options": asdict(options),
    }


def property_report_document(report: PropertyReport) -> dict:
    return {
        "version": 1,
        "kind": "property-report",
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "cases": c.cases,
                "failures": list(c.failures),
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }


def validate_document(doc: dict) -> None:
    """Check a report document against its shipped schema."""
    kind = doc.get("kind")
    if kind not in _SCHEMAS:
        raise CertificateBroken(f"document kind {kind!r} has no shipped schema")
    _validate(doc, kind)


def dumps_document(doc: dict) -> str:
    """Canonical JSON serialization: 2-space indent, trailing newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def spectrum_csv(path: OperatorPath, grid: int) -> str:
    """Eigenvalue curves on a uniform parameter grid as CSV.

    A header row ``t,lambda_1,...``, then one line per grid point: ``t``
    and its sorted row of ``path.spectra``, comma separators, LF line
    endings.
    """
    if grid < 2:
        raise ValueError("spectrum grid must have at least 2 points")
    ts = np.linspace(0.0, 1.0, grid)
    lines = [",".join(["t"] + [f"lambda_{i + 1}" for i in range(path.dim)])]
    rows = path.spectra(ts).tolist()
    lines += (",".join(map(repr, [t, *row])) for t, row in zip(ts.tolist(), rows))
    return "\n".join(lines) + "\n"
