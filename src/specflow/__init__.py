"""specflow: certified spectral flow for paths of finite self-adjoint operators.

The engine computes the integer flow of an operator path from a certified
partition (windows with verified margins, counts constant on witness
grids), provides model families (crossing families, circle Dirac
operators, merged perturbed spectra), an independent brute-force oracle,
and a certifier that distinct flows force distinct path components of the
invertible locus in the convex model.
"""

from __future__ import annotations

from .errors import (
    BoundaryAmbiguity,
    CertificateBroken,
    DepthExceeded,
    EigensolverError,
    EndpointMismatch,
    GeneratorFailure,
    InvalidSpec,
    ResolutionWarning,
    SpectralFlowError,
    WindowCountViolation,
)
from .operators import SelfAdjointOperator, Spectrum
from .paths import (
    Homotopy,
    OperatorPath,
    add,
    affine_homotopy,
    concat,
    constant_path,
    matrix_path,
    reparametrize,
    reverse,
    straight_segment,
)
from .flow import (
    FlowCertificate,
    FlowOptions,
    SegmentWitness,
    spectral_flow,
)
from .families import (
    BaerFamilySpec,
    CircleDiracSpec,
    baer_family,
    circle_dirac,
    circle_family,
    invertible_valued_family,
    random_family,
)
from .gluing import GluingSpec, WindowCountReport, glue, window_count_constancy
from .components import (
    ComponentCertification,
    ComponentReport,
    LedgerEntry,
    PairCertificate,
    build_distinct_paths,
    certify_distinct_components,
    default_component_setup,
)
from .oracle import CrossingRecord, OracleResult, oracle_flow
from .properties import PropertyCheck, PropertyReport, check_flow_properties

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
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
    # operators
    "SelfAdjointOperator",
    "Spectrum",
    # paths
    "OperatorPath",
    "Homotopy",
    "matrix_path",
    "constant_path",
    "straight_segment",
    "concat",
    "add",
    "reverse",
    "affine_homotopy",
    "reparametrize",
    # flow
    "FlowOptions",
    "SegmentWitness",
    "FlowCertificate",
    "spectral_flow",
    # families
    "BaerFamilySpec",
    "CircleDiracSpec",
    "baer_family",
    "circle_dirac",
    "circle_family",
    "random_family",
    "invertible_valued_family",
    # gluing
    "GluingSpec",
    "WindowCountReport",
    "glue",
    "window_count_constancy",
    # components
    "LedgerEntry",
    "ComponentReport",
    "PairCertificate",
    "ComponentCertification",
    "build_distinct_paths",
    "certify_distinct_components",
    "default_component_setup",
    # oracle
    "CrossingRecord",
    "OracleResult",
    "oracle_flow",
    # properties
    "PropertyCheck",
    "PropertyReport",
    "check_flow_properties",
]
