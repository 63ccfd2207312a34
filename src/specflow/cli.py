"""Command-line front end.

Subcommands: ``flow`` (certificate for one family), ``components``
(distinct-components report), ``spectrum`` (eigenvalue curves as CSV),
``check`` (flow-axiom property suites).  Experiments are described by a
JSON config file, inline flags, or both (flags win).  Reports go to
stdout and, with ``--out DIR``, to files in that directory.

Exit codes: 0 success, 1 configuration or usage error, 2 computational
failure (uncertifiable path, ambiguous count, broken certificate, failed
property suite).  Set ``SPECFLOW_LOG`` to debug/info/warning for stderr
diagnostics.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .components import certify_distinct_components
from .config import (
    ConfigError,
    build_family_path,
    components_from_config,
    flow_options_from_config,
    merge_config,
    read_config_file,
    validate_config,
)
from .errors import (
    BoundaryAmbiguity,
    CertificateBroken,
    DepthExceeded,
    EndpointMismatch,
    GeneratorFailure,
    InvalidSpec,
    ResolutionWarning,
    SpectralFlowError,
    WindowCountViolation,
)
from .flow import spectral_flow
from .oracle import DEFAULT_GRID, _MIN_GRID, oracle_flow
from .properties import check_flow_properties
from .reporting import (
    component_report_document,
    dumps_document,
    flow_certificate_document,
    property_report_document,
    spectrum_csv,
    validate_document,
)

log = logging.getLogger("specflow")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2

_CONFIG_ERRORS = (ConfigError, InvalidSpec, EndpointMismatch)
_COMPUTE_ERRORS = (
    BoundaryAmbiguity,
    DepthExceeded,
    GeneratorFailure,
    CertificateBroken,
    ResolutionWarning,
    WindowCountViolation,
)


def _configure_logging() -> None:
    level_name = os.environ.get("SPECFLOW_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level, format="specflow %(levelname)s: %(message)s")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["baer", "circle", "random", "glue"], help="built-in family tag")
    p.add_argument("--m", type=int, help="multiplicity floor (baer, glue)")
    p.add_argument("--background", type=_csv_floats, metavar="V1,V2,...", help="background spectrum (baer, glue)")
    p.add_argument("--modes", type=int, help="Fourier modes K (circle)")
    p.add_argument("--winding", type=int, help="twist winding (circle)")
    p.add_argument("--shift", type=float, choices=[0.0, 0.5], help="spin shift (circle)")
    p.add_argument("--dim", type=int, help="dimension (random)")
    p.add_argument("--invertible-ends", action="store_true", default=None, help="shift random endpoints off zero")
    p.add_argument("--epsilon", type=float, help="perturbation bound (glue)")
    p.add_argument("--base-spectrum", type=_csv_floats, metavar="V1,V2,...", help="base spectrum (glue)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="seed for seeded families")
    p.add_argument("--out", metavar="DIR", help="directory for report files")
    p.add_argument("--init-samples", type=int, dest="init_samples", help="initial partition segments")
    p.add_argument("--max-depth", type=int, dest="max_depth", help="bisection depth limit")


def _oracle_block(path, grid: int) -> dict:
    res = oracle_flow(path, grid=grid)
    return {
        "flow": res.flow,
        "grid": res.grid,
        "crossings": [
            {
                "t_lower": r.t_lower,
                "t_upper": r.t_upper,
                "direction": r.direction,
                "refined_t": r.refined_t,
            }
            for r in res.crossings
        ],
    }


def _family_block_from_args(args: argparse.Namespace) -> dict | None:
    if args.family is None:
        return None
    block: dict = {"kind": args.family}
    mapping = {
        "baer": {"m": args.m, "background": args.background},
        "circle": {"modes": args.modes, "winding": args.winding, "shift": args.shift},
        "random": {"dim": args.dim, "seed": args.seed, "invertible_ends": args.invertible_ends},
        "glue": {
            "m": args.m,
            "background": args.background,
            "epsilon": args.epsilon,
            "base_spectrum": args.base_spectrum,
            "seed": args.seed,
        },
    }
    for key, value in mapping[args.family].items():
        if value is not None:
            block[key] = value
    return block


def _assemble_config(args: argparse.Namespace, extra: dict | None = None) -> dict:
    # The merged document is validated once below; the file alone is not.
    config = read_config_file(args.config) if args.config else {}
    overlay: dict = {}
    family = _family_block_from_args(args) if hasattr(args, "family") else None
    if family is not None:
        overlay["family"] = family
    if getattr(args, "seed", None) is not None:
        overlay["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overlay["out"] = args.out
    if getattr(args, "grid", None) is not None:
        overlay["grid"] = args.grid
    flow_opts = {
        "init_samples": getattr(args, "init_samples", None),
        "max_depth": getattr(args, "max_depth", None),
    }
    if any(v is not None for v in flow_opts.values()):
        overlay["flow_options"] = flow_opts
    if extra:
        overlay.update(extra)
    merged = merge_config(config, overlay)
    validate_config(merged)
    return merged


def _emit(text: str, config: dict, filename: str) -> None:
    sys.stdout.write(text)
    out = config.get("out")
    if out:
        directory = Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / filename
        target.write_text(text)
        log.info("wrote %s", target)


def cmd_flow(config: dict, with_oracle: bool = False) -> int:
    family = config.get("family")
    if family is None:
        raise ConfigError("flow command needs a family (config file or --family)")
    options = flow_options_from_config(config)
    grid = config.get("grid", DEFAULT_GRID)
    if with_oracle and grid < _MIN_GRID:
        raise ConfigError(f"oracle grid must be at least {_MIN_GRID}, got {grid!r}")
    path = build_family_path(family, config.get("seed", 0))
    cert = spectral_flow(path, options)
    doc = flow_certificate_document(cert, path_descriptor=family)
    if with_oracle:
        doc["oracle"] = _oracle_block(path, grid)
        if doc["oracle"]["flow"] != cert.flow:
            raise CertificateBroken(
                f"oracle flow {doc['oracle']['flow']} disagrees with the certified "
                f"flow {cert.flow}"
            )
    validate_document(doc)
    _emit(dumps_document(doc), config, "flow-certificate.json")
    return EXIT_OK


def cmd_components(config: dict) -> int:
    options = flow_options_from_config(config)
    report = components_from_config(config, options)
    certification = certify_distinct_components(report, options)
    doc = component_report_document(report, certification, options)
    validate_document(doc)
    _emit(dumps_document(doc), config, "component-report.json")
    return EXIT_OK


def cmd_spectrum(config: dict) -> int:
    family = config.get("family")
    if family is None:
        raise ConfigError("spectrum command needs a family (config file or --family)")
    path = build_family_path(family, config.get("seed", 0))
    text = spectrum_csv(path, config.get("grid", 101))
    _emit(text, config, "spectrum.csv")
    return EXIT_OK


def cmd_check(config: dict) -> int:
    options = flow_options_from_config(config)
    block = config.get("check", {})
    report = check_flow_properties(
        seed=config.get("seed", 0),
        invertible_paths=block.get("invertible_paths", 100),
        concat_pairs=block.get("concat_pairs", 100),
        homotopies=block.get("homotopies", 50),
        slices=block.get("slices", 11),
        options=options,
    )
    doc = property_report_document(report)
    validate_document(doc)
    _emit(dumps_document(doc), config, "property-report.json")
    return EXIT_OK if report.passed else EXIT_COMPUTE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specflow",
        description="Certified spectral flow for paths of finite self-adjoint operators.",
    )
    parser.add_argument("--version", action="version", version=f"specflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="compute a flow certificate for one family")
    _add_common_flags(p_flow)
    _add_family_flags(p_flow)
    p_flow.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    p_flow.add_argument("--grid", type=int, help="oracle grid (with --oracle)")

    p_comp = sub.add_parser("components", help="build and certify distinct-component paths")
    _add_common_flags(p_comp)
    p_comp.add_argument("--k", type=int, help="number of paths to construct")
    p_comp.add_argument("--ambient-dim", type=int, dest="ambient_dim", help="fixed operator dimension")
    p_comp.add_argument("--epsilon", type=float, help="generator perturbation bound")

    p_spec = sub.add_parser("spectrum", help="emit eigenvalue curves as CSV")
    _add_common_flags(p_spec)
    _add_family_flags(p_spec)
    p_spec.add_argument("--grid", type=int, help="number of parameter samples")

    p_check = sub.add_parser("check", help="run the flow-axiom property suites")
    _add_common_flags(p_check)
    p_check.add_argument("--paths", dest="invertible_paths", type=int, help="invertible-path cases")
    p_check.add_argument("--pairs", dest="concat_pairs", type=int, help="composable-pair cases")
    p_check.add_argument("--homotopies", type=int, help="homotopy cases")
    p_check.add_argument("--slices", type=int, help="slices per homotopy")
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "flow":
            config = _assemble_config(args)
            return cmd_flow(config, with_oracle=args.oracle)
        if args.command == "components":
            comp = {
                "k": args.k,
                "ambient_dim": args.ambient_dim,
                "epsilon": args.epsilon,
                "seed": args.seed,
            }
            extra = {"components": comp} if any(v is not None for v in comp.values()) else {}
            config = _assemble_config(args, extra)
            return cmd_components(config)
        if args.command == "spectrum":
            config = _assemble_config(args)
            return cmd_spectrum(config)
        if args.command == "check":
            chk = {
                "invertible_paths": args.invertible_paths,
                "concat_pairs": args.concat_pairs,
                "homotopies": args.homotopies,
                "slices": args.slices,
            }
            extra = {"check": chk} if any(v is not None for v in chk.values()) else {}
            config = _assemble_config(args, extra)
            return cmd_check(config)
        parser.error(f"unknown command {args.command!r}")
    except _COMPUTE_ERRORS as exc:
        print(f"specflow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except _CONFIG_ERRORS as exc:
        print(f"specflow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpectralFlowError as exc:
        print(f"specflow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
