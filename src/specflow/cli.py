"""Command-line front end.

Subcommands: ``flow`` (certificate for one family), ``components``
(distinct-components report), ``spectrum`` (eigenvalue curves as CSV),
``check`` (flow-axiom property suites) and ``verify`` (re-check a flow
certificate against its config).  Experiments are described by a JSON
config file, inline flags, or both (flags win).  The experiment-config
schema is the one list of keys: a flag fills the key its dest names, at
the top level, in ``flow_options`` and in its subcommand's block.
Reports go to stdout and, with ``--out DIR``, to files in that
directory, which is created or checked before any computation.

Exit codes: 0 success; 1 when the error is a ``ConfigError``,
``InvalidSpec`` or ``EndpointMismatch`` (bad configuration or usage); 2 for
every other specflow error (uncertifiable path, ambiguous count, broken
certificate) and for a failed property suite; argparse exits 2 on a flag it
rejects.  Set ``SPECFLOW_LOG`` to debug/info/warning for stderr
diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .components import certify_distinct_components
from .config import (
    ConfigError,
    _check_document,
    _schema_validator,
    build_family_path,
    components_from_config,
    flow_options_from_config,
    path_descriptor,
    read_config_file,
    validate_config,
)
from .errors import CertificateBroken, EndpointMismatch, InvalidSpec, SpectralFlowError
from .flow import FlowOptions, spectral_flow
from .oracle import DEFAULT_GRID, _MIN_GRID, oracle_flow
from .properties import check_flow_properties
from .reporting import (
    component_report_document,
    dumps_document,
    flow_certificate_document,
    flow_certificate_from_document,
    property_report_document,
    spectrum_csv,
    validate_document,
)

log = logging.getLogger("specflow")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2

# Errors that exit 1; every other SpectralFlowError exits 2.
_CONFIG_ERRORS = (ConfigError, InvalidSpec, EndpointMismatch)


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
    p.add_argument(
        "--max-depth", type=int, dest="max_depth", help="how many times refinement may halve the witness spacing"
    )


def _add_subcommand(sub, name: str, help_text: str, handler, block: str) -> argparse.ArgumentParser:
    """Subcommand with the common flags, dispatching to ``handler(config, args)``.

    ``block`` names the subcommand's own config block, which its flags
    fill beside the top level and ``flow_options``.
    """
    p = sub.add_parser(name, help=help_text)
    _add_common_flags(p)
    p.set_defaults(handler=handler, block=block)
    return p


def _assemble_config(args: argparse.Namespace) -> dict:
    """Overlay the flags on the config file, reading every key from the schema.

    A flag fills the key its dest names, in this order: in the family block
    (the ``$defs`` block of ``--family``, else of the file's family kind),
    at the top level (the schema's non-object properties), in
    ``flow_options``, and in a ``components`` or ``check`` block.  A family
    flag that kind does not list raises :class:`ConfigError`; with no kind
    the schema knows, family flags are not read.  A flag block updates a
    file block that is an object and replaces any other value, and a file
    family block of another kind than ``--family``.  The merged
    document is validated once; the file alone is not.
    """
    config = read_config_file(args.config) if args.config else {}
    schema = _schema_validator("experiment-config").schema
    props, defs = schema["properties"], schema["$defs"]

    def given(keys) -> dict:
        return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}

    overlay = [
        (None, given(key for key, prop in props.items() if prop.get("type") != "object")),
        ("flow_options", given(props["flow_options"]["properties"])),
    ]
    if args.block == "family":
        family = config.get("family")
        kind = args.family or (family.get("kind") if isinstance(family, dict) else None)
        kinds = props["family"]["properties"]["kind"]["enum"]
        if kind in kinds:
            keys = defs[kind]["properties"]
            family_keys = (key for k in kinds for key in defs[k]["properties"] if key not in props)
            stray = [key for key in given(family_keys) if key not in keys]
            if stray:
                raise ConfigError(f"--{stray[0].replace('_', '-')} does not apply to family kind {kind!r}")
            if isinstance(family, dict) and family.get("kind", kind) != kind:
                del config["family"]  # none of its keys belong to the flags' kind
            overlay.insert(0, ("family", {"kind": kind, **given(keys)}))
    elif args.block is not None:
        overlay.append((args.block, given(props[args.block]["properties"])))
    for block, values in overlay:
        if block is None:
            config.update(values)
        elif values:
            base = config.get(block)
            config[block] = {**base, **values} if isinstance(base, dict) else values
    validate_config(config)
    return config


def _check_alloc(points: int, what: str) -> None:
    """Raise ConfigError if numpy cannot allocate the ``points`` parameters of ``what``."""
    try:
        np.empty(points)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{what} is too large to allocate") from exc


def _flow_options(config: dict) -> FlowOptions:
    """The config's flow options, once the first round's witness grids can be allocated.

    Later rounds read at most 64 segments each, so only the first grows
    with the options.
    """
    options = flow_options_from_config(config)
    _check_alloc(
        options.init_samples * options.witness_points, f"init_samples {options.init_samples}"
    )
    return options


def _out_error(out, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write reports to {out}: {exc}")


def _make_out_dir(config: dict) -> None:
    """Create the report directory, if the config names one, before any computation."""
    out = config.get("out")
    if out:
        try:
            Path(out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _out_error(out, exc) from exc


def _emit(text: str, config: dict, filename: str) -> None:
    """Write the report into the ``out`` directory, if any, then to stdout."""
    out = config.get("out")
    if out:
        target = Path(out) / filename
        try:
            target.write_text(text)
        except OSError as exc:
            raise _out_error(out, exc) from exc
        log.info("wrote %s", target)
    sys.stdout.write(text)


def _report(doc: dict, config: dict) -> None:
    """Validate a report document and emit it as ``<kind>.json``."""
    validate_document(doc)
    _emit(dumps_document(doc), config, f"{doc['kind']}.json")


def cmd_flow(config: dict, args: argparse.Namespace) -> int:
    family = config.get("family")
    if family is None:
        raise ConfigError("flow command needs a family (config file or --family)")
    options = _flow_options(config)
    grid = config.get("grid", DEFAULT_GRID)
    if args.oracle:
        if grid < _MIN_GRID:
            raise ConfigError(f"oracle grid must be at least {_MIN_GRID}, got {grid!r}")
        # The oracle repeats its run on the doubled grid.
        _check_alloc(2 * grid + 1, f"grid {grid}")
    seed = config.get("seed", 0)
    path = build_family_path(family, seed)
    cert = spectral_flow(path, options)
    oracle = oracle_flow(path, grid=grid) if args.oracle else None
    if oracle is not None and oracle.flow != cert.flow:
        raise CertificateBroken(
            f"oracle flow {oracle.flow} disagrees with the certified flow {cert.flow}"
        )
    _report(flow_certificate_document(cert, path_descriptor(family, path, seed), oracle), config)
    return EXIT_OK


def cmd_verify(config: dict, args: argparse.Namespace) -> int:
    """Re-check a flow certificate against the path its config describes; stdout stays empty.

    The document must pass the version 2 schema; its ``path`` block must
    equal the config's :func:`path_descriptor`; then the certificate it
    records, with its own options, is re-checked by
    :meth:`FlowCertificate.verify`.  An ``oracle`` block is not read.
    """
    family = config.get("family")
    if family is None:
        raise ConfigError("verify command needs a family in its config")
    where = args.certificate
    doc = read_config_file(where, "certificate")
    _check_document(doc, "flow-certificate", f"certificate {where}")
    seed = config.get("seed", 0)
    path = build_family_path(family, seed)
    expected = path_descriptor(family, path, seed)
    if doc.get("path") != expected:
        raise CertificateBroken(
            f"certificate path {json.dumps(doc.get('path'))} is not the config's "
            f"{json.dumps(expected)}"
        )
    flow_certificate_from_document(doc).verify(path)
    return EXIT_OK


def cmd_components(config: dict, args: argparse.Namespace) -> int:
    options = _flow_options(config)
    report = components_from_config(config, options)
    certification = certify_distinct_components(report)
    _report(component_report_document(report, certification, options), config)
    return EXIT_OK


def cmd_spectrum(config: dict, args: argparse.Namespace) -> int:
    family = config.get("family")
    if family is None:
        raise ConfigError("spectrum command needs a family (config file or --family)")
    grid = config.get("grid", 101)
    _check_alloc(grid, f"grid {grid}")
    path = build_family_path(family, config.get("seed", 0))
    text = spectrum_csv(path, grid)
    _emit(text, config, "spectrum.csv")
    return EXIT_OK


def cmd_check(config: dict, args: argparse.Namespace) -> int:
    options = _flow_options(config)
    # The schema limits the block to parameter names of check_flow_properties.
    report = check_flow_properties(
        seed=config.get("seed", 0), options=options, **config.get("check", {})
    )
    _report(property_report_document(report), config)
    return EXIT_OK if report.passed else EXIT_COMPUTE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specflow",
        description="Certified spectral flow for paths of finite self-adjoint operators.",
    )
    parser.add_argument("--version", action="version", version=f"specflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = _add_subcommand(sub, "flow", "compute a flow certificate for one family", cmd_flow, "family")
    _add_family_flags(p_flow)
    p_flow.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    p_flow.add_argument("--grid", type=int, help="oracle grid (with --oracle)")

    p_comp = _add_subcommand(
        sub,
        "components",
        "build and certify distinct-component paths",
        cmd_components,
        "components",
    )
    p_comp.add_argument("--k", type=int, help="number of paths to construct")
    p_comp.add_argument(
        "--ambient-dim", type=int, dest="ambient_dim", help="operator dimension (default: max(24, k + 2))"
    )
    p_comp.add_argument("--epsilon", type=float, help="generator perturbation bound")

    p_spec = _add_subcommand(sub, "spectrum", "emit eigenvalue curves as CSV", cmd_spectrum, "family")
    _add_family_flags(p_spec)
    p_spec.add_argument("--grid", type=int, help="number of parameter samples")

    p_check = _add_subcommand(
        sub,
        "check",
        "run the flow-axiom property suites",
        cmd_check,
        "check",
    )
    p_check.add_argument("--paths", dest="invertible_paths", type=int, help="invertible-path cases")
    p_check.add_argument("--pairs", dest="concat_pairs", type=int, help="composable-pair cases")
    p_check.add_argument("--homotopies", type=int, help="homotopy cases")
    p_check.add_argument("--slices", type=int, help="slices per homotopy")

    p_verify = sub.add_parser("verify", help="re-check a flow certificate against its config")
    p_verify.add_argument("certificate", metavar="CERT", help="flow certificate (version 2 JSON)")
    p_verify.add_argument("--config", metavar="FILE", required=True, help="JSON experiment config")
    p_verify.set_defaults(handler=cmd_verify, block=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        config = _assemble_config(args)
        if args.command != "verify":  # the one subcommand that writes no report
            _make_out_dir(config)
        return args.handler(config, args)
    except SpectralFlowError as exc:
        print(f"specflow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, _CONFIG_ERRORS) else EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
