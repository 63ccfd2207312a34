"""Experiment configuration: schema validation and family construction.

A path enters the CLI either as a closed-form family block (baer, circle,
random, glue) or as a sampled list of (t, matrix) pairs interpolated
linearly; both forms round-trip through JSON.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
import struct
from dataclasses import fields
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .components import build_distinct_paths, default_component_setup
from .errors import SpectralFlowError
from .families import BaerFamilySpec, baer_family, circle_family, random_family
from .flow import FlowOptions
from .gluing import GluingSpec, glue
from .operators import SelfAdjointOperator
from .paths import OperatorPath, _Reparametrized, straight_segment

__all__ = [
    "ConfigError",
    "load_schema",
    "validate_config",
    "read_config_file",
    "load_config_file",
    "merge_config",
    "flow_options_from_config",
    "build_family_path",
    "sampled_path",
    "path_descriptor",
    "path_samples_to_json",
    "components_from_config",
    "DEFAULT_GLUE_BASE",
    "DEFAULT_GLUE_EPSILON",
]

DEFAULT_GLUE_BASE = (-7.0, -3.0, 3.0, 7.0)
DEFAULT_GLUE_EPSILON = 0.4

# What the engine raises on input the schema accepts: a value no path or
# option allows, or an integer literal too large for float64.
_INPUT_ERRORS = (ValueError, OverflowError)


class ConfigError(SpectralFlowError):
    """Configuration file or flags failed validation."""


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by stem name."""
    text = resources.files("specflow.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def _is_json_integer(checker, instance) -> bool:
    # The schema's "integer" is a JSON integer: not 64.0, which the draft
    # itself accepts, and not true.
    return isinstance(instance, int) and not isinstance(instance, bool)


@functools.cache
def _schema_validator(name: str):
    # The schema is checked against its metaschema once per process.
    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    checker = cls.TYPE_CHECKER.redefine("integer", _is_json_integer)
    return jsonschema.validators.extend(cls, type_checker=checker)(schema)


def _validate(doc: dict, name: str) -> None:
    """Check ``doc`` against the shipped schema ``name``.

    Raises the same best-matching :class:`jsonschema.ValidationError` as
    :func:`jsonschema.validate`.
    """
    error = jsonschema.exceptions.best_match(_schema_validator(name).iter_errors(doc))
    if error is not None:
        raise error


# The entry types json.loads produces; any other type takes the full rule.
_JSON_NUMBERS = frozenset({int, float})


def _check_document(doc: dict, name: str, what: str) -> None:
    """Check ``doc`` against the shipped schema ``name``.

    A failure raises :class:`ConfigError`, naming ``what`` and where it fails.
    """
    try:
        _validate(doc, name)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{what} invalid at {where}: {exc.message}") from exc


def _is_number(value) -> bool:
    # jsonschema's own "number" rule, so numpy scalars pass too.
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


def _check_sampled_matrices(samples: list[dict]) -> None:
    """Entries of schema-valid sampled matrices are numbers.

    The first entry that is not a number is named as the schema named it:
    samples in order, the ``imag`` part before ``real`` (the order of
    jsonschema's error paths), rows in order.  Row lengths and part shapes
    are checked when the matrix is built, by :func:`_matrix_from_json`.
    """
    for k, sample in enumerate(samples):
        where = f"family/samples/{k}/matrix"
        matrix = sample["matrix"]
        if isinstance(matrix, dict):
            parts = [(f"{where}/imag", matrix["imag"]), (f"{where}/real", matrix["real"])]
        else:
            parts = [(where, matrix)]
        for at, rows in parts:
            for i, row in enumerate(rows):
                if not _JSON_NUMBERS.issuperset(map(type, row)):
                    for j, value in enumerate(row):
                        if not _is_number(value):
                            raise ConfigError(
                                f"config invalid at {at}/{i}/{j}: {value!r} is not of type 'number'"
                            )


def validate_config(config: dict) -> None:
    """Check ``config`` against the experiment-config schema.

    The schema checks the structure of a sampled matrix and its entries
    are checked here in one pass, after the schema; its shapes are checked
    when the path is built.
    """
    _check_document(config, "experiment-config", "config")
    family = config.get("family", {})
    if family.get("kind") == "sampled":
        _check_sampled_matrices(family["samples"])


def read_config_file(path: str | Path, what: str = "config file") -> dict:
    """Read and parse a JSON object without schema validation; ``what`` names the file in errors."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def load_config_file(path: str | Path) -> dict:
    """Read, parse and schema-validate a config file."""
    config = read_config_file(path)
    validate_config(config)
    return config


def merge_config(base: dict, overlay: dict) -> dict:
    """Overlay CLI flags onto a config dict (one level of nesting)."""
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for key, value in overlay.items():
        if value is None:
            continue
        if isinstance(value, dict):
            slot = merged.setdefault(key, {})
            for k2, v2 in value.items():
                if v2 is not None:
                    slot[k2] = v2
        else:
            merged[key] = value
    return merged


def flow_options_from_config(config: dict) -> FlowOptions:
    block = config.get("flow_options", {})
    known = {f.name for f in fields(FlowOptions)}
    unknown = set(block) - known
    if unknown:
        raise ConfigError(f"unknown flow options: {sorted(unknown)}")
    try:
        return FlowOptions(**block)
    except _INPUT_ERRORS as exc:
        raise ConfigError(str(exc)) from exc


def _matrix_part(rows, where: str) -> np.ndarray:
    """One real matrix of a sampled block; a ragged row raises :class:`ConfigError`."""
    try:
        return np.asarray(rows, dtype=np.float64)
    except ValueError:
        if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
            for i, row in enumerate(rows):
                if len(row) != len(rows[0]):
                    raise ConfigError(
                        f"config invalid at {where}/{i}: row has {len(row)} entries, "
                        f"row 0 has {len(rows[0])}"
                    ) from None
        raise


def _matrix_from_json(obj, where: str) -> np.ndarray:
    """The matrix of a sampled block at config path ``where``.

    Row lengths, then the shapes of the ``imag`` and ``real`` parts, must
    agree; a mismatch raises :class:`ConfigError` naming the place, so
    parts of different shapes are never broadcast.
    """
    if isinstance(obj, dict):
        imag = _matrix_part(obj["imag"], f"{where}/imag")
        real = _matrix_part(obj["real"], f"{where}/real")
        if real.shape != imag.shape:
            raise ConfigError(
                f"config invalid at {where}: real part has shape {real.shape}, "
                f"imag part has shape {imag.shape}"
            )
        return real + 1j * imag
    return _matrix_part(obj, where)


def _matrix_to_json(entries: np.ndarray):
    if np.iscomplexobj(entries):
        return {"real": entries.real.tolist(), "imag": entries.imag.tolist()}
    return entries.tolist()


class _SampledPath(_Reparametrized):
    """A path built by :func:`sampled_path`; ``_knots`` keeps its ``(t, matrix)`` pairs as given."""

    __slots__ = ("_knots",)


def sampled_path(samples: list[tuple[float, np.ndarray]]) -> OperatorPath:
    """Path through sampled operators with linear interpolation.

    Sample times must be strictly increasing and cover [0, 1].  Each knot
    interval is read off its own :func:`straight_segment`, with its own
    row cache, and ``at(t)`` keeps the dtype of the interval's knots, so a
    real interval exports as real.  The gauge is the cumulative
    ``||M_{k+1} - M_k||_2`` (each segment's ``lipschitz``) across the
    knots, linear on each interval.  Like every composite, the path has no
    ``lipschitz`` of its own.  The path keeps the knots' times and
    matrices as given, unsymmetrized, for :func:`path_descriptor`.
    """
    if len(samples) < 2:
        raise ConfigError("sampled path needs at least two samples")
    ts = np.array([float(t) for t, _ in samples])
    if not np.all(np.diff(ts) > 0):
        raise ConfigError("sample times must be strictly increasing")
    if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise ConfigError("sampled path must cover t=0 and t=1")
    knots = []
    for t, m in samples:
        try:
            knots.append(SelfAdjointOperator(m))
        except ValueError as exc:
            raise ConfigError(f"{exc} at t={float(t)!r}") from exc
    dim = knots[0].dim
    k = next((k for k, op in enumerate(knots) if op.dim != dim), None)
    if k is not None:
        raise ConfigError(
            f"all sampled matrices must share one dimension: dimension {knots[k].dim} "
            f"at t={float(ts[k])!r}, dimension {dim} at t={float(ts[0])!r}"
        )
    segments = [straight_segment(p, q) for p, q in zip(knots, knots[1:])]
    norms = np.array([seg.lipschitz for seg in segments])
    offsets = np.concatenate([[0.0], np.cumsum(norms)[:-1]])

    def locate(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The interval of each parameter and its place in it.  End knots
        # within 1e-12 of 0 and 1 extrapolate their intervals.
        j = np.clip(np.searchsorted(ts, params, side="right") - 1, 0, len(segments) - 1)
        return j, (params - ts[j]) / (ts[j + 1] - ts[j])

    def route(params: np.ndarray):
        j, u = locate(params)
        out = []
        for k in np.unique(j).tolist():
            idx = np.flatnonzero(j == k)
            out.append((segments[k], idx.tolist(), u[idx]))
        return out

    def gauge(params: np.ndarray) -> np.ndarray:
        j, u = locate(params)
        return offsets[j] + norms[j] * u

    path = _SampledPath(dim, route, gauge)
    path._knots = [(float(t), np.asarray(m)) for t, m in samples]
    return path


def path_descriptor(family: dict, path: OperatorPath, default_seed: int = 0) -> dict:
    """The ``path`` block of a flow certificate for a validated family block and its built path.

    A closed-form block is echoed as it stands, and a ``random`` or
    ``glue`` block without a ``seed`` gains the seed its path was built
    with, ``default_seed`` as :func:`build_family_path` takes it, so a
    certificate names the path it certifies.  A sampled block is named
    by its dimension, its knot count and a sha256 of its numbers: for each
    knot in order, ``t`` as a little-endian float64, then the matrix as
    given (``real + 1j * imag``, or a real matrix with zero imaginary part)
    as little-endian complex128 in C order.  So the digest depends on the
    numbers, not on how the JSON spells them.  ``specflow flow`` writes this
    block and ``specflow verify`` compares a certificate's against it.
    """
    kind = family.get("kind")
    if kind in ("random", "glue") and "seed" not in family:
        return {**family, "seed": default_seed}
    if kind != "sampled":
        return family
    digest = hashlib.sha256()
    for t, matrix in path._knots:
        digest.update(struct.pack("<d", t))
        digest.update(np.ascontiguousarray(matrix, dtype="<c16"))
    knots = len(path._knots)
    return {"kind": "sampled", "dim": path.dim, "knots": knots, "sha256": digest.hexdigest()}


def path_samples_to_json(path: OperatorPath, grid: int) -> dict:
    """Serialize a path as a sampled family block (the JSON round-trip form).

    Each sample is built on its own, so its matrix keeps the dtype of the
    part of the path it comes from.
    """
    return {
        "kind": "sampled",
        "samples": [
            {"t": t, "matrix": _matrix_to_json(path.at(t).entries)}
            for t in np.linspace(0.0, 1.0, grid).tolist()
        ],
    }


def _given(block: dict, key: str, name: str | None = None, cast=None) -> dict:
    """``{name: cast(block[key])}`` if the block sets ``key``, else ``{}``.

    A key the block leaves out passes no argument, so the engine's own
    default applies.
    """
    if key not in block:
        return {}
    return {name or key: block[key] if cast is None else cast(block[key])}


def build_family_path(family: dict, default_seed: int = 0) -> OperatorPath:
    """Construct the operator path described by a validated family block.

    A block the schema accepts but no path satisfies (a sampled matrix that
    is not Hermitian, say) raises :class:`ConfigError`.
    """
    kind = family.get("kind")
    try:
        if kind == "baer":
            return baer_family(
                BaerFamilySpec(m=family["m"], **_given(family, "background", cast=tuple))
            )
        if kind == "circle":
            return circle_family(
                modes=family["modes"],
                winding=family["winding"],
                **_given(family, "shift", "spin_shift", float),
            )
        if kind == "random":
            return random_family(
                dim=family["dim"],
                seed=family.get("seed", default_seed),
                **_given(family, "invertible_ends"),
            )
        if kind == "glue":
            spec = GluingSpec(
                base=family.get("base_spectrum", DEFAULT_GLUE_BASE),
                sphere_family=BaerFamilySpec(
                    m=family["m"], **_given(family, "background", cast=tuple)
                ),
                epsilon=float(family.get("epsilon", DEFAULT_GLUE_EPSILON)),
                seed=family.get("seed", default_seed),
            )
            return glue(spec).path
        if kind == "sampled":
            samples = [
                (s["t"], _matrix_from_json(s["matrix"], f"family/samples/{k}/matrix"))
                for k, s in enumerate(family["samples"])
            ]
            return sampled_path(samples)
    except _INPUT_ERRORS as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown family kind {kind!r}")


def components_from_config(config: dict, options: FlowOptions):
    """Run the distinct-components induction described by the config."""
    block = dict(config.get("components", {}))
    k = block.pop("k", None)
    if k is None:
        raise ConfigError("components command needs k >= 1")
    block.setdefault("seed", config.get("seed", 0))
    # The schema limits the block to k and the parameters of default_component_setup.
    basepoint, generator = default_component_setup(**block)
    return build_distinct_paths(k, generator, basepoint, options)
