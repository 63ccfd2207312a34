"""JSON documents, schema validity, and path serialization round-trips."""

from __future__ import annotations

import json
import re

import jsonschema
import numpy as np
import pytest

from specflow import (
    BaerFamilySpec,
    baer_family,
    build_distinct_paths,
    certify_distinct_components,
    check_flow_properties,
    default_component_setup,
    spectral_flow,
)
from specflow import config
from specflow.cli import main
from specflow.config import (
    ConfigError,
    build_family_path,
    load_schema,
    path_descriptor,
    sampled_path,
    validate_config,
)
from specflow.reporting import (
    component_report_document,
    dumps_document,
    flow_certificate_document,
    property_report_document,
    spectrum_csv,
    validate_document,
)
from specflow.flow import FlowOptions


class TestDocuments:
    def test_flow_certificate_document_valid(self):
        cert = spectral_flow(baer_family(BaerFamilySpec(m=2)))
        doc = flow_certificate_document(cert, path_descriptor={"kind": "baer", "m": 2})
        validate_document(doc)
        assert doc["version"] == 2
        assert doc["kind"] == "flow-certificate"
        assert doc["flow"] == 3
        assert len(doc["segments"]) == len(doc["radii"])

    def test_component_report_document_valid(self):
        basepoint, gen = default_component_setup(ambient_dim=16, seed=0)
        report = build_distinct_paths(3, gen, basepoint)
        cert = certify_distinct_components(report)
        doc = component_report_document(report, cert, FlowOptions())
        validate_document(doc)
        assert doc["k"] == 3
        assert len(doc["pairs"]) == 3

    def test_property_report_document_valid(self):
        report = check_flow_properties(seed=0, invertible_paths=3, concat_pairs=3, homotopies=1)
        doc = property_report_document(report)
        validate_document(doc)
        assert doc["passed"] is True

    def test_dumps_round_trip_lossless(self):
        cert = spectral_flow(baer_family(BaerFamilySpec(m=1)))
        doc = flow_certificate_document(cert)
        text = dumps_document(doc)
        assert text.endswith("\n")
        assert json.loads(text) == doc

    def test_dumps_deterministic(self):
        cert = spectral_flow(baer_family(BaerFamilySpec(m=1)))
        a = dumps_document(flow_certificate_document(cert))
        cert2 = spectral_flow(baer_family(BaerFamilySpec(m=1)))
        b = dumps_document(flow_certificate_document(cert2))
        assert a == b


class TestConfigSchema:
    def test_valid_config_accepted(self):
        validate_config(
            {
                "family": {"kind": "baer", "m": 3, "background": [5, -5]},
                "flow_options": {"init_samples": 4},
                "seed": 7,
            }
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"famly": {"kind": "baer", "m": 1}})

    def test_bad_family_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"family": {"kind": "baer"}})  # m missing

    def test_components_k_minimum(self):
        with pytest.raises(ConfigError):
            validate_config({"components": {"k": 0}})

    def test_each_schema_checked_once(self, monkeypatch, tmp_path, capsys):
        cls = jsonschema.validators.validator_for(load_schema("experiment-config"))
        original = cls.check_schema
        checked = []

        def counting(schema, *args, **kwargs):
            checked.append(schema["title"])
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
        config._schema_validator.cache_clear()
        try:
            cfg = {"family": {"kind": "baer", "m": 2}}
            validate_config(cfg)
            validate_config(cfg)
            doc = flow_certificate_document(spectral_flow(baer_family(BaerFamilySpec(m=2))))
            validate_document(doc)
            validate_document(doc)
            bad = tmp_path / "exp.json"
            bad.write_text('{"family": {"kind": "baer"}}')
            assert main(["flow", "--config", str(bad)]) == 1
        finally:
            config._schema_validator.cache_clear()
        assert sorted(checked) == sorted(
            load_schema(name)["title"] for name in ("experiment-config", "flow-certificate")
        )
        assert capsys.readouterr().err == (
            "specflow: ConfigError: config invalid at family: 'm' is a required property\n"
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"famly": {"kind": "baer", "m": 1}},
            {"family": {"kind": "baer"}},
            {"components": {"k": 0}},
            {"family": {"kind": "circle", "modes": "3", "winding": 1}},
            {"seed": -1.5, "flow_options": {"init_samples": "x"}},
        ],
    )
    def test_errors_match_jsonschema_validate(self, doc):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, load_schema("experiment-config"))
        with pytest.raises(ConfigError) as got:
            validate_config(doc)
        where = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        assert str(got.value) == f"config invalid at {where}: {expected.value.message}"

    def test_schemas_load(self):
        for name in ("experiment-config", "flow-certificate", "component-report", "property-report"):
            schema = load_schema(name)
            assert schema["$schema"].startswith("https://json-schema.org/")


# The per-entry schema fragments that the one-pass entry check replaced.
_ROWS_OF_NUMBERS = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
_PER_ENTRY_MATRIX = {
    "oneOf": [
        _ROWS_OF_NUMBERS,
        {
            "type": "object",
            "required": ["real", "imag"],
            "additionalProperties": False,
            "properties": {"real": _ROWS_OF_NUMBERS, "imag": _ROWS_OF_NUMBERS},
        },
    ]
}
_FAMILY_KINDS = ("baer", "circle", "random", "glue", "sampled")
_BAD_ENTRIES = (True, "x", None, [1.0], {"a": 1})


def _per_entry_validator():
    schema = load_schema("experiment-config")
    schema["properties"]["family"] = {"oneOf": [{"$ref": f"#/$defs/{k}"} for k in _FAMILY_KINDS]}
    schema["$defs"]["matrix"] = _PER_ENTRY_MATRIX
    return jsonschema.validators.validator_for(schema)(schema)


def _sampled_docs(rng, count: int):
    """Sampled configs of small real and complex matrices with 0-3 entries replaced.

    Replacements are the bad JSON entries and, through the Python API, numpy
    scalars, which both rules accept.
    """
    replacements = [*_BAD_ENTRIES, np.float64(0.5), np.int64(2)]
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        samples = []
        for t in (0.0, 0.5, 1.0):
            real = rng.integers(-3, 4, (dim, dim)).astype(float).tolist()
            if rng.random() < 0.5:
                matrix = real
            else:
                imag = rng.integers(-3, 4, (dim, dim)).astype(float).tolist()
                matrix = {"real": real, "imag": imag}
            samples.append({"t": t, "matrix": matrix})
        for _ in range(int(rng.integers(0, 4))):
            matrix = samples[int(rng.integers(3))]["matrix"]
            if isinstance(matrix, dict):
                matrix = matrix[["real", "imag"][int(rng.integers(2))]]
            value = replacements[int(rng.integers(len(replacements)))]
            matrix[int(rng.integers(dim))][int(rng.integers(dim))] = value
        yield {"family": {"kind": "sampled", "samples": samples}}


class TestSampledMatrixEntries:
    def test_same_verdict_and_path_as_per_entry_schema(self):
        old = _per_entry_validator()
        rejected = 0
        for doc in _sampled_docs(np.random.default_rng(0), 300):
            expected = jsonschema.exceptions.best_match(old.iter_errors(doc))
            if expected is None:
                validate_config(doc)
                continue
            rejected += 1
            with pytest.raises(ConfigError) as got:
                validate_config(doc)
            where = "/".join(str(p) for p in expected.absolute_path)
            assert str(got.value) == f"config invalid at {where}: {expected.message}"
        assert 100 < rejected < 300

    def test_numpy_scalars_accepted(self):
        matrix = [[np.float64(1.0), np.int64(0)], [0.0, np.float64(-1.0)]]
        samples = [{"t": 0, "matrix": matrix}, {"t": 1, "matrix": matrix}]
        validate_config({"family": {"kind": "sampled", "samples": samples}})

    def test_bad_entry_in_imag_part_named_first(self):
        matrix = {"real": [[None, 0], [0, 1]], "imag": [[0, 0], [0, "i"]]}
        samples = [{"t": 0, "matrix": matrix}, {"t": 1, "matrix": [[1]]}]
        with pytest.raises(ConfigError) as got:
            validate_config({"family": {"kind": "sampled", "samples": samples}})
        assert str(got.value) == (
            "config invalid at family/samples/0/matrix/imag/1/1: 'i' is not of type 'number'"
        )


class TestFamilyBlocks:
    def test_baer_block(self):
        p = build_family_path({"kind": "baer", "m": 3, "background": [5.0, -5.0]})
        assert spectral_flow(p).flow == 4

    def test_circle_block(self):
        p = build_family_path({"kind": "circle", "modes": 5, "winding": -2})
        assert spectral_flow(p).flow == -2

    def test_glue_block_default_base(self):
        p = build_family_path({"kind": "glue", "m": 2, "seed": 3})
        assert spectral_flow(p).flow == 3

    def test_random_block_uses_default_seed(self):
        a = build_family_path({"kind": "random", "dim": 5}, default_seed=9)
        b = build_family_path({"kind": "random", "dim": 5, "seed": 9})
        assert np.array_equal(a.at(0.5).entries, b.at(0.5).entries)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_family_path({"kind": "torus"})

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (
                {"real": [[2, 0], [0, -1]], "imag": [[0.0]]},
                "family/samples/1/matrix: real part has shape (2, 2), imag part has shape (1, 1)",
            ),
            ([[2, 0], [0]], "family/samples/1/matrix/1: row has 1 entries, row 0 has 2"),
            (
                {"real": [[2, 0], [0, -1]], "imag": [[0, 0], [0, 0, 1]]},
                "family/samples/1/matrix/imag/1: row has 3 entries, row 0 has 2",
            ),
        ],
        ids=["part-shapes-differ", "ragged-row", "ragged-imag-row"],
    )
    def test_sampled_shapes_checked_without_validation(self, matrix, message):
        # build_family_path on its own must not broadcast or report numpy's text.
        samples = [{"t": 0.0, "matrix": [[2, 0], [0, -1]]}, {"t": 1.0, "matrix": matrix}]
        with pytest.raises(ConfigError) as got:
            build_family_path({"kind": "sampled", "samples": samples})
        assert str(got.value) == f"config invalid at {message}"


def _sampled_block(path, grid: int) -> dict:
    """A sampled family block of ``path.at(t).entries`` on ``grid`` parameters, as JSON spells it."""

    def matrix(entries):
        if np.iscomplexobj(entries):
            return {"real": entries.real.tolist(), "imag": entries.imag.tolist()}
        return entries.tolist()

    samples = [
        {"t": t, "matrix": matrix(path.at(t).entries)} for t in np.linspace(0.0, 1.0, grid).tolist()
    ]
    return {"kind": "sampled", "samples": samples}


class TestSampledPaths:
    def test_linear_family_round_trips_exactly(self):
        # a linear-in-t family is reproduced exactly by linear interpolation
        src = build_family_path({"kind": "baer", "m": 1, "background": [5.0, -5.0]})
        block = _sampled_block(src, grid=5)
        validate_config({"family": block})
        back = build_family_path(block)
        for t in np.linspace(0.0, 1.0, 17):
            assert np.allclose(back.at(float(t)).entries, src.at(float(t)).entries)
        assert spectral_flow(back).flow == spectral_flow(src).flow

    def test_samples_interpolate_between_knots(self):
        samples = [
            (0.0, np.diag([-1.0, 5.0])),
            (1.0, np.diag([1.0, 5.0])),
        ]
        p = sampled_path(samples)
        assert np.allclose(p.at(0.5).entries, np.diag([0.0, 5.0]))
        assert spectral_flow(p).flow == 1

    def test_complex_matrix_round_trip(self):
        h = np.array([[1.0, 1j], [-1j, -1.0]])
        src = sampled_path([(0.0, h), (1.0, 3 * h)])
        block = _sampled_block(src, grid=3)
        validate_config({"family": block})
        back = build_family_path(block)
        assert np.allclose(back.at(1.0).entries, 3 * h)

    def test_times_must_cover_unit_interval(self):
        with pytest.raises(ConfigError, match="cover"):
            sampled_path([(0.1, np.eye(2)), (1.0, np.eye(2))])

    def test_times_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            sampled_path([(0.0, np.eye(2)), (0.0, np.eye(2)), (1.0, np.eye(2))])


_DIGEST_SAMPLES = [
    {"t": 0.0, "matrix": [[1.0, 0.5], [0.5, -2.0]]},
    {"t": 0.375, "matrix": {"real": [[-1.0, 0.25], [0.25, 3.0]], "imag": [[0.0, 0.5], [-0.5, 0.0]]}},
    {"t": 1.0, "matrix": [[2.0, 0.0], [0.0, -1.0]]},
]


def _digest(text: str) -> str:
    family = json.loads(text)["family"]
    return path_descriptor(family, build_family_path(family))["sha256"]


def _text(samples, **dumps) -> str:
    return json.dumps({"family": {"kind": "sampled", "samples": samples}}, **dumps)


def _ulp(samples, at):
    """A deep copy of ``samples`` with the float at key path ``at`` one ulp larger."""
    copy = json.loads(json.dumps(samples))
    *where, last = at
    slot = copy
    for key in where:
        slot = slot[key]
    slot[last] = float(np.nextafter(slot[last], np.inf))
    return copy


class TestSampledDigest:
    """A sampled path is named by a sha256 of its numbers, not of their JSON spelling."""

    def test_descriptor_fields(self):
        family = json.loads(_text(_DIGEST_SAMPLES))["family"]
        block = path_descriptor(family, build_family_path(family))
        assert list(block) == ["kind", "dim", "knots", "sha256"]
        assert (block["kind"], block["dim"], block["knots"]) == ("sampled", 2, 3)

    def test_closed_form_block_echoed(self):
        family = {"kind": "baer", "m": 2}
        assert path_descriptor(family, build_family_path(family)) is family

    def test_same_numbers_same_digest(self):
        base = _digest(_text(_DIGEST_SAMPLES))
        # Whitespace.
        assert _digest(_text(_DIGEST_SAMPLES, indent=3)) == base
        assert _digest(_text(_DIGEST_SAMPLES, separators=(",", ":"))) == base
        # Key order: "imag" before "real", "matrix" before "t".
        reordered = json.loads(
            _text(_DIGEST_SAMPLES), object_pairs_hook=lambda pairs: dict(reversed(pairs))
        )
        assert list(reordered["family"]["samples"][1]) == ["matrix", "t"]
        assert _digest(json.dumps(reordered)) == base
        # 1 against 1.0.
        text = _text(_DIGEST_SAMPLES)
        integral = text
        for whole in ("0", "1", "2", "3"):
            integral = integral.replace(f"{whole}.0", whole)
        assert integral.count(".") == text.count(".") - 12
        assert _digest(integral) == base
        # A real list against {real, imag: zeros}.
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        complexified = [
            {**s, "matrix": {"real": s["matrix"], "imag": zeros}} if k != 1 else s
            for k, s in enumerate(_DIGEST_SAMPLES)
        ]
        assert _digest(_text(complexified)) == base

    @pytest.mark.parametrize(
        "at",
        [(0, "matrix", 1, 1), (1, "matrix", "imag", 0, 1), (2, "matrix", 0, 0), (1, "t")],
        ids=["real-entry", "imag-entry", "diagonal-entry", "knot-t"],
    )
    def test_one_ulp_changes_the_digest(self, at):
        assert _digest(_text(_ulp(_DIGEST_SAMPLES, at))) != _digest(_text(_DIGEST_SAMPLES))

    def test_flow_document_carries_the_descriptor(self, tmp_path, capsys):
        cfg = tmp_path / "sampled.json"
        cfg.write_text(_text(_DIGEST_SAMPLES))
        assert main(["flow", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2
        assert doc["path"]["sha256"] == _digest(cfg.read_text())

    @pytest.mark.parametrize(
        "path, where",
        [
            ({"kind": "sampled", "dim": 2, "knots": 3}, "'sha256' is a required property"),
            ({"kind": "sampled", "dim": 2, "knots": 3, "sha256": "ab" * 31}, "does not match"),
            ({"kind": "sampled", "dim": 2, "knots": 3, "sha256": "AB" * 32}, "does not match"),
            ({"kind": "sampled", "dim": 2, "knots": 3, "sha256": "g" * 64}, "does not match"),
            (
                {"kind": "sampled", "dim": 2, "knots": 3, "sha256": "ab" * 32, "samples": []},
                "Additional properties are not allowed ('samples' was unexpected)",
            ),
            ({"kind": "sampled", "samples": _DIGEST_SAMPLES}, "is a required property"),
        ],
        ids=["no-sha256", "short", "upper-case", "non-hex", "samples-kept", "version-1-block"],
    )
    def test_schema_rejects_bad_sampled_descriptors(self, path, where):
        doc = flow_certificate_document(spectral_flow(baer_family(BaerFamilySpec(m=1))), path)
        good = {"kind": "sampled", "dim": 2, "knots": 3, "sha256": "ab" * 32}
        validate_document({**doc, "path": good})
        with pytest.raises(jsonschema.ValidationError, match=re.escape(where)):
            validate_document(doc)


class TestSpectrumCsv:
    def test_header_and_lf_endings(self):
        p = build_family_path({"kind": "baer", "m": 1, "background": [5.0, -5.0]})
        text = spectrum_csv(p, grid=11)
        lines = text.split("\n")
        assert lines[0] == "t,lambda_1,lambda_2,lambda_3,lambda_4"
        assert text.endswith("\n")
        assert "\r" not in text
        assert len(lines) == 13  # header + 11 rows + trailing newline split

    def test_middle_columns_follow_crossing_eigenvalue(self):
        p = build_family_path({"kind": "baer", "m": 1, "background": [5.0, -5.0]})
        ts = np.linspace(0, 1, 11)
        for t, row in zip(ts, p.spectra(ts)):
            assert row[1] == pytest.approx(2 * t - 1)
            assert row[2] == pytest.approx(2 * t - 1)
