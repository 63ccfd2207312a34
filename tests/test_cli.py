"""CLI behavior: subcommands, config handling, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import specflow.cli
import specflow.config
import specflow.errors
from specflow.cli import main
from specflow.config import ConfigError

_ERRORS = [getattr(specflow.errors, name) for name in specflow.errors.__all__] + [ConfigError]
_EXIT_1 = {"ConfigError", "InvalidSpec", "EndpointMismatch"}


def _captured_configs(monkeypatch) -> list[dict]:
    """Record every config the CLI validates, still validating it."""
    calls = []
    original = specflow.config.validate_config

    def counted(config):
        calls.append(config)
        original(config)

    monkeypatch.setattr(specflow.config, "validate_config", counted)
    monkeypatch.setattr(specflow.cli, "validate_config", counted)
    return calls


def run_cli(args: list[str], log_level: str | None = None) -> subprocess.CompletedProcess:
    """Run the CLI in a child process with the parent's environment.

    The child inherits ``PYTHONPATH`` and the rest of ``os.environ`` so it
    imports ``specflow`` the same way the test process does.  An outer
    ``SPECFLOW_LOG`` is dropped; ``log_level`` sets it for this run only.
    """
    env = dict(os.environ)
    env.pop("SPECFLOW_LOG", None)
    if log_level is not None:
        env["SPECFLOW_LOG"] = log_level
    return subprocess.run(
        [sys.executable, "-m", "specflow.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestFlowCommand:
    def test_baer_flow_json(self, capsys):
        assert main(["flow", "--family", "baer", "--m", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "flow-certificate"
        assert doc["flow"] == 4

    def test_circle_flow_json(self, capsys):
        assert main(["flow", "--family", "circle", "--winding", "2", "--modes", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["flow"] == 2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"family": {"kind": "glue", "m": 2, "seed": 4}}))
        assert main(["flow", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["flow"] == 3

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"family": {"kind": "baer", "m": 1}, "seed": 1}))
        assert main(["flow", "--config", str(cfg), "--family", "baer", "--m", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["flow"] == 3

    def test_config_validated_once(self, tmp_path, capsys, monkeypatch):
        calls = _captured_configs(monkeypatch)
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"family": {"kind": "baer", "m": 1}}))
        assert main(["flow", "--config", str(cfg), "--family", "baer", "--m", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["flow"] == 3
        assert calls == [{"family": {"kind": "baer", "m": 2}}]

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"family": {"kind": "baer"}}')  # m missing
        assert main(["flow", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: config invalid at family: 'm' is a required property\n"
        )

    def test_small_end_eigenvalue_beside_a_large_background(self, capsys):
        # At t=0 the crossing eigenvalue -1 is 1e-10 of the spectral scale; it
        # is negative, not zero, so both of its copies cross.
        assert main(["flow", "--family", "baer", "--m", "1", "--background", "1e10,-1e10"]) == 0
        assert json.loads(capsys.readouterr().out)["flow"] == 2

    def test_glue_base_eigenvalue_in_the_window_exit_1(self, capsys):
        assert main(["flow", "--family", "glue", "--m", "1", "--base-spectrum", "1,7"]) == 1
        assert capsys.readouterr().err == (
            "specflow: InvalidSpec: base eigenvalue 1.0 lies in [-2, 2]; rescale the base "
            "spectrum out of the window first\n"
        )

    def test_missing_family_exit_1(self):
        assert main(["flow"]) == 1

    def test_invalid_family_values_exit_1(self):
        assert main(["flow", "--family", "baer", "--m", "3", "--background", "1.0"]) == 1

    def test_uncertifiable_path_exit_2(self, tmp_path):
        # constant zero operator: no window is certifiable anywhere
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "family": {
                        "kind": "sampled",
                        "samples": [
                            {"t": 0.0, "matrix": [[0.0]]},
                            {"t": 1.0, "matrix": [[0.0]]},
                        ],
                    },
                    "flow_options": {"max_depth": 5},
                }
            )
        )
        assert main(["flow", "--config", str(cfg)]) == 2

    def test_sampled_ingest_error_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        samples = [
            {"t": 0.0, "matrix": [[0.0, 1.0], [2.0, 0.0]]},
            {"t": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        ]
        cfg.write_text(json.dumps({"family": {"kind": "sampled", "samples": samples}}))
        assert main(["flow", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: matrix is not self-adjoint: asymmetry 1.000e+00 "
            "exceeds 1e-12 * norm (2.000e+00) at t=0.0\n"
        )

    def test_sampled_nan_knot_names_its_sample(self, tmp_path, capsys):
        # json.loads reads NaN, and the schema accepts it as a number.
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            '{"family": {"kind": "sampled", "samples": ['
            '{"t": 0.0, "matrix": [[1.0, 0.0], [0.0, -1.0]]}, '
            '{"t": 0.5, "matrix": [[NaN, 0.0], [0.0, 1.0]]}, '
            '{"t": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}}'
        )
        assert main(["flow", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: operator entries must be finite at t=0.5\n"
        )

    def test_sampled_dimension_mismatch_names_both_dimensions(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        samples = [
            {"t": 0.0, "matrix": [[1.0, 0.0], [0.0, -1.0]]},
            {"t": 0.25, "matrix": [[1.0, 0.0], [0.0, -1.0]]},
            {"t": 0.5, "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            {"t": 1.0, "matrix": [[1.0]]},
        ]
        cfg.write_text(json.dumps({"family": {"kind": "sampled", "samples": samples}}))
        assert main(["flow", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: all sampled matrices must share one dimension: "
            "dimension 3 at t=0.5, dimension 2 at t=0.0\n"
        )

    @pytest.mark.parametrize("command", ["flow", "spectrum"])
    def test_sampled_symmetrization_overflow_exit_1(self, command, tmp_path, capsys):
        # 1e308 is finite, but 1e308 + 1e308 is not: the sum in (A + A^H) / 2 overflows.
        cfg = tmp_path / "exp.json"
        samples = [
            {"t": 0.0, "matrix": [[1e308, 0.0], [0.0, 1.0]]},
            {"t": 1.0, "matrix": [[1.0, 0.0], [0.0, -1.0]]},
        ]
        cfg.write_text(json.dumps({"family": {"kind": "sampled", "samples": samples}}))
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: operator entries overflow float64 when symmetrized "
            "as (A + A^H) / 2 at t=0.0\n"
        )

    def test_oracle_grid_below_minimum_exit_1(self, capsys):
        assert main(["flow", "--family", "baer", "--m", "1", "--oracle", "--grid", "32"]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: oracle grid must be at least 64, got 32\n"
        )

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"family": {"kind": "baer", "m": 1, "background": [float("inf")]}},
                "InvalidSpec: background value inf is not finite",
            ),
            (
                {"family": {"kind": "glue", "m": 1, "base_spectrum": [float("nan")]}},
                "ConfigError: spectrum values must be finite",
            ),
            (
                {"family": {"kind": "baer", "m": 1}, "flow_options": {"cluster_tol": float("nan")}},
                "ConfigError: tolerances must be positive",
            ),
            (
                {"family": {"kind": "baer", "m": 1}, "flow_options": {"min_margin": float("inf")}},
                "ConfigError: tolerances must be finite",
            ),
            (
                {"family": {"kind": "baer", "m": 1}, "flow_options": {"cluster_tol": float("inf")}},
                "ConfigError: tolerances must be finite",
            ),
        ],
        ids=["background-inf", "base-spectrum-nan", "cluster-tol-nan", "min-margin-inf", "cluster-tol-inf"],
    )
    def test_non_finite_config_values_exit_1(self, config, message, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        assert main(["flow", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"specflow: {message}\n"

    def test_value_error_during_computation_propagates(self, monkeypatch):
        import specflow.cli

        def broken(path, options=None):
            raise ValueError("fault inside the flow engine")

        monkeypatch.setattr(specflow.cli, "spectral_flow", broken)
        with pytest.raises(ValueError, match="fault inside the flow engine"):
            main(["flow", "--family", "baer", "--m", "1"])

    @pytest.mark.parametrize("error", _ERRORS, ids=lambda cls: cls.__name__)
    def test_error_exit_codes(self, error, monkeypatch, capsys):
        def failing(path, options=None):
            raise error(f"{error.__name__} raised inside the flow")

        monkeypatch.setattr(specflow.cli, "spectral_flow", failing)
        expected = 1 if error.__name__ in _EXIT_1 else 2
        assert main(["flow", "--family", "baer", "--m", "1"]) == expected
        name = error.__name__
        assert capsys.readouterr().err == f"specflow: {name}: {name} raised inside the flow\n"

    def test_out_dir_written(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["flow", "--family", "baer", "--m", "1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert (out / "flow-certificate.json").read_text() == stdout

    def test_sampled_stdout_stays_small(self, tmp_path, capsys):
        # The samples take 0.44 MB as a certificate's echoed path block.
        rng = np.random.default_rng(3)
        samples = []
        for t in (0.0, 0.5, 1.0):
            a = rng.standard_normal((64, 64))
            samples.append({"t": t, "matrix": (a + a.T).tolist()})
        cfg = tmp_path / "sampled.json"
        cfg.write_text(json.dumps({"family": {"kind": "sampled", "samples": samples}}))
        out = tmp_path / "reports"
        assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert len(stdout.encode()) < 100_000
        assert (out / "flow-certificate.json").read_bytes() == stdout.encode()
        assert json.loads(stdout)["path"]["knots"] == 3


class TestUnusableOut:
    """An ``--out`` that cannot be a directory exits 1 before any computation."""

    @pytest.mark.parametrize(
        "argv",
        [["flow", "--family", "baer", "--m", "1"], ["components", "--k", "1"]],
        ids=["flow", "components"],
    )
    def test_regular_file_exits_1_with_one_line(self, argv, tmp_path, capsys, monkeypatch):
        def computed(config):
            pytest.fail("the command computed before it checked --out")

        monkeypatch.setattr(specflow.cli, "_flow_options", computed)
        target = tmp_path / "report"
        target.write_text("a regular file\n")
        assert main([*argv, "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"specflow: ConfigError: cannot write reports to {target}: "
            f"[Errno 17] File exists: '{target}'\n"
        )
        assert target.read_text() == "a regular file\n"

    def test_directory_created_before_computing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "a" / "b"

        def computed(config):
            assert out.is_dir()
            raise ConfigError("stop")

        monkeypatch.setattr(specflow.cli, "_flow_options", computed)
        assert main(["flow", "--family", "baer", "--m", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "specflow: ConfigError: stop\n"


_BAER = {"kind": "baer", "m": 1}
_CHECK = {"invertible_paths": 1, "concat_pairs": 0, "homotopies": 0}
# An integer literal too large for float64.
_HUGE = "1" + "0" * 400


class TestSchemaRulesExit1:
    """Integer fields take JSON integers only, seeds are 0 or more, and an
    integer literal too large for float64 is bad input: each exits 1 with
    one ConfigError line.
    """

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["spectrum"], {"family": _BAER, "grid": 11.0}),
            (["flow", "--oracle"], {"family": _BAER, "grid": 64.0}),
            (["flow"], {"family": {"kind": "random", "dim": 4.0}}),
            (["components"], {"components": {"k": 2, "ambient_dim": 24.0}}),
            (["check"], {"check": {**_CHECK, "invertible_paths": 1.0}}),
            (["check"], {"check": {**_CHECK, "slices": 3.0}}),
            (["flow"], {"family": {"kind": "random", "dim": 3, "seed": 3.0}}),
            (["flow"], {"family": {"kind": "glue", "m": 1}, "seed": 3.0}),
            (["check"], {"check": _CHECK, "seed": 3.0}),
            (["components"], {"components": {"k": 2, "seed": 2.0}}),
            (["components", "--k", "3", "--seed", "-1"], None),
            (["check", "--seed", "-1"], None),
            (["flow", "--family", "random", "--dim", "3", "--seed", "-1"], None),
            (["flow", "--family", "glue", "--m", "1", "--seed", "-1"], None),
            (
                ["flow"],
                '{"family": {"kind": "sampled", "samples": [{"t": 0, "matrix": [['
                + _HUGE
                + ']]}, {"t": 1, "matrix": [[1]]}]}}',
            ),
            (
                ["flow"],
                '{"family": {"kind": "baer", "m": 1}, "flow_options": {"cluster_tol": '
                + _HUGE
                + "}}",
            ),
            (["flow"], {"family": {"kind": "baer", "m": 2.0}}),
            (["flow"], {"family": {"kind": "circle", "modes": 3.0, "winding": 1}}),
            (["flow"], {"family": {"kind": "circle", "modes": 3, "winding": 1.0}}),
            (["components"], {"components": {"k": 3.0}}),
        ],
        ids=[
            "spectrum-grid-float",
            "oracle-grid-float",
            "random-dim-float",
            "components-ambient-dim-float",
            "check-invertible-paths-float",
            "check-slices-float",
            "random-seed-float",
            "glue-top-level-seed-float",
            "check-top-level-seed-float",
            "components-seed-float",
            "components-seed-negative",
            "check-seed-negative",
            "random-seed-negative",
            "glue-seed-negative",
            "sampled-entry-overflow",
            "cluster-tol-overflow",
            "baer-m-float",
            "circle-modes-float",
            "circle-winding-float",
            "components-k-float",
        ],
    )
    def test_exit_1_with_one_config_error_line(self, argv, config, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "exp.json"
            cfg.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("specflow: ConfigError: ")

    def test_messages_name_the_field(self, tmp_path, capsys):
        assert main(["check", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: config invalid at seed: -1 is less than the minimum of 0\n"
        )
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"family": _BAER, "grid": 11.0}))
        assert main(["spectrum", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: config invalid at grid: 11.0 is not of type 'integer'\n"
        )


_DIAG = [[2, 0], [0, -1]]


def _sampled(first, t0=0):
    """Config of a two-sample path whose first matrix is ``first``."""
    samples = [{"t": t0, "matrix": first}, {"t": 1, "matrix": _DIAG}]
    return {"family": {"kind": "sampled", "samples": samples}}


class TestSampledMatrixMessages:
    """Bad sampled matrices exit 1 with one ConfigError line naming the entry,
    row or matrix; a grid numpy cannot allocate names the grid."""

    @pytest.mark.parametrize(
        "config, where, message",
        [
            (_sampled([[2, "x"], [0, -1]]), "matrix/0/1", "'x' is not of type 'number'"),
            (_sampled([[2, True], [0, -1]]), "matrix/0/1", "True is not of type 'number'"),
            (_sampled([[2, 0], [None, -1]]), "matrix/1/0", "None is not of type 'number'"),
            (
                _sampled({"real": [[2, "x"], [0, -1]], "imag": [[0, 0], [0, 0]]}),
                "matrix/real/0/1",
                "'x' is not of type 'number'",
            ),
            (
                _sampled({"real": _DIAG, "imag": [[0, True], [0, 0]]}),
                "matrix/imag/0/1",
                "True is not of type 'number'",
            ),
            (
                _sampled({"real": _DIAG, "imag": [[0, None], [0, 0]]}),
                "matrix/imag/0/1",
                "None is not of type 'number'",
            ),
            (
                _sampled({"real": _DIAG, "imag": _DIAG, "x": 1}),
                "matrix",
                "Additional properties are not allowed ('x' was unexpected)",
            ),
            (_sampled([[2, 0], 1]), "matrix/1", "1 is not of type 'array'"),
            (_sampled(_DIAG, t0="0"), "t", "'0' is not of type 'number'"),
            (_sampled([[2, 0], [0]]), "matrix/1", "row has 1 entries, row 0 has 2"),
            (_sampled([[2, 0, 0], [0], [0, 0, None]]), "matrix/2/2", "None is not of type 'number'"),
            (
                _sampled({"real": _DIAG, "imag": [[0.0]]}),
                "matrix",
                "real part has shape (2, 2), imag part has shape (1, 1)",
            ),
            (
                _sampled({"real": _DIAG, "imag": [[0.0, 0.5]]}),
                "matrix",
                "real part has shape (2, 2), imag part has shape (1, 2)",
            ),
        ],
        ids=[
            "string",
            "true",
            "null",
            "complex-real-string",
            "complex-imag-true",
            "complex-imag-null",
            "extra-key",
            "row-not-array",
            "t-string",
            "ragged-row",
            "bad-entry-named-before-ragged-row",
            "part-shapes-differ",
            "imag-row-would-broadcast",
        ],
    )
    def test_config_error_names_the_place(self, config, where, message, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        assert main(["flow", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"specflow: ConfigError: config invalid at family/samples/0/{where}: {message}\n"
        )

    @pytest.mark.parametrize("argv", [["spectrum"], ["flow", "--oracle"]])
    def test_grid_too_large_to_allocate(self, argv, capsys):
        grid = "100000000000000000000"
        assert main([*argv, "--family", "baer", "--m", "1", "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"specflow: ConfigError: grid {grid} is too large to allocate\n"

    def test_initial_partition_too_large_to_allocate(self, capsys):
        # 9e13 witness parameters: numpy refuses the array at once.
        argv = ["flow", "--family", "baer", "--m", "1", "--init-samples", str(10**13)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "specflow: ConfigError: init_samples 10000000000000 is too large to allocate\n"
        )


class TestComponentsCommand:
    def test_k1_single_zero_flow(self, capsys):
        assert main(["components", "--k", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "component-report"
        assert doc["flows"] == [0]
        assert doc["pairs"] == []

    def test_k5_distinct_flows(self, capsys):
        assert main(["components", "--k", "5", "--ambient-dim", "16"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(set(doc["flows"])) == 5
        assert len(doc["pairs"]) == 10

    def test_k0_usage_error(self):
        assert main(["components", "--k", "0"]) == 1

    def test_flags_merge_into_config_block(self, tmp_path, capsys, monkeypatch):
        calls = _captured_configs(monkeypatch)
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"seed": 1, "components": {"seed": 5, "ambient_dim": 16}}))
        assert main(["components", "--config", str(cfg), "--k", "3", "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["ambient_dim"] == 16
        assert calls == [{"seed": 7, "components": {"seed": 7, "ambient_dim": 16, "k": 3}}]


class TestSpectrumCommand:
    def test_baer_csv(self, capsys):
        assert main(
            ["spectrum", "--family", "baer", "--m", "1", "--background", "5,-5", "--grid", "11"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,lambda_1,lambda_2,lambda_3,lambda_4"
        assert len(lines) == 12
        row = lines[6].split(",")  # t = 0.5
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0

    def test_circle_straight_lines(self, capsys):
        assert main(
            ["spectrum", "--family", "circle", "--modes", "2", "--winding", "1", "--grid", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        first = [float(x) for x in lines[1].split(",")[1:]]
        last = [float(x) for x in lines[3].split(",")[1:]]
        assert all(b - a == pytest.approx(1.0) for a, b in zip(first, last))

    def test_glue_curves_stay_near_unperturbed(self, capsys):
        args = ["spectrum", "--family", "glue", "--m", "2", "--seed", "3", "--grid", "21"]
        assert main([*args, "--epsilon", "0.4"]) == 0
        noisy = capsys.readouterr().out.strip().split("\n")[1:]
        assert main([*args, "--epsilon", "0.0"]) == 0
        clean = capsys.readouterr().out.strip().split("\n")[1:]
        for row_n, row_c in zip(noisy, clean):
            vn = [float(x) for x in row_n.split(",")[1:]]
            vc = [float(x) for x in row_c.split(",")[1:]]
            assert max(abs(a - b) for a, b in zip(vn, vc)) < 0.4


class TestCheckCommand:
    def test_small_check_passes(self, capsys):
        code = main(["check", "--paths", "4", "--pairs", "4", "--homotopies", "2", "--slices", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "property-report"
        assert doc["passed"] is True

    def test_flags_merge_into_config_block(self, tmp_path, capsys, monkeypatch):
        calls = _captured_configs(monkeypatch)
        cfg = tmp_path / "exp.json"
        block = {"homotopies": 1, "concat_pairs": 3, "slices": 5}
        cfg.write_text(json.dumps({"seed": 2, "check": block}))
        assert main(["check", "--config", str(cfg), "--paths", "2", "--slices", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        merged = {"homotopies": 1, "concat_pairs": 3, "slices": 3, "invertible_paths": 2}
        assert calls == [{"seed": 2, "check": merged}]


class TestHelp:
    @pytest.mark.parametrize(
        "command, shown",
        [
            ("flow", ["--init-samples INIT_SAMPLES", "--max-depth MAX_DEPTH", "--grid GRID"]),
            ("components", ["--k K", "--ambient-dim AMBIENT_DIM", "--epsilon EPSILON"]),
            ("spectrum", ["--init-samples INIT_SAMPLES", "--seed SEED"]),
            (
                "check",
                ["--paths INVERTIBLE_PATHS", "--pairs CONCAT_PAIRS", "--homotopies HOMOTOPIES"],
            ),
        ],
    )
    def test_metavars(self, command, shown, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for text in shown:
            assert text in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["flow", "--family", "glue", "--m", "3", "--seed", "11"],
            ["flow", "--family", "random", "--dim", "6", "--seed", "2"],
            ["spectrum", "--family", "glue", "--m", "2", "--seed", "5", "--grid", "31"],
            ["components", "--k", "4", "--ambient-dim", "16"],
            ["check", "--paths", "3", "--pairs", "3", "--homotopies", "1", "--slices", "3"],
        ],
    )
    def test_reruns_byte_identical(self, args, tmp_path):
        out = tmp_path / "out"
        r1 = run_cli([*args, "--out", str(out)])
        files1 = {f.name: f.read_bytes() for f in out.iterdir()}
        r2 = run_cli([*args, "--out", str(out)])
        files2 = {f.name: f.read_bytes() for f in out.iterdir()}
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert files1 == files2
        assert files1  # something was actually written

    def test_version_flag(self):
        res = run_cli(["--version"])
        assert res.returncode == 0
        assert res.stdout.startswith("specflow ")

    def test_log_env_var_to_stderr_only(self, tmp_path):
        # --out makes the CLI log "wrote FILE", so there is a record to route
        env_args = ["flow", "--family", "baer", "--m", "1"]
        quiet = run_cli([*env_args, "--out", str(tmp_path / "quiet")])
        proc = run_cli([*env_args, "--out", str(tmp_path / "loud")], log_level="debug")
        assert proc.returncode == 0
        assert proc.stdout == quiet.stdout  # stdout payload unaffected
        assert "specflow INFO: wrote" in proc.stderr
        assert quiet.stderr == ""
        assert "specflow " not in quiet.stdout
        assert "specflow " not in proc.stdout


_VERIFY_SAMPLES = [
    {"t": 0.0, "matrix": [[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 3.0]]},
    {
        "t": 0.5,
        "matrix": {
            "real": [[-1.0, 0.5, 0.125], [0.5, -1.0, 0.25], [0.125, 0.25, 2.0]],
            "imag": [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
        },
    },
    {"t": 1.0, "matrix": [[-2.0, 0.25, 0.0], [0.25, 1.5, 0.5], [0.0, 0.5, -1.0]]},
]


def _ulp_up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def _entry(config, doc):
    config["family"]["samples"][2]["matrix"][1][1] = _ulp_up(1.5)


def _knot_t(config, doc):
    config["family"]["samples"][1]["t"] = _ulp_up(0.5)


def _flow(config, doc):
    doc["flow"] += 1


def _margin(config, doc):
    doc["segments"][0]["margin"] *= 1.1


def _radius(config, doc):
    doc["segments"][0]["radius"] *= 1.1
    doc["radii"][0] = doc["segments"][0]["radius"]


def _grid_point(config, doc):
    grid = doc["segments"][0]["witness_grid"]
    grid[1] = _ulp_up(grid[1])


def _count(config, doc):
    doc["segments"][0]["count_lower"] += 1


def _witness_points(config, doc):
    doc["options"]["witness_points"] = 5


def _dim(config, doc):
    doc["path"]["dim"] += 1


class TestVerifyCommand:
    """``specflow verify CERT --config CFG`` re-checks a flow certificate."""

    def _certify(self, config: dict, tmp_path, capsys) -> tuple[dict, dict]:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["flow", "--config", str(cfg)]) == 0
        # A copy, so a test may tamper with it.
        return json.loads(cfg.read_text()), json.loads(capsys.readouterr().out)

    def _check(self, config: dict, doc: dict, tmp_path, capsys) -> tuple[int, str]:
        cfg, cert = tmp_path / "verify-config.json", tmp_path / "cert.json"
        cfg.write_text(json.dumps(config))
        cert.write_text(json.dumps(doc))
        code = main(["verify", str(cert), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_sampled_round_trip(self, tmp_path, capsys):
        config, doc = self._certify(
            {"family": {"kind": "sampled", "samples": _VERIFY_SAMPLES}}, tmp_path, capsys
        )
        assert doc["version"] == 2
        assert set(doc["path"]) == {"kind", "dim", "knots", "sha256"}
        assert self._check(config, doc, tmp_path, capsys) == (0, "")

    def test_glue_oracle_round_trip_ignores_the_oracle_block(self, tmp_path, capsys):
        assert main(["flow", "--family", "glue", "--m", "3", "--seed", "7", "--oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        config = {"family": {"kind": "glue", "m": 3, "seed": 7}}
        assert doc["path"] == config["family"]
        assert self._check(config, doc, tmp_path, capsys) == (0, "")
        doc["oracle"]["flow"] += 1
        assert self._check(config, doc, tmp_path, capsys) == (0, "")

    @pytest.mark.parametrize(
        "family", [{"kind": "random", "dim": 4}, {"kind": "glue", "m": 1}], ids=["random", "glue"]
    )
    def test_path_records_the_top_level_seed(self, family, tmp_path, capsys):
        # The family block sets no seed, so the config's top-level one builds the path.
        config, doc = self._certify({"family": family, "seed": 3}, tmp_path, capsys)
        assert doc["path"] == {**family, "seed": 3}
        assert self._check(config, doc, tmp_path, capsys) == (0, "")
        code, err = self._check({**config, "seed": 4}, doc, tmp_path, capsys)
        assert code == 2
        assert err == (
            f"specflow: CertificateBroken: certificate path {json.dumps({**family, 'seed': 3})} "
            f"is not the config's {json.dumps({**family, 'seed': 4})}\n"
        )

    def test_unseeded_path_records_seed_0(self, tmp_path, capsys):
        _, doc = self._certify({"family": {"kind": "random", "dim": 3}}, tmp_path, capsys)
        assert doc["path"] == {"kind": "random", "dim": 3, "seed": 0}

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_entry, "certificate path {"),
            (_knot_t, "certificate path {"),
            (_flow, "flow does not telescope over the recorded counts"),
            (_margin, "segment [0.0, 0.125]: window margin violated at t=0.0"),
            (_radius, "segment [0.0, 0.125]: window margin violated at t="),
            (_grid_point, "segment [0.0, 0.125]: witness grid is not the 9-point grid"),
            (_count, "count at t=0.0 drifted"),
            (_witness_points, "segment [0.0, 0.125]: witness grid is not the 5-point grid"),
            (_dim, "certificate path {"),
        ],
        ids=[
            "entry", "knot-t", "flow", "margin", "radius", "grid-point", "count",
            "witness-points", "dim",
        ],
    )
    def test_tampering_exits_2(self, tamper, message, tmp_path, capsys):
        config, doc = self._certify(
            {"family": {"kind": "sampled", "samples": _VERIFY_SAMPLES}}, tmp_path, capsys
        )
        tamper(config, doc)
        code, err = self._check(config, doc, tmp_path, capsys)
        assert code == 2
        assert err.startswith("specflow: CertificateBroken: " + message), err
        assert err.count("\n") == 1

    def test_path_mismatch_names_both_digests(self, tmp_path, capsys):
        config, doc = self._certify(
            {"family": {"kind": "sampled", "samples": _VERIFY_SAMPLES}}, tmp_path, capsys
        )
        old = doc["path"]["sha256"]
        _entry(config, doc)
        _, err = self._check(config, doc, tmp_path, capsys)
        new = specflow.config.path_descriptor(
            config["family"], specflow.config.build_family_path(config["family"])
        )["sha256"]
        assert old != new
        assert old in err and new in err

    def test_version_1_document_exits_1(self, tmp_path, capsys):
        config, doc = self._certify(
            {"family": {"kind": "sampled", "samples": _VERIFY_SAMPLES}}, tmp_path, capsys
        )
        # What version 1 wrote: the family block echoed as the path.
        doc.update(version=1, path=config["family"])
        code, err = self._check(config, doc, tmp_path, capsys)
        assert code == 1
        assert err == (
            f"specflow: ConfigError: certificate {tmp_path / 'cert.json'} invalid at version: "
            "2 was expected\n"
        )

    @pytest.mark.parametrize(
        "block, key, message",
        [
            (("segments", 1), "margin", "segments/1/margin: nan is not finite"),
            (("segments", 0), "radius", "segments/0/radius: inf is not finite"),
            (("options",), "cluster_tol", "options: tolerances must be finite"),
        ],
        ids=["nan-margin", "inf-radius", "inf-tolerance"],
    )
    def test_non_finite_number_exits_1(self, block, key, message, tmp_path, capsys):
        # json writes NaN and Infinity, and reads them back, but no window holds them.
        config, doc = self._certify({"family": {"kind": "baer", "m": 1}}, tmp_path, capsys)
        slot = doc
        for part in block:
            slot = slot[part]
        slot[key] = float("nan") if "nan" in message else float("inf")
        if key == "radius":
            doc["radii"][0] = slot[key]
        code, err = self._check(config, doc, tmp_path, capsys)
        assert (code, err) == (1, f"specflow: ConfigError: certificate invalid at {message}\n")

    def test_radii_must_repeat_the_segments(self, tmp_path, capsys):
        config, doc = self._certify({"family": {"kind": "baer", "m": 1}}, tmp_path, capsys)
        doc["radii"][0] *= 2
        assert self._check(config, doc, tmp_path, capsys) == (
            2,
            "specflow: CertificateBroken: radii do not repeat the segments' radius\n",
        )
