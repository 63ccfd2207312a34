"""The README's examples run and give the results its comments state."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import specflow
from conftest import knot_warp
from specflow import flow
from specflow.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# The README's prose with every run of whitespace one space, so a sentence
# reads the same however its lines wrap.
PROSE = " ".join(README.split())


def _block(heading: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_example():
    # A line whose comment ends in an integer states that its expression
    # equals it; every other line runs as it stands.
    namespace: dict = {}
    stated = 0
    for line in _block("Library", "python"):
        code, _, comment = line.partition("#")
        value = re.search(r"(-?\d+)\s*$", comment)
        if value:
            assert eval(code, namespace) == int(value.group(1)), line
            stated += 1
        else:
            exec(code, namespace)
    assert stated == 2


def test_cli_flow_example(capsys):
    [line] = [line for line in _block("CLI", "sh") if "--family baer --m 3" in line]
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "specflow"
    assert main(argv[1:]) == 0
    flow = json.loads(capsys.readouterr().out)["flow"]
    assert f"(flow = {flow})" in comment
    assert flow == 4


def test_sampled_digest_recipe(tmp_path, monkeypatch, capsys):
    # The recipe recomputes the digest from the config file with numpy and
    # hashlib alone; its last line is the certificate's path.sha256.
    rng = np.random.default_rng(5)
    samples = []
    for t in (0, 0.25, 1):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        samples.append({"t": t, "matrix": {"real": h.real.tolist(), "imag": h.imag.tolist()}})
    samples[1]["matrix"] = [[1, 0, 0, 0], [0, -2.5, 0, 0], [0, 0, 3, 0], [0, 0, 0, -1]]
    (tmp_path / "experiment.json").write_text(
        json.dumps({"family": {"kind": "sampled", "samples": samples}})
    )
    monkeypatch.chdir(tmp_path)
    assert main(["flow", "--config", "experiment.json"]) == 0
    path = json.loads(capsys.readouterr().out)["path"]
    *body, last = _block("Sampled certificates", "python")
    namespace: dict = {}
    exec("\n".join(body), namespace)
    assert eval(last.partition("#")[0], namespace) == path["sha256"]
    assert path == {"kind": "sampled", "dim": 4, "knots": 3, "sha256": path["sha256"]}


def test_refinement_counts(eigvalsh_counter, monkeypatch):
    # The slope-s warp of the benchmark spends a third of [0, 1] on
    # 1 / (3 s) of it; a round is one call of ``flow._witness_spectra``.
    claim = r"The slope-(\d+) warp of the benchmark takes (\d+) rounds and (\d+) eigensolves"
    slope, rounds, solves = map(int, re.search(claim, PROSE).groups())
    calls = []
    original = flow._witness_spectra

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(flow, "_witness_spectra", counted)
    specflow.spectral_flow(knot_warp(specflow.random_family(5, 0), [0.5, 0.5 + 1 / (3 * slope)]))
    assert (len(calls), eigvalsh_counter.matrices) == (rounds, solves)

    # Rows a failing path solves: the README's example, then the zero path.
    code, one, zero = re.search(
        r"`(matrix_path\([^`]*\))` solves (\d+) rows before it fails, and the 1 x 1 zero path, "
        r"rejected everywhere, (\d+)\.",
        PROSE,
    ).groups()
    paths = (eval(code, dict(vars(specflow))), specflow.matrix_path(1, lambda t: np.zeros((1, 1))))
    for path, rows in zip(paths, (one, zero)):
        eigvalsh_counter.matrices = 0
        with pytest.raises(specflow.DepthExceeded):
            specflow.spectral_flow(path)
        assert eigvalsh_counter.matrices == int(rows)
