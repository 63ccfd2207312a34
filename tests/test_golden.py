"""Byte-identity guard: sha256 of fixed CLI outputs, certificates and path-algebra documents.

Each case except the sampled ones reads only diagonal paths, so no matrix
reaches LAPACK and the output does not depend on the BLAS/LAPACK build.
The sampled cases run ``flow --config`` on small dense paths; their
digests were recorded with the OpenBLAS build that numpy 2.4.6 bundles.
A change that alters one of these outputs on purpose updates its digest
here and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from specflow import (
    BaerFamilySpec,
    FlowOptions,
    GluingSpec,
    OperatorPath,
    SelfAdjointOperator,
    Spectrum,
    affine_homotopy,
    baer_family,
    build_distinct_paths,
    circle_family,
    concat,
    glue,
    reparametrize,
    reverse,
    spectral_flow,
)
from specflow.cli import main
from specflow.config import sampled_path
from specflow.reporting import dumps_document, flow_certificate_document

GOLDEN = {
    "components --k 1": "2f1f5cf1ff792c8d6993b89b1226cf2d32e4eb4b84bb8fc431bb50dd13d9a64b",
    "components --k 5 --ambient-dim 16 --seed 3": "2bfdc5185060eda691dbd125aec2dcfa98aa3c964a0c7339c1b4e319ee0cdb34",
    "components --k 8": "3385a13e039f01fd4f45a3579240d6ea62bb485066e3c8b95c6c9d2df67730e1",
    "components --k 20": "87e3e8be11490c58e913798f5d9169348393c59f342305a149029a115d2d13cc",
    "flow --family glue --m 3 --seed 7 --oracle": "c3e5627644f41c4f4e77c6584b9dc27a5d6f6c1f25c876216b15cfa9ad865baa",
    "flow --family circle --modes 4 --winding -2 --oracle --grid 64": "d212a5a882a1ef09ce3a2ce08566ff5a73b2524626d422cc98fe5ad9c67d8b70",
    "spectrum --family baer --m 1": "0db02600cb2e5cac5227a3b76cac5caf5579554d42f254a50911f94b42614f1a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, tmp_path, capsys, eigvalsh_counter):
    assert main([*command.split(), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert eigvalsh_counter.matrices == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN[command]
    (written,) = tmp_path.iterdir()
    assert hashlib.sha256(written.read_bytes()).hexdigest() == GOLDEN[command]


SAMPLED = {
    "real 3x3, three knots": [
        {"t": 0.0, "matrix": [[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 3.0]]},
        {"t": 0.5, "matrix": [[-1.0, 0.5, 0.125], [0.5, -1.0, 0.25], [0.125, 0.25, 2.0]]},
        {"t": 1.0, "matrix": [[-2.0, 0.25, 0.0], [0.25, 1.5, 0.5], [0.0, 0.5, -1.0]]},
    ],
    "complex 2x2, two knots": [
        {"t": 0.0, "matrix": {"real": [[1.5, 0.25], [0.25, -1.0]], "imag": [[0.0, 0.5], [-0.5, 0.0]]}},
        {"t": 1.0, "matrix": {"real": [[-1.0, 0.0], [0.0, -2.0]], "imag": [[0.0, -0.25], [0.25, 0.0]]}},
    ],
}

# (stdout sha256, matrices handed to eigvalsh)
SAMPLED_GOLDEN = {
    "real 3x3, three knots": ("c60ef516310af361ee59247b49fa8362e293cacc9835d9d145bb8191f255f09e", 65),
    "complex 2x2, two knots": ("0b3cf16bdb5a9656c78b7c7e1ffe9f3fbccbc834dee29d0933a78b044b19cba1", 65),
}


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampled_flow_digest(name, tmp_path, capsys, eigvalsh_counter):
    cfg = tmp_path / "sampled.json"
    cfg.write_text(json.dumps({"family": {"kind": "sampled", "samples": SAMPLED[name]}}))
    assert main(["flow", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (digest, eigvalsh_counter.matrices) == SAMPLED_GOLDEN[name]


def _certificate(path: OperatorPath, options: FlowOptions | None = None) -> str:
    return dumps_document(flow_certificate_document(spectral_flow(path, options)))


def _baer_loop() -> str:
    baer = baer_family(BaerFamilySpec(m=2))
    return _certificate(concat(baer, reverse(baer)))


def _glue_slice() -> str:
    glued = glue(GluingSpec(base=Spectrum([5.0, -5.0]), sphere_family=BaerFamilySpec(m=2), epsilon=0.25, seed=4)).path
    warped = reparametrize(glued, lambda t: t * t, lipschitz=2.0 * glued.lipschitz)
    return _certificate(affine_homotopy(glued, warped).slice_at(0.3))


def _connector_ledger() -> str:
    basepoint = SelfAdjointOperator.from_diagonal([5.0, 5.0, -5.0, 7.0])
    static = np.array([5.0, -5.0, 7.0])

    def generator(bound: int) -> OperatorPath:
        # Slot 0 sweeps -1..1; with the connector's -1 the concatenation
        # collides with the constant path's flow 0.
        def build(ts):
            return np.column_stack([2.0 * ts - 1.0, np.tile(static, (ts.size, 1))])

        return OperatorPath(4, build, 2.0)

    report = build_distinct_paths(2, generator, basepoint)
    assert report.ledger[-1].branch == "connector"
    return dumps_document({"ledger": [asdict(entry) for entry in report.ledger]})


def _circle_coarse() -> str:
    # Non-default witness_points pin the Lipschitz slack for a 3-point grid.
    return _certificate(circle_family(4, -2), FlowOptions(witness_points=3, init_samples=2))


PATH_ALGEBRA = {
    "circle_family(4, -2) certificate, witness_points=3, init_samples=2": _circle_coarse,
    "concat(baer, reverse(baer)) certificate": _baer_loop,
    "affine_homotopy(glue, reparametrize(glue)).slice_at(0.3) certificate": _glue_slice,
    "connector-branch ledger": _connector_ledger,
}

PATH_ALGEBRA_GOLDEN = {
    "circle_family(4, -2) certificate, witness_points=3, init_samples=2": "efc6102afe3ee9eb8c02e64e03003cb9cadc2b1f70c1db18dfef326d36248b47",
    "concat(baer, reverse(baer)) certificate": "3bcaf5801569c02b9b3bb8a7f90d26b47498143be2f2b062a965c1994436d30f",
    "affine_homotopy(glue, reparametrize(glue)).slice_at(0.3) certificate": "f4fdfd043ea0822c94f6f88e94552d484a70f98c648e2c94af98b94df4516c97",
    "connector-branch ledger": "7cf635dd5a741db9b3e3ec12312064e641a89b61f02424f0b8339c84904805f9",
}


@pytest.mark.parametrize("name", sorted(PATH_ALGEBRA))
def test_path_algebra_digest(name, eigvalsh_counter):
    text = PATH_ALGEBRA[name]()
    assert eigvalsh_counter.matrices == 0
    assert hashlib.sha256(text.encode()).hexdigest() == PATH_ALGEBRA_GOLDEN[name]


# One interval blends two real knots, the next a real and a complex one.
# A row depends on its matrix alone: a matrix with zero imaginary part is
# solved as real, also where a complex stack holds it.
_REAL = [
    np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 3.0]]),
    np.array([[-1.0, 0.5, 0.125], [0.5, -1.0, 0.25], [0.125, 0.25, 2.0]]),
    np.array([[-2.0, 0.25, 0.0], [0.25, 1.5, 0.5], [0.0, 0.5, -1.0]]),
]
_COMPLEX = np.array([[0.5, 0.25 + 0.5j, 0.0], [0.25 - 0.5j, -1.5, 0.75j], [0.0, -0.75j, 1.0]])


def _sampled_document(knots) -> str:
    """Spectra on a 33-point grid, then the certificate, of the sampled path through ``knots``."""
    path = sampled_path(knots)
    rows = path.spectra(np.linspace(0.0, 1.0, 33))
    return rows.tobytes().hex() + "\n" + _certificate(path)


DTYPE_TRAPS = {
    "sampled knots real, real, complex, real": lambda: _sampled_document(
        list(zip([0.0, 0.3, 0.6, 1.0], [_REAL[0], _REAL[1], _COMPLEX, _REAL[2]]))
    ),
    # The ends extrapolate the first and last intervals by about 2e-13.
    "sampled knots at 1e-13 and 1 - 1e-13": lambda: _sampled_document(
        list(zip([1e-13, 0.5, 1.0 - 1e-13], _REAL))
    ),
}

DTYPE_TRAPS_GOLDEN = {
    "sampled knots real, real, complex, real": "29908ac176ddbf03b6d453389011196e251cc4503204447bf9affd9e3484f686",
    "sampled knots at 1e-13 and 1 - 1e-13": "1c49dbb2c06ea3a597f83e0375ded9fdb77b8ab0ac0cf95d6f4e80af182384eb",
}


@pytest.mark.parametrize("name", sorted(DTYPE_TRAPS))
def test_sampled_dtype_digest(name):
    text = DTYPE_TRAPS[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == DTYPE_TRAPS_GOLDEN[name]
