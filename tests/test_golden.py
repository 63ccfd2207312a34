"""Byte-identity guard: sha256 of the stdout of four fixed CLI runs.

Each run reads only diagonal paths, so no matrix reaches LAPACK and the
output does not depend on the BLAS/LAPACK build.  A change that alters
one of these outputs on purpose updates its digest here and says so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from specflow.cli import main

GOLDEN = {
    "components --k 8": "3385a13e039f01fd4f45a3579240d6ea62bb485066e3c8b95c6c9d2df67730e1",
    "flow --family glue --m 3 --seed 7 --oracle": "c3e5627644f41c4f4e77c6584b9dc27a5d6f6c1f25c876216b15cfa9ad865baa",
    "flow --family circle --modes 4 --winding -2 --oracle --grid 64": "d212a5a882a1ef09ce3a2ce08566ff5a73b2524626d422cc98fe5ad9c67d8b70",
    "spectrum --family baer --m 1": "0db02600cb2e5cac5227a3b76cac5caf5579554d42f254a50911f94b42614f1a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys, eigvalsh_counter):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert eigvalsh_counter.matrices == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN[command]
