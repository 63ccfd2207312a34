"""The pooled eigensolve route gives the serial route's results, counts and errors.

With two solver threads, paths of dimension 32 and up build their next
stack while earlier ones solve (``operators._solve_spectrum``).  Each test
forces the worker count to 2 and to 1 in this process and compares the
two runs; the rule that sets the count from the environment is checked
in child interpreters, which read it at import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from specflow import (
    BaerFamilySpec,
    DepthExceeded,
    EigensolverError,
    OperatorPath,
    baer_family,
    matrix_path,
    oracle_flow,
    random_family,
    spectral_flow,
)
from specflow import operators
from specflow.config import sampled_path
from specflow.reporting import dumps_document, flow_certificate_document

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workers(monkeypatch):
    """``use(n)`` sets the solver thread count; a pool made under it is shut down after use."""
    shared = operators._POOL

    def shut_down_own_pool() -> None:
        if operators._POOL is not None and operators._POOL is not shared:
            operators._POOL.shutdown()

    def use(n: int) -> None:
        shut_down_own_pool()
        monkeypatch.setattr(operators, "_WORKERS", n)
        monkeypatch.setattr(operators, "_POOL", None)

    yield use
    shut_down_own_pool()


@pytest.fixture
def futures(workers, monkeypatch):
    """The futures the pooled route submits, with two solver threads."""
    workers(2)
    pool, submitted = operators._pool(), []
    submit = pool.submit

    def recording(*args):
        future = submit(*args)
        submitted.append(future)
        return future

    monkeypatch.setattr(pool, "submit", recording)
    return submitted


def _hermitian(rng, dim: int, complex_entries: bool) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    if complex_entries:
        g = g + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _sampled(dim: int, complex_entries: bool, seed: int):
    rng = np.random.default_rng(seed)
    return sampled_path([(t, _hermitian(rng, dim, complex_entries)) for t in (0.0, 0.4, 1.0)])


def _certificate(path) -> str:
    return dumps_document(flow_certificate_document(spectral_flow(path)))


def _oracle_and_certificate(path) -> tuple:
    return oracle_flow(path, grid=128), _certificate(path)


def _mixed(seed: int) -> OperatorPath:
    """A 32-dim ``matrix_path``, real up to t = 0.5, complex after."""
    rng = np.random.default_rng(seed)
    h, k = _hermitian(rng, 32, False), rng.standard_normal((32, 32))
    k = k - k.T

    def fn(t):
        real = np.cos(3 * t) * h + t * np.eye(32)
        return real if t <= 0.5 else real + 1j * (t - 0.5) * k

    return matrix_path(32, fn)


def _mixed_spectra(path) -> tuple:
    # One stack of 16 matrices (stack_chunk(32) on either route): 8 real, 8 complex.
    ts = np.linspace(0.0, 1.0, 16)
    solved = []
    lock = threading.Lock()
    original = np.linalg.eigvalsh

    def recording(a):
        with lock:
            solved.append((a.dtype.kind, len(a)))
        return original(a)

    np.linalg.eigvalsh = recording
    try:
        rows = path.spectra(ts)
    finally:
        np.linalg.eigvalsh = original
    return rows.tobytes(), sorted(solved)


@pytest.mark.parametrize(
    "make, run",
    [
        (lambda: _sampled(96, True, 1), _certificate),
        (lambda: _sampled(64, False, 2), _certificate),
        (lambda: random_family(32, 3), _oracle_and_certificate),
        (lambda: _mixed(4), _mixed_spectra),
    ],
    ids=["sampled-96-complex", "sampled-64-real", "random-32-oracle", "mixed-real-complex"],
)
def test_pooled_route_matches_serial(make, run, workers, eigvalsh_counter):
    results = []
    for n in (2, 1):
        workers(n)
        eigvalsh_counter.matrices = 0
        results.append((run(make()), eigvalsh_counter.matrices))
    assert results[0] == results[1]
    assert results[0][1] > 0


def test_stress_more_workers_than_cpus(workers, eigvalsh_counter):
    # Four solver threads, thread switches every 10 us: no row or count may change.
    step = operators.stack_chunk(32)
    g = np.random.default_rng(5).standard_normal((32, 32))
    h = (g + g.T) / 2

    def build(ts):
        return np.cos(ts)[:, None, None] * h + ts[:, None, None] * np.eye(32)

    ts = np.linspace(0.0, 1.0, 25 * step)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n in (4, 1):
            workers(n)
            eigvalsh_counter.matrices = 0
            rows = OperatorPath(32, build).spectra(ts)
            results.append((rows.tobytes(), eigvalsh_counter.matrices))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1]
    assert results[0][1] == ts.size


def test_mixed_stack_solves_real_matrices_as_real(workers):
    workers(2)
    _, solved = _mixed_spectra(_mixed(4))
    assert solved == [("c", 8), ("f", 8)]


def test_pooled_route_is_used(futures):
    _certificate(_sampled(64, False, 2))
    assert len(futures) > 1


def test_diagonal_path_is_sorted_on_the_calling_thread(futures, workers):
    # A 36-dim diagonal path: even with two solver threads no chunk goes to the pool.
    def run() -> tuple:
        path = baer_family(BaerFamilySpec(m=31))
        return path.spectra(np.linspace(0.0, 1.0, 101)).tobytes(), _certificate(path)

    two_workers = run()
    assert not futures
    workers(1)
    assert run() == two_workers


@pytest.mark.parametrize("dim", [2, 31, 32, 64, 96, 128])
def test_pooled_stacks_hold_enough_eigenvalues_to_release_the_gil(dim, workers):
    workers(1)
    serial = operators.stack_chunk(dim)
    workers(2)
    pooled = operators.stack_chunk(dim)
    if dim < operators.POOL_MIN_DIM:
        assert pooled == serial
    else:
        assert pooled * dim > operators.GIL_HELD_EIGENVALUES
        assert pooled == max(serial, operators.GIL_HELD_EIGENVALUES // dim + 1)


def test_depth_exceeded_text_matches_serial(workers):
    # Every eigenvalue crosses zero at t = 0.5, which no window certifies.
    texts = []
    for n in (2, 1):
        workers(n)
        path = matrix_path(32, lambda t: (t - 0.5) * np.eye(32), lipschitz=1.0)
        with pytest.raises(DepthExceeded) as info:
            spectral_flow(path)
        texts.append(str(info.value))
    assert texts[0] == texts[1]


def _chunked_path(bad_chunk: int) -> OperatorPath:
    """A 32-dim diagonal-valued dense path whose build fails on the chunk ``bad_chunk``."""
    step = operators.stack_chunk(32)

    def build(ts):
        if ts[0] >= bad_chunk * step:
            raise ValueError(f"build failed at t={ts[0]!r}")
        return ts[:, None, None] * np.eye(32)

    return OperatorPath(32, build)


def _chunk_params(chunks: int) -> list[float]:
    # Parameters past 1 reach the build through ``_rows``, which does not range-check.
    return [float(t) for t in range(chunks * operators.stack_chunk(32))]


def _failing_eigvalsh(monkeypatch, fail: int, slow: int) -> None:
    """Fail the stack whose first matrix is chunk ``fail``'s; make chunk ``slow``'s take 0.2 s."""
    step = operators.stack_chunk(32)
    original = np.linalg.eigvalsh

    def patched(a):
        first = a[0, 0, 0]
        if first == fail * step:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        if first == slow * step:
            time.sleep(0.2)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", patched)


@pytest.mark.parametrize("bad_chunk", [2, 3])
def test_eigensolver_error_comes_before_a_later_build_error(
    bad_chunk, futures, workers, monkeypatch
):
    # Chunk 1 fails to solve.  Chunk 2 fails to build while chunk 1 is still
    # pending, or it solves slowly while chunk 1's failure is collected and
    # chunk 3 would fail to build.
    _failing_eigvalsh(monkeypatch, fail=1, slow=2)
    with pytest.raises(EigensolverError, match="dim=32") as pooled:
        _chunked_path(bad_chunk)._rows(_chunk_params(4))
    assert len(futures) == bad_chunk
    assert all(future.done() for future in futures)
    workers(1)
    with pytest.raises(EigensolverError) as serial:
        _chunked_path(bad_chunk)._rows(_chunk_params(4))
    assert str(pooled.value) == str(serial.value)


def test_build_error_in_the_third_chunk_keeps_its_serial_text(futures, workers, monkeypatch):
    bad_t = 2 * operators.stack_chunk(32) + 3.0

    def build(ts):
        stack = ts[:, None, None] * np.eye(32)
        stack[ts == bad_t, 0, 0] = np.nan
        return stack

    # Chunk 1 still solves when chunk 2 fails its ingest.
    _failing_eigvalsh(monkeypatch, fail=-1, slow=1)
    message = f"^operator entries must be finite at t={bad_t!r}$"
    with pytest.raises(ValueError, match=message):
        OperatorPath(32, build)._rows(_chunk_params(4))
    assert len(futures) == 2
    assert all(future.done() for future in futures)
    workers(1)
    with pytest.raises(ValueError, match=message):
        OperatorPath(32, build)._rows(_chunk_params(4))


# Prints the solver thread count, the usable CPUs and whether importing
# the CLI loaded concurrent.futures.
WORKERS_SCRIPT = """
import json, os, sys
import specflow.cli
from specflow import operators
print(json.dumps([operators._WORKERS, len(os.sched_getaffinity(0)),
                  "concurrent.futures" in sys.modules]))
"""

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_workers(**blas: str) -> tuple[int, int]:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARIABLES}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", WORKERS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    workers, cpus, futures_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not futures_loaded
    return workers, cpus


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
class TestWorkerCount:
    """Solver threads are the usable CPUs over the BLAS threads, read as OpenBLAS reads them."""

    def test_one_blas_thread_leaves_every_cpu(self):
        workers, cpus = _child_workers(OPENBLAS_NUM_THREADS="1")
        assert workers == cpus

    def test_unset_variables_give_one(self):
        # BLAS then takes every CPU.
        assert _child_workers()[0] == 1

    def test_openblas_variable_wins(self):
        workers, cpus = _child_workers(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="1")
        assert workers == max(1, cpus // 2)

    def test_goto_before_omp(self):
        workers, cpus = _child_workers(GOTO_NUM_THREADS="2", OMP_NUM_THREADS="1")
        assert workers == max(1, cpus // 2)

    @pytest.mark.parametrize("value", ["abc", "", "0", "-1"])
    def test_value_that_is_not_a_positive_integer_is_skipped(self, value):
        workers, cpus = _child_workers(OPENBLAS_NUM_THREADS=value, OMP_NUM_THREADS="1")
        assert workers == cpus


# Solves on the pool, forks, and solves again in the child, which must make
# its own pool: the parent's threads do not exist there.  The alarm ends a
# child that waits for them.
FORK_SCRIPT = """
import os, signal
import numpy as np
from specflow import operators
operators._WORKERS = 2
stacks = [np.stack([np.eye(32)] * 16)] * 3
operators._solve_spectrum(stacks)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    operators._solve_spectrum(stacks)
    os._exit(0)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_solves_on_its_own_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", FORK_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
