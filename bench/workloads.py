"""The four workloads: inputs made from the seed, items, and their checks.

An item is one closed-loop call into the program.  ``Item.run`` holds the
program calls only (path constructors included) and is what the worker
times; ``check_item`` runs right after it, outside the timed body, and
returns the small summary that ``check_round`` needs for identities across
items.  Every round builds fresh path objects, so no item reads another
item's cache and the work of a round does not depend on how many rounds
ran before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import specflow as sf
import specflow.cli
from checks import (
    check_component_report,
    check_equal_flows,
    check_flow,
    check_partition,
    check_sampled_certificate,
    require,
)


class ItemFailed(Exception):
    """A CLI item exited with a nonzero code."""


@dataclass(frozen=True)
class Item:
    kind: str
    group: object
    run: Callable[[], object]


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _sym(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2


def _herm(rng: np.random.Generator, n: int, complex_entries: bool) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def _certificate_check(eigvalsh, path, cert) -> int:
    check_flow(eigvalsh, cert.flow, path.at(0.0).entries, path.at(1.0).entries)
    check_partition(cert.times, cert.counts, cert.flow)
    return cert.flow


def _run_cli(argv: list[str]) -> str:
    """One in-process ``specflow`` run; its stdout report is returned."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # Looked up at call time so that a traced run sees the wrapped entry point.
        code = specflow.cli.main(argv)
    if code != 0:
        raise ItemFailed(f"specflow {argv[0]} exited with code {code}")
    return buf.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path, eigvalsh):
        self.seed = seed
        self.scratch = scratch
        self.eigvalsh = eigvalsh

    @staticmethod
    def prepare(seed: int) -> None:
        """The program constructors the workload calls before its first item."""

    def prepare_checks(self) -> None:
        """Reference data for the checks, built before anything is timed."""

    def items(self) -> list[Item]:
        raise NotImplementedError

    def check_item(self, item: Item, value) -> object:
        raise NotImplementedError

    def check_round(self, summaries: list[tuple[Item, object]]) -> None:
        """Identities across the items of one round (only successful items)."""


# --- certify-mix ----------------------------------------------------------

CERTIFY_DIMS = tuple(range(2, 13))
PAIR_DIMS = (2, 4, 6, 8, 10, 12)
HOMOTOPY_DIMS = (5, 9)
HOMOTOPY_SLICES = (0.0, 0.25, 0.5, 0.75, 1.0)
# The warp ladder is the same on every seed.  Its eigensolve count grows
# linearly with the slope and moves by about 40% with the knot position and
# the base path, more than the counter's bound, so only the remaining items
# take their inputs from the seed.
WARP_BASE = (5, 0)
WARP_KNOT = 0.5
WARP_SLOPES = (3.0, 10.0, 30.0, 100.0, 300.0)
# Fails today: the global slope bound of reparametrize is about 4e16 here,
# and spectral_flow raises DepthExceeded.  Counted as failed, every round.
FAILING_WARP_KNOTS = (0.99, 0.9899999999999999)


def _warp(a: sf.OperatorPath, knots) -> sf.OperatorPath:
    """Piecewise-linear monotone bijection through the interior ``knots``."""
    xs = np.concatenate([[0.0], np.sort(np.asarray(knots, dtype=float)), [1.0]])
    ys = np.linspace(0.0, 1.0, len(xs))
    slope = float(np.max(np.diff(ys) / np.diff(xs)))
    return sf.reparametrize(a, lambda t: float(np.interp(t, xs, ys)), lipschitz=a.lipschitz * slope)


class CertifyMix(Workload):
    """One ``spectral_flow`` call per item on small dense paths (dim 2-12)."""

    name = "certify-mix"

    def __init__(self, seed, scratch, eigvalsh):
        super().__init__(seed, scratch, eigvalsh)
        rng = np.random.default_rng(seed)
        self.zero = [(d, _subseed(rng)) for d in CERTIFY_DIMS]
        self.pairs = []
        for d in PAIR_DIMS:
            b, c = _sym(rng, d), _sym(rng, d)
            lip = float(np.linalg.norm(b, 2) + np.pi * np.linalg.norm(c, 2))
            self.pairs.append((d, _subseed(rng), b, c, lip))
        self.homotopies = []
        for d in HOMOTOPY_DIMS:
            e = 0.5 * _sym(rng, d)
            self.homotopies.append((d, _subseed(rng), e, np.pi * float(np.linalg.norm(e, 2))))

    @staticmethod
    def prepare(seed: int) -> None:
        d0 = CERTIFY_DIMS[0]
        sf.invertible_valued_family(d0, _subseed(np.random.default_rng(seed)))

    def items(self) -> list[Item]:
        out = []
        for d, s in self.zero:
            out.append(Item("zero", None, lambda d=d, s=s: self._flow(sf.invertible_valued_family(d, s))))
        for g, pair in enumerate(self.pairs):
            for role in ("a", "b", "concat", "reverse"):
                out.append(Item("pair-" + role, g, lambda role=role, pair=pair: self._pair(role, *pair)))
        for g, hom in enumerate(self.homotopies):
            for s in HOMOTOPY_SLICES:
                out.append(Item("slice", g, lambda s=s, hom=hom: self._slice(s, *hom)))
        out.append(Item("warp-base", None, lambda: self._flow(sf.random_family(*WARP_BASE))))
        for slope in WARP_SLOPES:
            knots = (WARP_KNOT, WARP_KNOT + 1.0 / (3.0 * slope))
            out.append(Item("warp", slope, lambda k=knots: self._flow(_warp(sf.random_family(*WARP_BASE), k))))
        out.append(
            Item("warp", "failing", lambda: self._flow(_warp(sf.random_family(*WARP_BASE), FAILING_WARP_KNOTS)))
        )
        return out

    @staticmethod
    def _flow(path):
        return path, sf.spectral_flow(path)

    def _pair(self, role, d, s, b, c, lip):
        a = sf.random_family(d, s)
        if role == "a":
            return self._flow(a)
        if role == "reverse":
            return self._flow(sf.reverse(a))
        start = a.at(1.0).entries
        ext = sf.matrix_path(d, lambda t: start + t * b + np.sin(np.pi * t) * c, lipschitz=lip)
        return self._flow(ext if role == "b" else sf.concat(a, ext))

    def _slice(self, s, d, seed, e, e_lip):
        a = sf.random_family(d, seed, invertible_ends=True)
        bumped = sf.matrix_path(
            d, lambda t: a.at(t).entries + np.sin(np.pi * t) * e, lipschitz=a.lipschitz + e_lip
        )
        return self._flow(sf.affine_homotopy(a, bumped).slice_at(s))

    def check_item(self, item, value):
        path, cert = value
        flow = _certificate_check(self.eigvalsh, path, cert)
        if item.kind == "zero":
            require(flow == 0, f"invertible-valued path has flow {flow}")
        return flow

    def check_round(self, summaries):
        # Items that failed are absent; an identity is checked when all its
        # members completed.
        flows: dict[tuple[str, object], list[int]] = {}
        for item, flow in summaries:
            flows.setdefault((item.kind, item.group), []).append(flow)
        for g in range(len(self.pairs)):
            fa, fb, fc, fr = (flows.get(("pair-" + r, g), [None])[0] for r in ("a", "b", "concat", "reverse"))
            if None not in (fa, fb, fc):
                require(fc == fa + fb, f"pair {g}: concat flow {fc} != {fa} + {fb}")
            if None not in (fa, fr):
                require(fr == -fa, f"pair {g}: reverse flow {fr} != -{fa}")
        for g in range(len(self.homotopies)):
            check_equal_flows(f"homotopy {g} slices", flows.get(("slice", g), []))
        base = flows.get(("warp-base", None), [None])[0]
        for (kind, group), values in flows.items():
            if kind == "warp" and base is not None:
                require(values[0] == base, f"warp {group}: flow {values[0]} != unwarped {base}")


# --- oracle-grid ----------------------------------------------------------

ORACLE_GRID = 512
BAER_MS = (1, 2, 3, 5)
CIRCLE_MODES = 5
CIRCLE_WINDINGS = tuple(range(-3, 4))
GLUE_MS = (1, 4)
GLUE_BASE = (-7.0, -3.0, 3.0, 7.0)
GLUE_EPSILON = 0.4
ORACLE_RANDOM_DIMS = tuple(range(2, 13))


class OracleGrid(Workload):
    """One certified flow plus its ``oracle_flow(grid=512)`` cross-check per item."""

    name = "oracle-grid"

    def __init__(self, seed, scratch, eigvalsh):
        super().__init__(seed, scratch, eigvalsh)
        rng = np.random.default_rng(seed)
        self.glue_seeds = [_subseed(rng) for _ in GLUE_MS]
        self.random_seeds = [_subseed(rng) for _ in ORACLE_RANDOM_DIMS]

    @staticmethod
    def prepare(seed: int) -> None:
        sf.baer_family(sf.BaerFamilySpec(m=BAER_MS[0]))

    def items(self) -> list[Item]:
        out = []
        for m in BAER_MS:
            out.append(Item("closed", m + 1, lambda m=m: self._cross(sf.baer_family(sf.BaerFamilySpec(m=m)))))
        for w in CIRCLE_WINDINGS:
            out.append(Item("closed", w, lambda w=w: self._cross(sf.circle_family(CIRCLE_MODES, w))))
        for m, s in zip(GLUE_MS, self.glue_seeds):
            out.append(Item("closed", m + 1, lambda m=m, s=s: self._cross(self._glued(m, s))))
        for d, s in zip(ORACLE_RANDOM_DIMS, self.random_seeds):
            out.append(
                Item("random", None, lambda d=d, s=s: self._cross(sf.random_family(d, s, invertible_ends=True)))
            )
        return out

    @staticmethod
    def _glued(m, seed):
        spec = sf.GluingSpec(
            base=sf.Spectrum(GLUE_BASE),
            sphere_family=sf.BaerFamilySpec(m=m),
            epsilon=GLUE_EPSILON,
            seed=seed,
        )
        return sf.glue(spec).path

    @staticmethod
    def _cross(path):
        return path, sf.spectral_flow(path), sf.oracle_flow(path, grid=ORACLE_GRID)

    def check_item(self, item, value):
        path, cert, oracle = value
        flow = _certificate_check(self.eigvalsh, path, cert)
        require(oracle.flow == flow, f"oracle flow {oracle.flow} != certified flow {flow}")
        if item.kind == "closed":
            require(flow == item.group, f"flow {flow} != closed form {item.group}")
        return flow


# --- components-k8 --------------------------------------------------------

COMPONENTS_K = 8
COMPONENTS_DIM = 24
COMPONENTS_EPSILON = 0.25


class ComponentsK8(Workload):
    """One in-process ``specflow components --k 8 --out DIR`` per item."""

    name = "components-k8"

    def __init__(self, seed, scratch, eigvalsh):
        super().__init__(seed, scratch, eigvalsh)
        self.out_dir = scratch / "components"
        self.argv = ["components", "--k", str(COMPONENTS_K), "--seed", str(seed), "--out", str(self.out_dir)]
        self.basepoint = None
        self.endpoints = None
        self._verified: set[str] = set()

    @staticmethod
    def prepare(seed: int) -> None:
        sf.default_component_setup(ambient_dim=COMPONENTS_DIM, epsilon=COMPONENTS_EPSILON, seed=seed)

    def prepare_checks(self) -> None:
        basepoint, generator = sf.default_component_setup(
            ambient_dim=COMPONENTS_DIM, epsilon=COMPONENTS_EPSILON, seed=self.seed
        )
        report = sf.build_distinct_paths(COMPONENTS_K, generator, basepoint)
        self.basepoint = basepoint.entries.copy()
        self.endpoints = [p.at(1.0).entries.copy() for p in report.paths]

    def items(self) -> list[Item]:
        return [Item("components", None, self._run)]

    def _run(self):
        return _run_cli(self.argv)

    def check_item(self, item, text):
        # Removed once read, so that every item has to write it anew.
        report_file = self.out_dir / "component-report.json"
        written = report_file.read_text()
        report_file.unlink()
        require(written == text, "--out report differs from the stdout report")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self._verified:
            check_component_report(self.eigvalsh, json.loads(text), COMPONENTS_K, self.basepoint, self.endpoints)
            self._verified.add(digest)
        return None


# --- dense-sampled --------------------------------------------------------

# (dim, complex entries, knots), one distinct seeded path each per round.
# The four 96-dim paths sit in the middle of the latency order, so the
# median item is one of them and does not hinge on two paths of different
# shapes; the two 128-dim complex paths set the peak memory.
DENSE_PATHS = (
    (64, False, 3),
    (96, True, 4),
    (96, True, 4),
    (96, True, 4),
    (96, True, 4),
    (128, False, 5),
    (128, True, 4),
    (128, True, 4),
)


def _matrix_json(m: np.ndarray):
    if np.iscomplexobj(m):
        return {"real": m.real.tolist(), "imag": m.imag.tolist()}
    return m.tolist()


class DenseSampled(Workload):
    """One in-process ``specflow flow --config FILE`` on a sampled path per item."""

    name = "dense-sampled"

    def __init__(self, seed, scratch, eigvalsh):
        super().__init__(seed, scratch, eigvalsh)
        rng = np.random.default_rng(seed)
        scratch.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for idx, (dim, complex_entries, knots) in enumerate(DENSE_PATHS):
            # Interior knots jittered inside equal strata, never near each other.
            inner = (np.arange(1, knots - 1) + rng.uniform(-0.25, 0.25, knots - 2)) / (knots - 1)
            ts = np.concatenate([[0.0], inner, [1.0]])
            mats = [_herm(rng, dim, complex_entries) for _ in range(knots)]
            config = {
                "family": {
                    "kind": "sampled",
                    "samples": [{"t": float(t), "matrix": _matrix_json(m)} for t, m in zip(ts, mats)],
                }
            }
            target = scratch / f"sampled-{idx}.json"
            target.write_text(json.dumps(config))
            self.paths.append((target, ts, mats))
        self._verified: set[tuple[int, str]] = set()

    def items(self) -> list[Item]:
        return [
            Item("sampled", idx, lambda target=target: _run_cli(["flow", "--config", str(target)]))
            for idx, (target, _, _) in enumerate(self.paths)
        ]

    def check_item(self, item, text):
        key = (item.group, hashlib.sha256(text.encode()).hexdigest())
        if key not in self._verified:
            _, ts, mats = self.paths[item.group]
            check_sampled_certificate(self.eigvalsh, json.loads(text), ts, mats)
            self._verified.add(key)
        return None


WORKLOADS = {w.name: w for w in (CertifyMix, OracleGrid, ComponentsK8, DenseSampled)}
