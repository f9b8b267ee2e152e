"""The benchmark's three workloads: seeded inputs, one round each, and gates.

Every round builds its towers and elements afresh, as every CLI call
starts with cold element caches, and runs the same inputs, which come from
the run's seed. A round returns the list of correctness gates it failed;
an empty list means the round was correct.

- ``pro-sweep``: deep shift sweeps on a lazy product tower, where
  rebuilding already-seen blocks costs about H^4, so tower materialization
  does most of the work; plus a self-adjoint S+S* on a twisted tower.
- ``exactness-dense``: ``check_exactness`` and ``quotient_iso_check`` on a
  re-chained product tower and its twisted twin, where dense SVDs of
  Kronecker matrices of size sum(n^2) do most of the work.
- ``cli-suite``: the eleven commands of the bundled spec as subprocesses,
  one at a time, where interpreter and library import plus many small
  kernel calls do most of the work.

The twisted towers route blocks through seeded permutations and Haar
conjugators. Every bundled tower routes blocks by identity, so the twisted
twin keeps a shortcut for identity routing from passing as a general gain.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import protower as pt
import protower.cli

SHIFT_HORIZON = 140     # a sweep pair takes about 0.5 s on a 2-vCPU Xeon VM
TWIST_HORIZON = 40      # levels of the twisted tower carrying S+S*
SEMINORM_LEVELS = (1, 20, 40)
DENSE_HORIZON = 10      # top level of dimension 506: dense SVDs dominate
DENSE_PROBES = 2
QUOTIENT_PROBES = 20
TRACE_LENGTH = 50
TOL = 1e-10
CLI_TIMEOUT_S = 150

CLI_CHECKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_checks.json")


# ---------------------------------------------------------------------------
# twisted towers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistData:
    """Seeded routing of a product tower whose level k has ``sizes[k-1]``.

    Each level's size list extends the previous one. Canonical block i of
    level k sits at position ``order[k-1][i]``, and ``conj[k-1][i]`` is the
    unitary that conjugates canonical block i on its way from level k+1
    down to level k.
    """

    sizes: tuple[tuple[int, ...], ...]
    order: tuple[tuple[int, ...], ...]
    conj: tuple[tuple[np.ndarray, ...], ...]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def twist_data(sizes, rng: np.random.Generator) -> TwistData:
    sizes = tuple(tuple(int(n) for n in s) for s in sizes)
    order = tuple(tuple(int(j) for j in rng.permutation(len(s))) for s in sizes)
    conj = tuple(
        tuple(haar_unitary(n, rng) for n in s) for s in sizes[:-1])
    return TwistData(sizes, order, conj)


def _placed(order, items):
    out = [None] * len(order)
    for i, item in enumerate(items):
        out[order[i]] = item
    return out


def twisted_tower(data: TwistData) -> pt.Tower:
    """The finite tower that ``data`` describes, built from public API only."""
    levels = [
        pt.BlockAlgebra(tuple(_placed(order, sizes)))
        for sizes, order in zip(data.sizes, data.order)]
    maps = []
    for k in range(len(levels) - 1):
        lower, upper = data.order[k], data.order[k + 1]
        routes = _placed(lower, [
            (upper[i], data.conj[k][i]) for i in range(len(lower))])
        maps.append(pt.ConnectingMap(levels[k + 1], levels[k], tuple(routes)))
    return pt.Tower(levels, maps)


def shift_plus_adjoint(n: int) -> np.ndarray:
    b = np.diag(np.arange(1.0, n), 1).astype(complex)
    return b + b.T


# ---------------------------------------------------------------------------
# gates: each compares what a round computed with what it should be
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepStats:
    """What pro-sweep computes on the S+S* element."""

    points: tuple[complex, ...]
    radius: float
    status: str
    bound: float
    seminorms: tuple[float, ...]


def shift_gate(points, radius, status, lower_bound, horizon) -> list[str]:
    """The shift is quasinilpotent with level norms 0, 1, ..., horizon-1."""
    fails = []
    if len(points) != 1 or abs(points[0]) > 1e-10:
        fails.append(f"shift spectrum is {list(points)[:4]}, not {{0}}")
    if not radius <= 1e-10:
        fails.append(f"shift spectral radius {radius} > 1e-10")
    if status != "unknown":
        fails.append(f"shift norm verdict {status!r}, not 'unknown'")
    if lower_bound is None or abs(lower_bound - (horizon - 1)) > 1e-10 * horizon:
        fails.append(f"shift norm lower bound {lower_bound}, not {horizon - 1}")
    return fails


def twin_gate(got: SweepStats, ref: SweepStats, tol: float = TOL) -> list[str]:
    """Twisted results agree with the untwisted twin's within tol."""
    fails = []
    if len(got.points) != len(ref.points) or pt.hausdorff_distance(
            got.points, ref.points) > tol:
        fails.append("twisted spectrum differs from the untwisted twin's")
    if abs(got.radius - ref.radius) > tol:
        fails.append(f"twisted radius {got.radius} != twin {ref.radius}")
    if got.status != ref.status or abs(got.bound - ref.bound) > tol:
        fails.append(
            f"twisted norm verdict {got.status} {got.bound} != twin "
            f"{ref.status} {ref.bound}")
    if any(abs(a - b) > tol for a, b in zip(got.seminorms, ref.seminorms)):
        fails.append(f"twisted seminorms {got.seminorms} != twin {ref.seminorms}")
    return fails


def exactness_gate(rep, ref_kernel_dims, ref_image_dims, quotient_passed) -> list[str]:
    """Both verdicts hold, dimensions match the twin's, traces obey 2/n^2."""
    fails = []
    if not (rep.verdict_original and rep.verdict_bounded):
        fails.append(
            f"exactness verdicts {rep.verdict_original}, {rep.verdict_bounded}")
    if tuple(rep.kernel_dims) != tuple(ref_kernel_dims):
        fails.append(f"kernel dims {rep.kernel_dims} != {tuple(ref_kernel_dims)}")
    if tuple(rep.image_dims) != tuple(ref_image_dims):
        fails.append(f"image dims {rep.image_dims} != {tuple(ref_image_dims)}")
    if not rep.traces:
        fails.append("no squash trace was recorded")
    for trace in rep.traces:
        for n, value in enumerate(trace, start=1):
            if value > 2.0 / n ** 2 + 1e-9:
                fails.append(f"squash trace {value} at n={n} exceeds 2/n^2")
                break
    if not quotient_passed:
        fails.append("quotient isomorphism check failed")
    return fails


def cli_gate(command, returncode, report: bytes, expected_names, first: bytes) -> list[str]:
    """Exit 0, every record passed, the seed's check names, stable bytes."""
    fails = []
    if returncode != 0:
        fails.append(f"{command}: exit code {returncode}")
    try:
        lines = [json.loads(line) for line in report.decode().splitlines()]
    except ValueError as exc:
        return fails + [f"{command}: unreadable report ({exc})"]
    records = [r for r in lines if r.get("kind") == "check"]
    if not records or not all(r["passed"] for r in records):
        fails.append(f"{command}: not every record passed")
    names = [r["name"] for r in records]
    if names != list(expected_names):
        fails.append(f"{command}: check names {names} != {list(expected_names)}")
    if report != first:
        fails.append(f"{command}: report bytes differ between rounds")
    return fails


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ProSweep:
    """The shift sweeps, then the twisted S+S*; ``on_step`` is called
    between the two, where run.py samples the host's speed."""

    name = "pro-sweep"
    cold_imports = 0

    def __init__(self, seed: int, root: str, workdir: str):
        rng = np.random.default_rng([seed, 1])
        sizes = [range(1, k + 1) for k in range(1, TWIST_HORIZON + 1)]
        self.twist = twist_data(sizes, rng)
        self.top_blocks = [shift_plus_adjoint(n) for n in range(1, TWIST_HORIZON + 1)]
        twin = pt.make_product_tower(lambda k: k, TWIST_HORIZON, lazy=False)
        top = pt.AlgebraElement(twin.level(TWIST_HORIZON), self.top_blocks)
        self.reference = self._stats(
            pt.coherent_from_top(twin, top, TWIST_HORIZON, selfadjoint=True))
        self.on_step = lambda: None

    @staticmethod
    def _stats(e) -> SweepStats:
        spec = pt.pro_spectrum(e, TWIST_HORIZON)
        verdict = pt.uniform_norm(e, TWIST_HORIZON, math.inf)
        return SweepStats(
            tuple(spec.points), spec.radius, verdict.status, verdict.bound,
            tuple(pt.seminorm(e, p) for p in SEMINORM_LEVELS))

    def round(self) -> list[str]:
        tower = pt.make_product_tower(lambda k: k, 1)
        shift = pt.shift_element(tower)
        spec = pt.pro_spectrum(shift, SHIFT_HORIZON)
        verdict = pt.uniform_norm(shift, SHIFT_HORIZON, math.inf)
        fails = shift_gate(spec.points, spec.radius, verdict.status,
                           verdict.lower_bound, SHIFT_HORIZON)
        self.on_step()
        twisted = twisted_tower(self.twist)
        top = pt.AlgebraElement(
            twisted.level(TWIST_HORIZON),
            _placed(self.twist.order[-1], self.top_blocks))
        e = pt.coherent_from_top(twisted, top, TWIST_HORIZON, selfadjoint=True)
        return fails + twin_gate(self._stats(e), self.reference)


class ExactnessDense:
    name = "exactness-dense"
    cold_imports = 0

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.sizes = [list(range(1, k + 2)) for k in range(1, DENSE_HORIZON + 1)]
        self.twist = twist_data(self.sizes, np.random.default_rng([seed, 2]))

    def _check(self, tower, selector, stream: int):
        dec = pt.closed_ideal(tower, selector)
        rep = pt.check_exactness(
            dec.inclusion, dec.quotient_map, probes=DENSE_PROBES,
            horizon=DENSE_HORIZON, tol=TOL,
            rng=np.random.default_rng([self.seed, stream]),
            trace_length=TRACE_LENGTH)
        quotient = pt.quotient_iso_check(
            tower, selector, horizon=DENSE_HORIZON, tol=TOL,
            rng=np.random.default_rng([self.seed, stream + 1]),
            probes=QUOTIENT_PROBES)
        return rep, quotient.passed

    def round(self) -> list[str]:
        spec = pt.SpecFile({"towers": [{
            "name": "rechained",
            "rule": {"kind": "custom_table", "block_sizes": self.sizes}}]})
        plain, plain_q = self._check(
            spec.tower("rechained"), [frozenset({0})] * DENSE_HORIZON, 10)
        twisted, twisted_q = self._check(
            twisted_tower(self.twist),
            [frozenset({order[0]}) for order in self.twist.order], 20)
        ones = (1,) * DENSE_HORIZON  # the ideal is the 1x1 block at every level
        return (exactness_gate(plain, ones, ones, plain_q)
                + exactness_gate(twisted, plain.kernel_dims, plain.image_dims,
                                 twisted_q))


class CliSuite:
    """All commands of the bundled spec, one subprocess at a time.

    The seed fixes the order of the commands within a round; the commands
    themselves use the seeds of the bundled spec, as a user's call does.
    ``on_step`` is called after each command; run.py samples the host's
    speed there.
    """

    name = "cli-suite"

    def __init__(self, seed: int, root: str, workdir: str):
        with open(CLI_CHECKS, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        order = np.random.default_rng([seed, 3]).permutation(len(pt.cli.COMMANDS))
        self.commands = [pt.cli.COMMANDS[i] for i in order]
        self.cold_imports = len(self.commands)
        self.root = root
        self.workdir = workdir
        self.first: dict[str, bytes] = {}
        self.on_step = lambda: None

    def round(self) -> list[str]:
        fails = []
        for command in self.commands:
            out = os.path.join(self.workdir, f"{command}.jsonl")
            if os.path.exists(out):
                os.remove(out)
            proc = subprocess.run(
                [sys.executable, "-m", "protower.cli", command, "--out", out],
                cwd=self.root, stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
            data = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    data = fh.read()
            fails += cli_gate(command, proc.returncode, data,
                              self.expected[command],
                              self.first.setdefault(command, data))
            self.on_step()
        return fails

    def in_process_round(self) -> list[str]:
        """The same commands through ``protower.cli.run`` in this process."""
        fails = []
        for command in self.commands:
            spec = pt.load_specfile(pt.cli.bundled_spec_path())
            report = pt.cli.run(command, spec, {})
            data = report.to_jsonl().encode()
            fails += cli_gate(command, 0 if report.all_passed else 1, data,
                              self.expected[command],
                              self.first.setdefault(command, data))
        return fails


WORKLOADS = {w.name: w for w in (ProSweep, ExactnessDense, CliSuite)}
