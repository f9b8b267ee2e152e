"""Tests for the benchmark itself: each correctness gate fires on a wrong value.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_gates.py
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hostspeed  # noqa: E402
import protower as pt  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a round takes well under a second."""
    monkeypatch.setattr(wl, "SHIFT_HORIZON", 12)
    monkeypatch.setattr(wl, "TWIST_HORIZON", 6)
    monkeypatch.setattr(wl, "SEMINORM_LEVELS", (1, 3, 6))
    monkeypatch.setattr(wl, "DENSE_HORIZON", 4)
    monkeypatch.setattr(wl, "TRACE_LENGTH", 10)


def test_twisted_tower_permutes_and_conjugates():
    data = wl.twist_data([range(1, k + 2) for k in range(1, 6)],
                         np.random.default_rng(5))
    tower = wl.twisted_tower(data)
    routes = [r for p in range(1, 5) for r in tower.map(p).routes]
    assert any(s != j for p in range(1, 5) for j, (s, _) in enumerate(tower.map(p).routes))
    assert all(u is not None for _, u in routes)
    assert sorted(tower.level(5).block_sizes) == [1, 2, 3, 4, 5, 6]


def test_rounds_pass_at_small_size(small):
    assert wl.ProSweep(3, "", "").round() == []
    assert wl.ExactnessDense(3, "", "").round() == []


def test_shift_gate_fires():
    tower = pt.make_product_tower(lambda k: k, 1)
    shift = pt.shift_element(tower)
    spec = pt.pro_spectrum(shift, 15)
    verdict = pt.uniform_norm(shift, 15, math.inf)
    good = (spec.points, spec.radius, verdict.status, verdict.lower_bound)
    assert wl.shift_gate(*good, 15) == []
    assert wl.shift_gate(*good, 16)                      # wrong horizon
    assert wl.shift_gate((0j, 1.0), *good[1:], 15)       # extra point
    assert wl.shift_gate(good[0], 1e-6, *good[2:], 15)   # radius too large
    assert wl.shift_gate(*good[:2], "bounded", good[3], 15)
    assert wl.shift_gate(*good[:3], None, 15)


def test_twin_gate_fires(small):
    sweep = wl.ProSweep(4, "", "")
    ref = sweep.reference
    assert wl.twin_gate(ref, ref) == []
    assert wl.twin_gate(ref, dataclasses.replace(ref, radius=ref.radius + 1e-9))
    assert wl.twin_gate(ref, dataclasses.replace(ref, points=ref.points[1:]))
    assert wl.twin_gate(ref, dataclasses.replace(
        ref, points=(ref.points[0] + 1e-9,) + ref.points[1:]))
    assert wl.twin_gate(ref, dataclasses.replace(ref, status="unknown"))
    assert wl.twin_gate(ref, dataclasses.replace(ref, bound=ref.bound * 2))
    assert wl.twin_gate(ref, dataclasses.replace(
        ref, seminorms=ref.seminorms[:-1] + (0.0,)))


def test_exactness_gate_fires():
    sizes = [list(range(1, k + 2)) for k in range(1, 5)]
    tower = pt.SpecFile({"towers": [{"name": "t", "rule": {
        "kind": "custom_table", "block_sizes": sizes}}]}).tower("t")
    dec = pt.closed_ideal(tower, [frozenset({0})] * 4)
    rep = pt.check_exactness(dec.inclusion, dec.quotient_map, probes=1,
                             horizon=4, tol=1e-10,
                             rng=np.random.default_rng(1), trace_length=10)
    dims = rep.kernel_dims
    assert wl.exactness_gate(rep, dims, dims, True) == []
    wrong = (2,) + tuple(dims[1:])
    assert wl.exactness_gate(rep, wrong, dims, True)
    assert wl.exactness_gate(rep, dims, wrong, True)
    assert wl.exactness_gate(rep, dims, dims, False)
    assert wl.exactness_gate(
        dataclasses.replace(rep, verdict_bounded=False), dims, dims, True)
    assert wl.exactness_gate(dataclasses.replace(rep, traces=()), dims, dims, True)
    bad = ((rep.traces[0][0],) + (0.6,) + rep.traces[0][2:],)
    assert wl.exactness_gate(dataclasses.replace(rep, traces=bad), dims, dims, True)


def test_cli_gate_fires():
    spec = pt.load_specfile(pt.cli.bundled_spec_path())
    report = pt.cli.run("check-exact", spec, {}).to_jsonl().encode()
    names = ["exactness", "squash-trace"]
    assert wl.cli_gate("check-exact", 0, report, names, report) == []
    assert wl.cli_gate("check-exact", 1, report, names, report)
    assert wl.cli_gate("check-exact", 0, report, names[:1], report)
    assert wl.cli_gate("check-exact", 0, report, names, report + b"\n")
    assert wl.cli_gate("check-exact", 0, b"not json", names, b"not json")
    failing = report.replace(b'"passed":true', b'"passed":false', 1)
    assert wl.cli_gate("check-exact", 0, failing, names, failing)


def test_recorded_cli_checks_cover_every_command():
    assert sorted(wl.CliSuite(1, "", "").expected) == sorted(pt.cli.COMMANDS)


class _Fails:
    cold_imports = 0

    def __init__(self, outcome):
        self.outcome = outcome

    def round(self):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize("outcome", [["gate failed"], RuntimeError("boom")])
def test_failed_rounds_are_counted(outcome):
    counter = run.Counter()
    probes = run.SetupProbes(0.0, hostspeed.HostSpeed())
    probes.imports, probes.loads, probes.due = [0.3], [0.01], []
    probes.factors = [1.0]
    run.run_plain(_Fails(outcome), 0.0, counter, probes)
    assert counter.attempted == 2 and counter.failed == 2


def test_host_speed_scales_by_the_samples_around_an_item(monkeypatch):
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.REF_NOMINAL_S
    samples = iter([nominal, 2 * nominal, 2 * nominal, nominal / 2])
    monkeypatch.setattr(speed, "_time", lambda: next(samples))
    speed.factor()                      # the window opens at the nominal speed
    speed.mark()                        # half speed inside the item
    assert math.isclose(speed.factor(), 0.5)    # median of nominal, 2x, 2x
    assert math.isclose(speed.factor(), 0.8)    # only the closing 2x carries over
    assert speed.busy_s >= 0 and len(speed.samples) == 4


def test_tail_has_ten_rounds_beyond_it():
    times = [float(t) for t in range(1, 26)]
    assert run.tail(times) == (15.0, 60.0)
    assert run.tail(times[:10]) == (10.0, 100.0)


def test_tracer_restores_and_nests(small):
    original = pt.calculus.pro_spectrum
    tracer = tracing.Tracer()
    tracer.round_id = 0
    with tracer.installed():
        assert pt.calculus.pro_spectrum is not original
        wl.ProSweep(2, "", "").round()
    assert pt.calculus.pro_spectrum is original
    assert pt.pro_spectrum is original
    assert pt.tower.CoherentElement.materialize.__name__ == "materialize"
    assert not hasattr(pt.tower.CoherentElement.materialize, "__wrapped__")
    spectra = [i for i, n in enumerate(tracer.names) if n == "calculus.pro_spectrum"]
    assert spectra
    assert any(tracer.names[tracer.parents[i]] == "calculus.pro_spectrum"
               for i, n in enumerate(tracer.names) if n == "tower.materialize")
    m = tracing.round_metrics(tracer, 0, 1.0, 0.4, 0)
    assert m["tower.materialize_calls"] > 0
    assert 0 < m["tower.newborn_ratio"] <= 1
    assert math.isclose(sum(v for k, v in m.items() if k.startswith("share.")), 1.0)
