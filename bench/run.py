"""protower benchmark: one workload, closed loop, for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pro-sweep --seed 1 --seconds 30 --trace 0

Workloads are ``pro-sweep``, ``exactness-dense`` and ``cli-suite`` (see
workloads.py). One client runs the next round as soon as the previous one
ends, in this one process; cli-suite rounds start their commands one at a
time. The program is imported from ``src/`` of the checkout and its BLAS is
pinned to one thread, in this process and in every child.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. Their times are in reference seconds: each round and
each set-up probe is timed on the wall clock and scaled by the host's speed,
from a fixed kernel timed right before and after it (see hostspeed.py), so
that the host's drift over minutes does not read as a change of protower.
The wall-clock values are printed beside them.

- ``setup_s``: median over fresh processes, started between rounds and
  spread over the run, of ``import protower`` plus loading the bundled
  spec (importing ``protower.cli`` and parsing it);
- ``rounds_per_s``: rounds completed per second of round time;
- ``round_p50_s``: median round time;
- ``round_tail_s``: the highest percentile of round time with at least 10
  rounds beyond it; with fewer than 11 rounds, the slowest round. The
  percentile and the round count are printed beside it;
- ``peak_rss_mb``: peak resident memory of this process, or for cli-suite
  of the largest child.

``fail_ratio`` (failed / attempted rounds) is printed beside them and is
given by ``attempted`` and ``failed`` in the JSON line. A round fails when
a correctness gate fails or it raises; any failed round makes the exit code
1.

With ``--trace 1`` untraced and traced rounds alternate, and the JSON line
carries per-module metrics from the traced rounds (medians over rounds;
see tracing.py) and ``trace.overhead_ratio``, the median traced round over
the median untraced one. cli-suite traces ``protower.cli.run`` in this
process for each command. All spans are written to
``.bench_traces/<workload>-seed<seed>.jsonl.gz`` when the run ends.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROCESSES = 7
TAIL_BEYOND = 10

SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import protower
t1 = time.perf_counter()
import protower.cli
protower.load_specfile(protower.cli.bundled_spec_path())
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "spec_load_s": t2 - t1,
                  "file": protower.__file__}))
"""

def use_checkout_sources() -> bool:
    """Import protower from src/ of this checkout, here and in every child."""
    if not os.path.isfile(os.path.join(SRC, "protower", "__init__.py")):
        print(f"no protower sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return True


class SetupProbes:
    """Set-up times of fresh processes, spread evenly over the timed rounds.

    The host's speed drifts over tens of seconds, so probes taken at one
    moment would all share that moment's speed; spread over the run, their
    median follows the same conditions as the rounds. Each probe is also
    kept in reference seconds, scaled by ``speed``.
    """

    def __init__(self, seconds: float, speed):
        self.due = [i * seconds / SETUP_PROCESSES for i in range(SETUP_PROCESSES)]
        self.speed = speed
        self.imports: list[float] = []
        self.loads: list[float] = []
        self.factors: list[float] = []

    def poll(self, elapsed: float) -> None:
        """Take every probe due by ``elapsed`` seconds of rounds."""
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD], cwd=ROOT,
                capture_output=True, text=True, timeout=120, check=True)
            got = json.loads(proc.stdout.strip().splitlines()[-1])
            if not os.path.abspath(got["file"]).startswith(SRC + os.sep):
                raise RuntimeError(f"child imported protower from {got['file']}")
            self.imports.append(got["import_s"])
            self.loads.append(got["spec_load_s"])
            self.factors.append(self.speed.factor())

    def result(self, adjusted: bool) -> tuple[float, float]:
        """Median import and spec-load times, after taking any probe left;
        in reference seconds if ``adjusted``, else on the wall clock."""
        self.poll(float("inf"))
        scale = self.factors if adjusted else [1.0] * len(self.factors)
        return (statistics.median(t * f for t, f in zip(self.imports, scale)),
                statistics.median(t * f for t, f in zip(self.loads, scale)))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 rounds beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


class Counter:
    """Attempted and failed rounds; prints the first failures it sees."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, round_fn) -> None:
        self.attempted += 1
        try:
            fails = round_fn()
        except Exception:  # a raising round is a failed round
            fails = ["round raised:\n" + traceback.format_exc()]
        if fails:
            self.failed += 1
            if self.failed <= 3:
                print(f"round {self.attempted} failed: " + "; ".join(fails),
                      file=sys.stderr)


def summary(times: list[float]) -> dict:
    value, pct = tail(times)
    return {
        "rounds_per_s": len(times) / sum(times),
        "round_p50_s": statistics.median(times),
        "round_tail_s": value,
        "_tail_percentile": pct,
        "_rounds": len(times),
    }


def run_plain(workload, seconds: float, counter: Counter, probes: SetupProbes) -> dict:
    if workload.cold_imports == 0:
        counter.run(workload.round)  # warm-up round, gated but not timed
    speed = probes.speed
    speed.factor()  # the first window opens here, after the warm-up
    if hasattr(workload, "on_step"):
        workload.on_step = speed.mark
    times, adjusted = [], []
    while not times or sum(times) < seconds:
        probes.poll(sum(times))
        busy = speed.busy_s
        t0 = time.perf_counter()
        counter.run(workload.round)
        times.append(time.perf_counter() - t0 - (speed.busy_s - busy))
        adjusted.append(times[-1] * speed.factor())
    who = resource.RUSAGE_CHILDREN if workload.cold_imports else resource.RUSAGE_SELF
    import_s, spec_load_s = probes.result(adjusted=True)
    wall_import_s, wall_spec_load_s = probes.result(adjusted=False)
    wall = summary(times)
    wall["setup_s"] = wall_import_s + wall_spec_load_s
    return {
        "setup_s": import_s + spec_load_s,
        **summary(adjusted),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "_wall": wall,
        "_ref_s": statistics.median(speed.samples),
    }


def run_traced(workload, seconds: float, counter: Counter, probes: SetupProbes,
               names: list[str], trace_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    round_fn = getattr(workload, "in_process_round", workload.round)
    counter.run(round_fn)  # warm-up round, gated but not timed
    plain, traced = [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        probes.poll(sum(plain) + sum(traced))
        t0 = time.perf_counter()
        counter.run(round_fn)
        t1 = time.perf_counter()
        plain.append(t1 - t0)
        tracer.round_id = len(traced)
        with tracer.installed():
            t2 = time.perf_counter()
            counter.run(round_fn)
            t3 = time.perf_counter()
        traced.append(t3 - t2)
    import_s, spec_load_s = probes.result(adjusted=False)
    per_round = [
        tracing.round_metrics(tracer, i, t, import_s, workload.cold_imports)
        for i, t in enumerate(traced)]
    metrics = {
        key: statistics.median(m.get(key, 0.0) for m in per_round)
        for key in names}
    metrics["cli.import_s"] = import_s
    metrics["cli.spec_load_s"] = spec_load_s
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    return metrics


def provenance(seed: int, workload: str, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "kind": "header", "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    print(json.dumps(provenance(args.seed, args.workload, args.trace)))

    import hostspeed

    probes = SetupProbes(args.seconds, hostspeed.HostSpeed())
    counter = Counter()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        if args.trace:
            trace_path = os.path.join(
                ROOT, ".bench_traces", f"{args.workload}-seed{args.seed}.jsonl.gz")
            declared = spec["per_layer"]
            got = run_traced(workload, args.seconds, counter, probes,
                             [m["name"] for m in declared], trace_path)
        else:
            got = run_plain(workload, args.seconds, counter, probes)
            declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in metrics.items():
        note = ""
        if name == "round_tail_s":
            note = f"  (p{got['_tail_percentile']:.1f} of {got['_rounds']} rounds)"
        if name in got.get("_wall", {}):
            note += f"  (wall clock {got['_wall'][name]:.6g})"
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}{note}")
    if "_ref_s" in got:
        print(f"{'reference kernel median':40s} {got['_ref_s']:14.6g} s"
              f"  (nominal {hostspeed.REF_NOMINAL_S} s)")
    print(f"{'fail_ratio':40s} {counter.failed / counter.attempted:14.6g} 1"
          f"  ({counter.failed} of {counter.attempted} rounds)")
    correct = counter.failed == 0
    print(json.dumps({"correct": correct, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
