"""Scale points the ROADMAP baseline cites, each measured once and not gated.

Usage, from the root of a checkout:

    python3 bench/scale_points.py

Prints one JSON object: ``pro_spectrum`` and ``uniform_norm`` of the shift
on a fresh lazy product tower at horizons 200 and 300, ``check_exactness``
without probes on re-chained product towers at H=10 and H=14, and the
median cold import. BLAS is pinned as in run.py.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run  # pins BLAS threads before numpy is imported

if not run.use_checkout_sources():
    sys.exit(2)

import protower as pt  # noqa: E402


def shift_sweeps(horizon: int) -> dict:
    shift = pt.shift_element(pt.make_product_tower(lambda k: k, 1))
    t0 = time.perf_counter()
    pt.pro_spectrum(shift, horizon)
    t1 = time.perf_counter()
    pt.uniform_norm(shift, horizon, math.inf)
    t2 = time.perf_counter()
    return {"pro_spectrum_s": t1 - t0, "uniform_norm_s": t2 - t1}


def exactness(horizon: int) -> float:
    sizes = [list(range(1, k + 2)) for k in range(1, horizon + 1)]
    tower = pt.SpecFile({"towers": [{"name": "t", "rule": {
        "kind": "custom_table", "block_sizes": sizes}}]}).tower("t")
    dec = pt.closed_ideal(tower, [frozenset({0})] * horizon)
    t0 = time.perf_counter()
    pt.check_exactness(dec.inclusion, dec.quotient_map, probes=0,
                       horizon=horizon, tol=1e-10, rng=None)
    return time.perf_counter() - t0


def main() -> int:
    import_s, spec_load_s = run.SetupProbes(0).result()
    points = {
        "shift_h200": shift_sweeps(200),
        "shift_h300": shift_sweeps(300),
        "check_exactness_h10_s": exactness(10),
        "check_exactness_h14_s": exactness(14),
        "import_s": import_s,
        "spec_load_s": spec_load_s,
        "blas_threads": run.BLAS_THREADS,
    }
    print(json.dumps(points, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
