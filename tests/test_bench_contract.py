"""The benchmark tracer's hold on the program.

``bench/tracing.py`` patches protower functions and methods by name for a
traced run. This test loads it as it is and checks that every name it
patches still exists, that a traced call records its spans, and that the
program is left as it was afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import protower.calculus
import protower.cli  # noqa: F401  (loads every module the tracer patches)
from protower.core_algebra import ExpI
from protower.tower import (
    BlockMap,
    CoherentElement,
    diag_sequence_element,
    make_product_tower,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patchable_state(tracing) -> dict:
    """Every attribute the tracer may replace, by owner and name."""
    state = {}
    for name, module in sys.modules.items():
        if name == "protower" or name.startswith("protower."):
            state.update(
                ((name, attr), value) for attr, value in vars(module).items())
    for cls in (CoherentElement, BlockMap):
        state.update(((cls, attr), value) for attr, value in vars(cls).items())
    for _, module, attr in tracing.LAPACK:
        state[(module, attr)] = getattr(module, attr)
    return state


def _ancestors(tracer, i: int) -> list[str]:
    names = []
    while tracer.parents[i] >= 0:
        i = tracer.parents[i]
        names.append(tracer.names[i])
    return names


def test_tracer_records_lift_spans_and_restores_the_program():
    tracing = _load_tracing()
    t = make_product_tower(lambda k: 1, 4)
    e = diag_sequence_element(t, lambda k: float(k))
    before = _patchable_state(tracing)

    tracer = tracing.Tracer()
    with tracer.installed():
        # through the module, where the tracer puts its wrappers
        calculus = protower.calculus
        value = calculus.seminorm(calculus.lift_function(e, ExpI(1.0)), 3)

    assert abs(value - 1.0) <= 1e-12
    lifts = [i for i, name in enumerate(tracer.names)
             if name == "calculus.lift_function"]
    # one span for the call, one for its generator running under seminorm
    assert len(lifts) >= 2
    assert any("calculus.seminorm" in _ancestors(tracer, i) for i in lifts)
    after = _patchable_state(tracing)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert all((module, attr) in before for _, module, attr in tracing.FUNCTIONS)
