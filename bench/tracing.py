"""Spans around calls into protower's modules, recorded from outside the program.

A ``Tracer`` replaces, for the duration of a ``with tracer.installed():``
block, the functions each protower module looks up at call time with
wrappers that record one span per call: its name, start, end, parent span
and round id. The program itself is not changed. Function targets are
patched in every ``protower`` module namespace that holds them (a module
that did ``from .calculus import pro_spectrum`` looks the name up in its own
namespace), methods on their classes, and dense linear algebra on the
``numpy.linalg`` / ``scipy.linalg`` module attributes that protower calls.
Spans stay in memory and are written out once, at the end of the run.

``round_metrics`` turns the spans of one round into the per-module numbers
named in BENCHMARK.json. A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

# (span name, defining module, attribute). Each is patched wherever a
# protower module namespace holds the same function object.
FUNCTIONS = (
    ("tower.make_product_tower", "protower.tower", "make_product_tower"),
    ("tower.coherent_from_top", "protower.tower", "coherent_from_top"),
    ("tower.closed_ideal", "protower.tower", "closed_ideal"),
    ("calculus.seminorm", "protower.calculus", "seminorm"),
    ("calculus.uniform_norm", "protower.calculus", "uniform_norm"),
    ("calculus.is_spectrally_bounded", "protower.calculus", "is_spectrally_bounded"),
    ("calculus.pro_spectrum", "protower.calculus", "pro_spectrum"),
    ("core_algebra.cstar_norm", "protower.core_algebra", "cstar_norm"),
    ("core_algebra.distance", "protower.core_algebra", "distance"),
    ("core_algebra.spectral_radius", "protower.core_algebra", "spectral_radius"),
    ("core_algebra.spectrum", "protower.core_algebra", "spectrum"),
    ("core_algebra.is_normal", "protower.core_algebra", "is_normal"),
    ("core_algebra.apply_function", "protower.core_algebra", "apply_function"),
    ("bounded_functor.bounded_part", "protower.bounded_functor", "bounded_part"),
    ("bounded_functor.check_exactness", "protower.bounded_functor", "check_exactness"),
    ("bounded_functor.squash_image", "protower.bounded_functor", "_squash_image"),
    ("bounded_functor.quotient_iso_check", "protower.bounded_functor", "quotient_iso_check"),
    ("bounded_functor.kernel_quotient_check", "protower.bounded_functor", "kernel_quotient_check"),
    ("unitary.unitary_log", "protower.unitary", "unitary_log"),
    ("unitary.single_level_log", "protower.unitary", "single_level_log"),
    ("gelfand.duality_roundtrip", "protower.gelfand", "duality_roundtrip"),
    ("cli.spec_load", "protower.specfile", "load_specfile"),
    ("suites.shift_example", "protower.suites", "shift_example_records"),
    ("suites.exactness", "protower.suites", "exactness_records"),
    ("suites.quotient", "protower.suites", "quotient_records"),
    ("suites.gelfand", "protower.suites", "gelfand_records"),
    ("suites.core_invariant", "protower.suites", "core_invariant_records"),
    ("suites.unitary_suite", "protower.suites", "unitary_suite_records"),
)

# LAPACK-backed calls protower makes, as (span name, module, attribute).
LAPACK = (
    ("lapack.svd", np.linalg, "svd"),
    ("lapack.pinv", np.linalg, "pinv"),
    ("lapack.norm2", np.linalg, "norm"),
    ("lapack.eigvals", np.linalg, "eigvals"),
    ("lapack.eigh", np.linalg, "eigh"),
    ("lapack.solve", np.linalg, "solve"),
    ("lapack.qr", np.linalg, "qr"),
    ("lapack.schur", scipy.linalg, "schur"),
)

SMALL_BLOCK = 8     # core_algebra.small_block_calls counts n <= SMALL_BLOCK
DENSE_BLOCK = 64    # dense LAPACK is n >= DENSE_BLOCK

SUITES = ("shift_example", "exactness", "quotient", "gelfand",
          "core_invariant", "unitary_suite")
SHARES = ("tower", "calculus", "core_algebra", "lapack_small", "lapack_dense",
          "bounded_functor", "unitary", "gelfand", "suites", "cli", "import",
          "untraced")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.attrs: list[object] = []
        self.round_id = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round_id)
        self.attrs.append(None)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attr_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if attr_of is not None:
                tracer.attrs[i] = attr_of(args, kwargs, out)
            return out

        return wrapper

    def _wrap_lapack(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if name == "lapack.norm2":
                order = args[0] if args else kwargs.get("ord")
                if order != 2 or np.ndim(a) != 2:
                    return fn(a, *args, **kwargs)
            i = tracer.begin(name)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.finish(i)
                tracer.attrs[i] = _lapack_attr(name, a, args, kwargs)

        return wrapper

    def _wrap_lift(self, fn):
        """lift_function is lazy: also time the generator of its result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.begin("calculus.lift_function")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            out._generator = tracer._wrap(out._generator, "calculus.lift_function")
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        import protower.calculus
        import protower.cli
        import protower.tower

        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        namespaces = [
            m for k, m in sorted(sys.modules.items())
            if k == "protower" or k.startswith("protower.")]
        targets = [
            (name, getattr(sys.modules[module], attr), None)
            for name, module, attr in FUNCTIONS]
        targets.append((
            "unitary.identity_component_check",
            sys.modules["protower.unitary"].identity_component_check,
            lambda a, k, out: len(out.factors)))
        targets.append(("cli.run", protower.cli.run, lambda a, k, out: a[0]))
        wrappers = [(fn, self._wrap(fn, name, attr_of)) for name, fn, attr_of in targets]
        lift = protower.calculus.lift_function
        wrappers.append((lift, self._wrap_lift(lift)))
        for fn, wrapped in wrappers:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        patch(ns, attr, wrapped)
        patch(protower.tower.CoherentElement, "materialize", self._wrap(
            protower.tower.CoherentElement.materialize, "tower.materialize",
            _materialize_attr))
        block_map = protower.tower.BlockMap
        patch(block_map, "apply", self._wrap(block_map.apply, "tower.blockmap_apply"))
        patch(block_map, "compose", self._wrap(
            block_map.compose, "tower.blockmap_compose"))
        patch(block_map, "matrix", self._wrap(
            block_map.matrix, "tower.blockmap_matrix",
            lambda a, k, out: max(out.shape)))
        for name, module, attr in LAPACK:
            patch(module, attr, self._wrap_lapack(getattr(module, attr), name))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines: round, id, parent, name, start, end, attr."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                attr = self.attrs[i]
                fh.write(json.dumps([
                    self.rounds[i], i, self.parents[i], name,
                    self.starts[i], self.ends[i],
                    list(attr) if isinstance(attr, tuple) else attr]) + "\n")


def _materialize_attr(args, kwargs, out):
    """(entries returned, entries in blocks born at this level)."""
    element, p = args[0], args[1]
    sizes = out.parent.block_sizes
    returned = sum(n * n for n in sizes)
    if p == 1:
        return returned, returned
    inherited = {route[0] for route in element.tower.map(p - 1).routes}
    newborn = sum(n * n for i, n in enumerate(sizes) if i not in inherited)
    return returned, newborn


def _lapack_attr(name, a, args, kwargs):
    shape = np.shape(a)
    rows, cols = (shape[-2], shape[-1]) if len(shape) >= 2 else (shape[0], 1)
    variant = ""
    if name == "lapack.svd":
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        full = kwargs.get("full_matrices", args[0] if args else True)
        variant = "values" if not compute_uv else ("full" if full else "thin")
    return rows, cols, variant, bool(np.iscomplexobj(a))


def lapack_flops(name: str, rows: int, cols: int, variant: str, is_complex: bool) -> float:
    """Nominal flop count of one call, from its operand shape.

    Real counts follow Golub & Van Loan (Matrix Computations, 4th ed.,
    tables 5.5 and 8.6); complex arithmetic is counted as 4 real flops.
    These are computed, not measured.
    """
    m, n = max(rows, cols), min(rows, cols)
    if name in ("lapack.svd", "lapack.norm2", "lapack.pinv"):
        if name == "lapack.norm2" or variant == "values":
            real = 4 * m * n * n - 4 * n ** 3 / 3
        elif variant == "full":
            real = 4 * m * m * n + 22 * n ** 3
        else:
            real = 6 * m * n * n + 20 * n ** 3
        if name == "lapack.pinv":
            real += 2 * m * n * n
    elif name == "lapack.eigvals":
        real = 10 * n ** 3
    elif name == "lapack.eigh":
        real = 9 * n ** 3
    elif name == "lapack.schur":
        real = 25 * n ** 3
    elif name == "lapack.solve":
        real = 2 * rows ** 3 / 3 + 2 * rows * rows * cols
    else:  # qr with Q formed
        real = 8 * m * n * n - 8 * n ** 3 / 3
    return real * (4 if is_complex else 1)


def _share_key(name: str, attr) -> str:
    if name.startswith("lapack."):
        return "lapack_dense" if max(attr[0], attr[1]) >= DENSE_BLOCK else "lapack_small"
    return name.split(".", 1)[0]


def round_metrics(tr: Tracer, round_id: int, round_s: float,
                  import_s: float, cold_imports: int) -> dict[str, float]:
    """Per-module numbers of one traced round.

    ``cold_imports`` is how many fresh processes the untraced form of the
    round starts (each pays ``import_s``); it is 0 for in-process workloads.
    """
    idx = [i for i, r in enumerate(tr.rounds) if r == round_id]
    dur = {i: tr.ends[i] - tr.starts[i] for i in idx}
    children = defaultdict(float)
    for i in idx:
        if tr.parents[i] >= 0:
            children[tr.parents[i]] += dur[i]
    self_s = {i: dur[i] - children[i] for i in idx}

    def outermost(i):
        name, p = tr.names[i], tr.parents[i]
        while p >= 0:
            if tr.names[p] == name:
                return False
            p = tr.parents[p]
        return True

    def has_ancestor(i, prefix):
        p = tr.parents[i]
        while p >= 0:
            if tr.names[p].startswith(prefix):
                return True
            p = tr.parents[p]
        return False

    by_name = defaultdict(list)
    for i in idx:
        by_name[tr.names[i]].append(i)

    def count(*names):
        return float(sum(len(by_name[n]) for n in names))

    def inclusive(*names):
        return sum(dur[i] for n in names for i in by_name[n] if outermost(i))

    def self_of(prefix):
        return sum(s for i, s in self_s.items() if tr.names[i].startswith(prefix))

    lapack = [i for i in idx if tr.names[i].startswith("lapack.")]
    materialize = by_name["tower.materialize"]
    returned = sum(tr.attrs[i][0] for i in materialize)
    newborn = sum(tr.attrs[i][1] for i in materialize)
    checks = set(by_name["bounded_functor.check_exactness"])
    trace_parts = ("bounded_functor.squash_image", "tower.materialize",
                   "core_algebra.distance")

    m = {
        "tower.materialize_calls": float(len(materialize)),
        "tower.materialize_s": sum(self_s[i] for i in materialize),
        "tower.entries_returned": float(returned),
        "tower.newborn_entries": float(newborn),
        "tower.newborn_ratio": newborn / returned if returned else 0.0,
        "tower.blockmap_apply_calls": count("tower.blockmap_apply"),
        "tower.blockmap_matrix_s": inclusive("tower.blockmap_matrix"),
        "tower.blockmap_matrix_max_dim": float(max(
            (tr.attrs[i] for i in by_name["tower.blockmap_matrix"]), default=0)),
        "core_algebra.svd_calls": count("lapack.svd", "lapack.pinv", "lapack.norm2"),
        "core_algebra.eig_calls": count("lapack.eigvals", "lapack.eigh"),
        "core_algebra.schur_calls": count("lapack.schur"),
        "core_algebra.small_block_calls": float(sum(
            1 for i in lapack if max(tr.attrs[i][:2]) <= SMALL_BLOCK)),
        "core_algebra.lapack_s": sum(dur[i] for i in lapack),
        "core_algebra.max_n": float(max(
            (max(tr.attrs[i][:2]) for i in lapack), default=0)),
        "core_algebra.gflop_computed": sum(
            lapack_flops(tr.names[i], *tr.attrs[i]) for i in lapack) / 1e9,
        "calculus.pro_spectrum_s": inclusive("calculus.pro_spectrum"),
        "calculus.uniform_norm_s": inclusive("calculus.uniform_norm"),
        "calculus.lift_function_s": inclusive("calculus.lift_function"),
        "calculus.self_s": self_of("calculus."),
        "bounded_functor.check_exactness_s": inclusive("bounded_functor.check_exactness"),
        "bounded_functor.dense_lapack_s": sum(
            dur[i] for i in lapack
            if max(tr.attrs[i][:2]) >= DENSE_BLOCK
            and has_ancestor(i, "bounded_functor.")),
        "bounded_functor.trace_s": sum(
            dur[i] for n in trace_parts for i in by_name[n]
            if tr.parents[i] in checks),
        "bounded_functor.quotient_iso_s": inclusive(
            "bounded_functor.quotient_iso_check",
            "bounded_functor.kernel_quotient_check"),
        "bounded_functor.self_s": self_of("bounded_functor."),
        "unitary.identity_component_check_s": inclusive(
            "unitary.identity_component_check"),
        "unitary.unitary_log_calls": count("unitary.unitary_log"),
        "unitary.two_factor_splits": float(sum(
            1 for i in by_name["unitary.identity_component_check"]
            if tr.attrs[i] == 2)),
        "gelfand.duality_roundtrip_s": inclusive("gelfand.duality_roundtrip"),
    }
    for suite in SUITES:
        m[f"suites.{suite}_s"] = inclusive(f"suites.{suite}")
    for i in by_name["cli.run"]:
        key = f"cli.{tr.attrs[i]}_s"
        m[key] = m.get(key, 0.0) + dur[i]

    shares = dict.fromkeys(SHARES, 0.0)
    for i, s in self_s.items():
        shares[_share_key(tr.names[i], tr.attrs[i])] += s
    covered = sum(dur[i] for i in idx if tr.parents[i] < 0)
    shares["untraced"] = max(0.0, round_s - covered)
    shares["import"] = cold_imports * import_s
    total = sum(shares.values())
    for key, value in shares.items():
        m[f"share.{key}"] = value / total if total else 0.0
    return m
