"""Tower description files: JSON-shaped definitions of towers, elements,
covered spaces and run directives.

Complex scalars are [re, im] pairs and matrices are row-major nested
arrays of such pairs, so a block is entries[row][col] = [re, im] and an
explicit element level is a list of blocks. All references are by name and
resolved eagerly; the offending name is reported when resolution fails.
"""

from __future__ import annotations

import json

import numpy as np

from .core_algebra import (
    AlgebraElement,
    BlockAlgebra,
    StructuralError,
)
from .gelfand import CoveredSpace
from .tower import (
    Certificates,
    CoherentElement,
    ConnectingMap,
    Tower,
    diag_sequence_element,
    make_product_tower,
    scalar_element,
    shift_element,
)
from .unitary import exp_selfadjoint

__all__ = ["SpecFile", "load_specfile", "parse_complex", "parse_matrix"]

SECTIONS = ("towers", "elements", "spaces", "runs")


def parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return complex(value[0], value[1])
    raise StructuralError(f"a complex scalar must be [re, im]; got {value!r}")


def parse_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise StructuralError("a matrix literal must be a nonempty list of rows")
    parsed = [[parse_complex(v) for v in row] for row in rows]
    n = len(parsed)
    if any(len(row) != n for row in parsed):
        raise StructuralError(
            f"matrix literal is not square: {n} rows, row lengths "
            f"{[len(r) for r in parsed]}")
    return np.array(parsed, dtype=complex)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise StructuralError(f"{context} is missing the {key!r} field")
    return mapping[key]


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise StructuralError(
            f"{context} must be an object, not {type(value).__name__}")
    return value


class SpecFile:
    """A parsed tower description file with name resolution."""

    def __init__(self, data: dict, origin: str = "<memory>"):
        if not isinstance(data, dict):
            raise StructuralError("the top level of a spec file is an object")
        for section, entries in data.items():
            if section not in SECTIONS:
                raise StructuralError(f"unknown spec section {section!r}")
            if not (isinstance(entries, list)
                    and all(isinstance(x, dict) for x in entries)):
                raise StructuralError(
                    f"spec section {section!r} must be a list of objects")
        self.origin = origin
        self._towers_raw = {
            _require(t, "name", "a tower entry"): t
            for t in data.get("towers", [])}
        self._elements_raw = {
            _require(e, "name", "an element entry"): e
            for e in data.get("elements", [])}
        self._spaces_raw = {
            _require(s, "name", "a space entry"): s
            for s in data.get("spaces", [])}
        self._runs: dict[str, dict] = {}
        for run in data.get("runs", []):
            command = _require(run, "command", "a run directive")
            if not isinstance(command, str):
                raise StructuralError(
                    f"a run directive's command is a name, not {command!r}")
            if command in self._runs:
                raise StructuralError(
                    f"two run directives for command {command!r}")
            self._runs[command] = {
                k: v for k, v in run.items() if k != "command"}
        self._towers: dict[str, Tower] = {}
        self._elements: dict[str, CoherentElement] = {}
        self._validate_references()

    def _validate_references(self):
        for name, t in self._towers_raw.items():
            _object(t.get("rule", {}), f"the rule of tower {name!r}")
        for name, e in self._elements_raw.items():
            tower = _require(e, "tower", f"element {name!r}")
            if tower not in self._towers_raw:
                raise StructuralError(
                    f"element {name!r} references unknown tower {tower!r}")
            gen = _object(
                e.get("generator", {}), f"the generator of element {name!r}")
            if gen.get("kind") == "exp_of":
                ref = _require(gen, "element", f"generator of {name!r}")
                if ref not in self._elements_raw:
                    raise StructuralError(
                        f"element {name!r} references unknown element {ref!r}")

    # -- towers -------------------------------------------------------------

    def tower_names(self):
        return sorted(self._towers_raw)

    def tower(self, name: str) -> Tower:
        if name not in self._towers_raw:
            raise StructuralError(f"unknown tower {name!r}")
        if name not in self._towers:
            self._towers[name] = self._build_tower(self._towers_raw[name])
        return self._towers[name]

    def _build_tower(self, raw: dict) -> Tower:
        rule = _require(raw, "rule", f"tower {raw['name']!r}")
        kind = _require(rule, "kind", f"rule of tower {raw['name']!r}")
        if kind == "product_matrix":
            horizon = int(raw.get("horizon", 1))
            return make_product_tower(lambda k: k, horizon, lazy=True)
        if kind == "constant_commutative":
            horizon = int(raw.get("horizon", 1))
            return make_product_tower(lambda k: 1, horizon, lazy=True)
        if kind == "custom_table":
            table = _require(rule, "block_sizes", f"tower {raw['name']!r}")
            sizes = [tuple(int(n) for n in level) for level in table]
            if not sizes:
                raise StructuralError(
                    f"tower {raw['name']!r} has an empty block size table")
            for lo, hi in zip(sizes, sizes[1:]):
                if hi[: len(lo)] != lo:
                    raise StructuralError(
                        f"tower {raw['name']!r}: each level must extend the "
                        "previous one as a prefix")
            levels = [BlockAlgebra(s) for s in sizes]
            maps = []
            for lo_alg, hi_alg in zip(levels, levels[1:]):
                routes = tuple(
                    (j, None) for j in range(lo_alg.num_blocks))
                maps.append(ConnectingMap(hi_alg, lo_alg, routes))
            return Tower(levels, maps)
        raise StructuralError(
            f"tower {raw['name']!r} has unknown rule kind {kind!r}")

    # -- elements -----------------------------------------------------------

    def element_names(self):
        return sorted(self._elements_raw)

    def element(self, name: str) -> CoherentElement:
        if name not in self._elements_raw:
            raise StructuralError(f"unknown element {name!r}")
        if name not in self._elements:
            self._elements[name] = self._build_element(self._elements_raw[name])
        return self._elements[name]

    def _build_element(self, raw: dict) -> CoherentElement:
        tower = self.tower(raw["tower"])
        name = raw["name"]
        if "levels" in raw:
            levels = []
            for p, blocks in enumerate(raw["levels"], start=1):
                alg = tower.level(p)
                mats = [parse_matrix(b) for b in blocks]
                if tuple(m.shape[0] for m in mats) != alg.block_sizes:
                    raise StructuralError(
                        f"element {name!r} level {p}: block sizes "
                        f"{tuple(m.shape[0] for m in mats)} do not match "
                        f"{alg.block_sizes}")
                levels.append(AlgebraElement(alg, mats))
            return CoherentElement(tower, levels=levels, certificates=Certificates(
                selfadjoint=bool(raw.get("selfadjoint", False))))
        gen = _require(raw, "generator", f"element {name!r}")
        kind = _require(gen, "kind", f"generator of element {name!r}")
        if kind == "L_superdiagonal":
            return shift_element(tower)
        if kind == "scalar":
            return scalar_element(tower, parse_complex(
                _require(gen, "value", f"generator of element {name!r}")))
        if kind == "diag_sequence":
            values = [parse_complex(v) for v in _require(
                gen, "values", f"generator of element {name!r}")]
            bound = gen.get("bound")
            return diag_sequence_element(
                tower, values,
                norm_bound=float(bound) if bound is not None else None,
                norm_reason="declared bound" if bound is not None else None)
        if kind == "exp_of":
            base = self.element(gen["element"])
            return exp_selfadjoint(base, float(gen.get("t", 1.0)))
        raise StructuralError(
            f"element {name!r} has unknown generator kind {kind!r}")

    # -- spaces ---------------------------------------------------------------

    def space(self, name: str) -> CoveredSpace:
        if name not in self._spaces_raw:
            raise StructuralError(f"unknown space {name!r}")
        raw = self._spaces_raw[name]
        return CoveredSpace(
            points=tuple(_require(raw, "points", f"space {name!r}")),
            chain=tuple(
                tuple(f) for f in _require(raw, "chain", f"space {name!r}")),
        )

    # -- run directives -------------------------------------------------------

    def run_defaults(self, command: str) -> dict:
        """The command's run directive without its ``command`` key."""
        return dict(self._runs.get(command, {}))


def load_specfile(path) -> SpecFile:
    """Parse and validate a spec file; JSON errors carry line/column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)  # json.JSONDecodeError exposes lineno/colno
    return SpecFile(data, origin=str(path))
