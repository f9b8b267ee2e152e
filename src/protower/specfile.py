"""Tower description files: JSON-shaped definitions of towers, elements,
covered spaces and run directives.

Complex scalars are [re, im] pairs and matrices are row-major nested
arrays of such pairs, so a block is entries[row][col] = [re, im] and an
explicit element level is a list of blocks. ``ENTRIES``, ``RULES`` and
``GENERATORS`` give each field its type and default; every entry is
checked against them and built when the file loads.
"""

from __future__ import annotations

import json
import reprlib
from typing import Any, Callable, NamedTuple

import numpy as np

from .core_algebra import AlgebraError, BlockAlgebra, StructuralError
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

__all__ = ["SpecFile", "fields", "load_specfile", "parse_complex", "parse_matrix"]

REQUIRED = object()


class Field(NamedTuple):
    """``type`` returns the value or raises TypeError or ValueError; a dict
    of kinds to fields makes an object whose ``kind`` picks its fields."""

    type: Callable | dict
    default: Any = REQUIRED


def _json(kind: type, test: Callable = lambda value: True) -> Callable:
    """A JSON value of ``kind`` that passes ``test``; a bool is no number,
    and a float field takes an int as a float."""
    accepted = (int, float) if kind is float else kind

    def check(value):
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, accepted) or not test(value)):
            raise TypeError(value)
        return kind(value)
    return check


def _list_of(item: Callable) -> Callable:
    return lambda value: [item(v) for v in _json(list)(value)]


NAME, FLOAT, BOOL = _json(str), _json(float), _json(bool)
POSITIVE = _json(int, lambda n: n >= 1)


def parse_complex(value) -> complex:
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(*map(FLOAT, value))
        return complex(FLOAT(value))
    except TypeError:
        raise StructuralError(
            f"a complex scalar must be [re, im]; got {value!r}") from None


def parse_matrix(rows) -> np.ndarray:
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) for row in rows)):
        raise StructuralError("a matrix literal must be a nonempty list of rows")
    parsed = [[parse_complex(v) for v in row] for row in rows]
    n = len(parsed)
    if any(len(row) != n for row in parsed):
        raise StructuralError(
            f"matrix literal is not square: {n} rows, row lengths "
            f"{[len(r) for r in parsed]}")
    return np.array(parsed, dtype=complex)


RULES = {
    "product_matrix": {},
    "constant_commutative": {},
    "custom_table": {"block_sizes": Field(_list_of(_list_of(POSITIVE)))},
}
GENERATORS = {
    "L_superdiagonal": {},
    "scalar": {"value": Field(parse_complex)},
    "diag_sequence": {"values": Field(_list_of(parse_complex)),
                      "bound": Field(FLOAT, None)},
    "exp_of": {"element": Field(NAME), "t": Field(FLOAT, 1.0)},
}
ENTRIES = {
    "towers": {"name": Field(NAME), "rule": Field(RULES),
               "horizon": Field(POSITIVE, 1)},
    "elements": {"name": Field(NAME), "tower": Field(NAME),
                 "generator": Field(GENERATORS)},
    "spaces": {"name": Field(NAME), "points": Field(_list_of(NAME)),
               "chain": Field(_list_of(_list_of(_json(int))))},
}
SECTIONS = {section: Field(_list_of(_json(dict)), [])
        for section in ("towers", "elements", "spaces", "runs")}
# an element given by its levels instead of a generator
EXPLICIT = {"name": Field(NAME), "tower": Field(NAME),
            "levels": Field(_list_of(_list_of(parse_matrix))),
            "selfadjoint": Field(BOOL, False)}


def fields(raw: dict, schema: dict, where: str) -> dict:
    """Each field of ``schema`` from ``raw``, checked by its type, or its
    default when absent or null. A missing required key, a bad value or an
    undeclared key raises StructuralError naming ``where`` and the key."""
    if not isinstance(raw, dict):
        raise StructuralError(
            f"{where} must be an object, not {reprlib.repr(raw)}")
    out = {}
    for key, field in schema.items():
        value = raw.get(key)
        if value is None:
            if field.default is REQUIRED:
                raise StructuralError(f"{where} is missing the {key!r} field")
            out[key] = field.default
        elif isinstance(field.type, dict):
            out[key] = _kind_fields(value, field.type, f"the {key} of {where}")
        else:
            try:
                out[key] = field.type(value)
            except (TypeError, ValueError, StructuralError) as exc:
                why = f" ({exc})" if isinstance(exc, StructuralError) else ""
                raise StructuralError(f"{where}: bad value for {key!r}: "
                                      f"{reprlib.repr(value)}{why}") from None
    for key, value in raw.items():
        if key not in schema:
            raise StructuralError(
                f"{where} takes no {key!r} (given {reprlib.repr(value)})")
    return out


def _kind_fields(raw, kinds: dict, where: str) -> dict:
    """The fields of an object whose ``kind`` names its schema in ``kinds``."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    schema = kinds.get(kind, {}) if isinstance(kind, str) else {}
    return fields(raw, {"kind": Field(_json(str, kinds.__contains__)), **schema},
                  where)


class SpecFile:
    """A spec file whose towers, elements and spaces are built at load."""

    def __init__(self, data: dict, origin: str = "<memory>"):
        data = fields(data, SECTIONS, "the spec file")
        self.origin = origin
        self._towers: dict[str, Tower] = {}
        self._elements: dict[str, CoherentElement] = {}
        self._spaces: dict[str, CoveredSpace] = {}
        for section, built, build in (
                ("towers", self._towers, self._build_tower),
                ("elements", self._elements, self._build_element),
                ("spaces", self._spaces, self._build_space)):
            for i, raw in enumerate(data[section], start=1):
                name = raw.get("name")
                where = (f"{section[:-1]} {name!r}" if isinstance(name, str)
                         else f"{section} entry {i}")
                explicit = section == "elements" and "levels" in raw
                f = fields(raw, EXPLICIT if explicit else ENTRIES[section], where)
                if name in built:
                    raise StructuralError(f"{where} is defined twice in {section}")
                if (section == "towers" and f["rule"]["kind"] == "custom_table"
                        and raw.get("horizon") is not None):
                    raise StructuralError(f"{where} with a custom_table rule takes "
                                          f"no 'horizon' (given {raw['horizon']!r})")
                try:
                    built[name] = build(f)
                except AlgebraError as exc:
                    raise StructuralError(f"{where}: {exc}") from None
        self.runs: dict[str, dict] = {}
        for run in data["runs"]:  # each run is a copy, so pop leaves data whole
            command = run.pop("command", None)
            if not isinstance(command, str) or command in self.runs:
                raise StructuralError(
                    f"each run directive names its own command, not {command!r}")
            self.runs[command] = run

    def _build_tower(self, f: dict) -> Tower:
        rule = f["rule"]
        if rule["kind"] == "custom_table":
            levels = [BlockAlgebra(tuple(s)) for s in rule["block_sizes"]]
            return Tower(levels, [
                ConnectingMap(hi, lo, tuple((j, None) for j in range(lo.num_blocks)))
                for lo, hi in zip(levels, levels[1:])])
        width = (lambda k: k) if rule["kind"] == "product_matrix" else (lambda k: 1)
        return make_product_tower(width, f["horizon"], lazy=True)

    def _build_element(self, f: dict) -> CoherentElement:
        tower = _named(self._towers, f["tower"], "tower")
        if "levels" in f:
            levels = [tower.level(p).element(blocks)
                      for p, blocks in enumerate(f["levels"], start=1)]
            return CoherentElement.from_levels(tower, levels, Certificates(
                selfadjoint=f["selfadjoint"]))
        gen = f["generator"]
        if gen["kind"] == "L_superdiagonal":
            return shift_element(tower)
        if gen["kind"] == "scalar":
            return scalar_element(tower, gen["value"])
        if gen["kind"] == "diag_sequence":
            bound = gen["bound"]
            return diag_sequence_element(
                tower, gen["values"], norm_bound=bound,
                norm_reason=None if bound is None else "declared bound")
        base = _named(self._elements, gen["element"], "earlier element")
        return exp_selfadjoint(base, gen["t"])

    def _build_space(self, f: dict) -> CoveredSpace:
        return CoveredSpace(f["points"], f["chain"])

    def tower_names(self):
        return sorted(self._towers)

    def tower(self, name: str) -> Tower:
        return _named(self._towers, name, "tower")

    def element(self, name: str) -> CoherentElement:
        return _named(self._elements, name, "element")

    def space(self, name: str) -> CoveredSpace:
        return _named(self._spaces, name, "space")

    def run_defaults(self, command: str) -> dict:
        """The command's run directive without its ``command`` key."""
        return dict(self.runs.get(command, {}))


def _named(built: dict, name: str, what: str):
    if name not in built:
        raise StructuralError(f"unknown {what} {name!r}")
    return built[name]


def load_specfile(path) -> SpecFile:
    """Parse and validate a spec file; JSON errors carry line/column."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)  # json.JSONDecodeError exposes lineno/colno
    return SpecFile(data, origin=str(path))
