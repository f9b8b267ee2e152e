"""Structured run reports: line-delimited records plus a summary table.

Reports are deterministic byte for byte under a fixed seed and config:
records are emitted in execution order, all mappings are serialized with
sorted keys, complex numbers become [re, im] pairs, and no timestamps or
environment data ever enter the stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckRecord", "RunReport", "emit_trace", "jsonable"]


def jsonable(value):
    """Coerce report payloads into deterministic JSON-friendly data."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, float):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, frozenset):
        return sorted(jsonable(v) for v in value)
    return str(value)


@dataclass
class CheckRecord:
    """One verdict line: a named check, its example tag, and its numbers."""

    name: str
    ref: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "kind": "check",
            "name": self.name,
            "ref": self.ref,
            "passed": bool(self.passed),
            "details": jsonable(self.details),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class RunReport:
    """A command echo, the resolved configuration, and all check records."""

    command: str
    config: dict
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_jsonl(self) -> str:
        lines = [json.dumps(
            {"kind": "header", "command": self.command,
             "config": jsonable(self.config)},
            sort_keys=True, separators=(",", ":"))]
        lines += [r.to_json() for r in self.records]
        lines.append(json.dumps(
            {"kind": "summary", "total": len(self.records),
             "passed": sum(1 for r in self.records if r.passed)},
            sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        width = max([len(r.name) for r in self.records], default=4)
        out = [f"command: {self.command}"]
        for key in sorted(self.config):
            out.append(f"  {key} = {self.config[key]}")
        for r in self.records:
            mark = "PASS" if r.passed else "FAIL"
            out.append(f"{mark}  {r.name.ljust(width)}  [{r.ref}]")
        good = sum(1 for r in self.records if r.passed)
        out.append(f"{good}/{len(self.records)} checks passed")
        return "\n".join(out)


def emit_trace(report: RunReport, path) -> None:
    """Write the report records; identical runs produce identical bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_jsonl())
