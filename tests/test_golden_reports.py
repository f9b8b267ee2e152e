"""Bundled command reports, byte for byte.

Each file under ``tests/data/reports`` is the JSONL report of one command
run in process on the bundled spec with its run directives and no flags.
The spec path in the header is replaced by a fixed token, so the files do
not depend on where the package is installed. A change that is meant to
alter report bytes regenerates them with

    PYTHONPATH=src python tests/test_golden_reports.py

and says which records changed and why.
"""

import json
import pathlib

import pytest

from protower.cli import COMMANDS, bundled_spec_path, run
from protower.specfile import load_specfile
from protower.suites import CHECKS

REPORTS = pathlib.Path(__file__).parent / "data" / "reports"
SPEC_TOKEN = "<bundled-spec>"


def render(command: str) -> bytes:
    spec = load_specfile(bundled_spec_path())
    text = run(command, spec, {}).to_jsonl()
    return text.replace(json.dumps(spec.origin), json.dumps(SPEC_TOKEN)).encode()


@pytest.mark.parametrize("command", COMMANDS)
def test_bundled_report_bytes(command):
    expected = (REPORTS / f"{command}.jsonl").read_bytes()
    assert render(command) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_header_echoes_the_declared_parameters(command):
    header = json.loads((REPORTS / f"{command}.jsonl").read_text().splitlines()[0])
    assert set(header["config"]) == set(CHECKS[command][1]) | {"spec"}


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name in COMMANDS:
        (REPORTS / f"{name}.jsonl").write_bytes(render(name))
