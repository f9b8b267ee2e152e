"""Command line surface: spec files, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protower.suites
from protower.cli import (
    COMMANDS,
    PARAMS,
    _build_parser,
    _resolve_config,
    bundled_spec_path,
    main,
    run,
)
from protower.core_algebra import AlgebraError, StructuralError, distance
from protower.report import RunReport, emit_trace
from protower.specfile import SpecFile, load_specfile, parse_complex, parse_matrix
from protower.tower import project
from protower.unitary import exp_selfadjoint, unitary_log


@pytest.fixture(scope="module")
def spec():
    return load_specfile(bundled_spec_path())


def bundled_data() -> dict:
    return json.loads(Path(bundled_spec_path()).read_text())


def with_directive(data: dict, command: str, **values) -> dict:
    for directive in data["runs"]:
        if directive["command"] == command:
            directive.update(values)
    return data


def test_parse_complex_and_matrix():
    assert parse_complex([1.0, -2.0]) == 1.0 - 2.0j
    assert parse_complex(3) == 3.0 + 0.0j
    with pytest.raises(StructuralError):
        parse_complex("no")
    with pytest.raises(StructuralError):
        parse_complex(True)
    with pytest.raises(StructuralError):
        parse_complex([True, False])
    m = parse_matrix([[[0.0, 0.0], [1.0, 0.0]], [[0.0, -1.0], [0.0, 0.0]]])
    assert m.shape == (2, 2)
    assert m[0, 1] == 1.0
    assert m[1, 0] == -1.0j
    with pytest.raises(StructuralError):
        parse_matrix([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])


def test_bundled_spec_resolves(spec):
    assert set(spec.tower_names()) >= {
        "matrix-product", "flat-five", "wide-product", "pair"}
    shift = spec.element("shift")
    assert shift.certificates.spectral_bound == 0.0
    upair = spec.element("upair")
    assert upair.certificates.unitary
    space = spec.space("five-chain")
    assert space.horizon == 5


def test_explicit_element_matches_levels(spec):
    hpair = spec.element("hpair")
    x1 = hpair.materialize(1)
    assert x1.parent.block_sizes == (2,)
    assert x1.blocks[0][0, 1] == 1.0
    x2 = hpair.materialize(2)
    assert x2.blocks[1][0, 0] == 0.5


def test_unknown_references_raise():
    data = {
        "towers": [{"name": "t", "rule": {"kind": "product_matrix"},
                    "horizon": 2}],
        "elements": [{"name": "e", "tower": "missing",
                      "generator": {"kind": "L_superdiagonal"}}],
    }
    with pytest.raises(StructuralError) as err:
        SpecFile(data)
    assert "missing" in str(err.value)


def test_custom_table_must_be_prefix_chain():
    data = {"towers": [{"name": "t", "rule": {
        "kind": "custom_table", "block_sizes": [[1, 2], [2, 2]]}}]}
    with pytest.raises(StructuralError):
        SpecFile(data)


def test_run_reports_and_exit_semantics(spec):
    report = run("norm", spec, {"element": "triple", "horizon": 5})
    assert report.all_passed
    assert report.records[0].details["bound"] == pytest.approx(3.0)

    # a non-unitary element makes the logarithm fail: failed record
    report = run("unitary-log", spec, {"element": "triple", "horizon": 2})
    assert not report.all_passed
    assert "error" in report.records[0].details


def test_run_bounded_witness_example(spec):
    report = run("bounded", spec, {})  # run directive: horizon 100, threshold 50
    rec = report.records[0]
    assert rec.details["status"] == "unbounded"
    assert rec.details["witness_level"] == 52
    assert rec.details["witness_value"] == pytest.approx(51.0, abs=1e-10)


def test_commands_keep_their_order():
    # benchmark rounds permute the commands by index into this tuple
    assert COMMANDS == (
        "norm", "spectrum", "bounded", "funcalc", "check-exact",
        "quotient-iso", "gelfand-roundtrip", "unitary-log", "exp-factor",
        "paper-examples", "selftest")


def test_bounded_member_follows_verdict(spec):
    statuses = []
    for element in ("shift", "triple"):
        details = run("bounded", spec, {"element": element}).records[0].details
        assert details["member"] == (details["status"] == "bounded")
        statuses.append(details["status"])
    assert statuses == ["unbounded", "bounded"]


def test_check_exact_without_probes_fails_squash_trace(spec):
    report = run("check-exact", spec, {"probes": 0})
    exactness, trace = report.records
    assert exactness.passed
    assert trace.details["probes"] == 0
    assert not trace.passed
    assert not report.all_passed


def test_unitary_log_residual_is_the_reassembly(spec):
    report = run("unitary-log", spec, {})
    record = report.records[0]
    cfg = report.config
    u = spec.element(cfg["element"])
    log = unitary_log(u, cfg["branch"], tol=cfg["tol"], horizon=cfg["horizon"])
    back = exp_selfadjoint(log, 1.0)
    expected = max(
        distance(project(back, p), project(u, p))
        for p in range(1, u.max_level(cfg["horizon"]) + 1))
    assert record.passed
    assert record.details["residual"] == expected


def test_unitary_log_record_fails_on_a_bad_reassembly(spec, monkeypatch):
    import protower.unitary

    monkeypatch.setattr(
        protower.unitary, "_reassembly_residual", lambda *args: 1.0)
    report = run("unitary-log", spec, {})
    [record] = report.records
    assert record.name == "unitary-log"
    assert not record.passed
    assert record.details["residual"] == 1.0
    cfg = report.config
    with pytest.raises(AlgebraError, match="reassembly residual"):
        unitary_log(spec.element(cfg["element"]), cfg["branch"],
                    tol=cfg["tol"], horizon=cfg["horizon"])


def test_run_unknown_command(spec):
    with pytest.raises(StructuralError):
        run("no-such-command", spec, {})


def test_emit_trace_empty_and_counts(tmp_path, spec):
    empty = RunReport(command="norm", config={"seed": 1})
    path = tmp_path / "empty.jsonl"
    emit_trace(empty, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # header and summary, no check records
    assert json.loads(lines[0])["kind"] == "header"
    assert json.loads(lines[-1]) == {"kind": "summary", "total": 0, "passed": 0}

    report = run("quotient-iso", spec, {})
    path = tmp_path / "q.jsonl"
    emit_trace(report, path)
    lines = path.read_text().splitlines()
    records = [json.loads(x) for x in lines]
    checks = [r for r in records if r["kind"] == "check"]
    summary = records[-1]
    assert summary["total"] == len(checks)
    assert summary["passed"] == sum(1 for c in checks if c["passed"])


def test_rerun_same_seed_identical_bytes(tmp_path, spec):
    a = run("check-exact", spec, {"seed": 5}).to_jsonl()
    b = run("check-exact", spec, {"seed": 5}).to_jsonl()
    assert a == b
    c = run("check-exact", spec, {"seed": 6}).to_jsonl()
    assert a != c  # different stream, different probe numbers


def test_main_exit_codes(tmp_path):
    assert main(["norm", "--element", "triple"]) == 0
    # failed check
    assert main(["unitary-log", "--element", "triple", "--horizon", "2"]) == 1
    # config errors
    assert main(["norm", "--element", "no-such-element"]) == 2
    assert main(["norm", "--spec", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["norm", "--spec", str(bad)]) == 2


def test_main_subprocess_roundtrip(tmp_path):
    # the child finds this checkout's package without an install
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "protower.cli", "gelfand-roundtrip",
             "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_clusters_with_cluster_tol(spec):
    # ramp's five eigenvalues lie 1/30 to 1/6 apart: a cluster_tol of 0.5
    # chains them into one point, one of 1e-12 keeps them apart, and tol,
    # which spectrum does not read, is rejected.
    merged = run(
        "spectrum", spec, {"element": "ramp", "horizon": 5, "cluster_tol": 0.5})
    apart = run(
        "spectrum", spec, {"element": "ramp", "horizon": 5, "cluster_tol": 1e-12})
    with pytest.raises(StructuralError, match="'tol'"):
        run("spectrum", spec, {"element": "ramp", "tol": 0.5})
    assert merged.config["cluster_tol"] == 0.5
    assert len(merged.records[0].details["points"]) == 1
    assert len(apart.records[0].details["points"]) == 5


def test_funcalc_poly_flag(spec):
    report = run(
        "funcalc", spec,
        {"element": "ramp", "function": "poly", "coeffs": "0,1", "horizon": 5})
    assert report.all_passed
    details = report.records[0].details
    assert details["function"] == "Polynomial"


def test_funcalc_domain_error_fails_run(spec):
    # arg is undefined at 0, and the shift has spectrum {0}
    report = run(
        "funcalc", spec,
        {"element": "shift", "function": "arg", "horizon": 3})
    assert not report.all_passed


def test_funcalc_builds_each_lifted_block_once_per_walk(spec, monkeypatch):
    # one walk for the level norms and one for the spectrum: at most 2H
    # squashes of a shift block, where a seminorm per level makes H^2/2
    from protower.calculus import _level_seminorms, lift_function, seminorm
    from protower.core_algebra import RationalSquash

    calls = []
    real = RationalSquash.apply_matrix
    monkeypatch.setattr(RationalSquash, "apply_matrix",
                        lambda self, b: calls.append(b) or real(self, b))
    lifted = lift_function(spec.element("shift"), RationalSquash(1))
    norms = _level_seminorms(lifted, 100)
    assert len(calls) <= 100
    assert [norms[p - 1] for p in (1, 2, 50, 100)] == [
        seminorm(lifted, p) for p in (1, 2, 50, 100)]
    calls.clear()
    report = run("funcalc", spec,
                 {"element": "shift", "function": "squash", "index": 1,
                  "horizon": 100})
    assert report.records[0].details["level_norms"] == norms
    assert len(calls) <= 200


def test_quotient_iso_cli_flags(spec):
    report = run(
        "quotient-iso", spec,
        {"tower": "wide-product", "blocks": [0], "kernel_levels": [2],
         "seed": 9})
    assert report.all_passed
    names = [r.name for r in report.records]
    assert "seminorm-kernel-quotient-p2" in names


class RecordingConfig(dict):
    """A configuration that records every key a check reads."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", COMMANDS)
def test_checks_read_exactly_their_declared_parameters(
        spec, command, monkeypatch):
    # the two suites read only the seed; their records are not needed here
    monkeypatch.setattr(protower.suites, "paper_example_records",
                        lambda spec, seed: [])
    monkeypatch.setattr(protower.suites, "selftest_records",
                        lambda spec, seed: [])
    check, declared = protower.suites.CHECKS[command]
    runs = [{}]
    if command == "funcalc":
        runs = [{"function": "squash"}, {"function": "expi"},
                {"function": "arg"}, {"function": "poly", "coeffs": "0,1"}]
    read = set()
    for overrides in runs:
        cfg = RecordingConfig(_resolve_config(command, spec, overrides))
        check(spec, cfg)
        read |= cfg.read
    assert read == set(declared)


def test_each_command_takes_only_its_declared_flags(capsys):
    parser = _build_parser()
    flags = 0
    for command, (_, declared) in protower.suites.CHECKS.items():
        assert set(declared) <= set(PARAMS)
        for key, param in PARAMS.items():
            if key in declared:
                args = parser.parse_args([command, param.flag, "1"])
                assert getattr(args, key) in ("1", ["1"])
                flags += 1
                continue
            with pytest.raises(SystemExit) as exit_:
                main([command, param.flag, "1"])
            assert exit_.value.code == 2
            assert param.flag in capsys.readouterr().err
    assert flags == 46


def test_bad_flag_value_exits_2(capsys):
    assert main(["check-exact", "--blocks", "x"]) == 2
    err = capsys.readouterr().err
    assert "check-exact" in err and "blocks" in err and "'x'" in err
    assert main(["norm", "--horizon", "0"]) == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", 2.5])
def test_bad_directive_value_exits_2(tmp_path, capsys, value):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        with_directive(bundled_data(), "check-exact", probes=value)))
    assert main(["check-exact", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "check-exact" in err and "probes" in err and repr(value) in err


def test_undeclared_keys_raise(spec):
    with pytest.raises(StructuralError, match="norm .*'probes'"):
        run("norm", spec, {"probes": 3})
    extra = SpecFile(with_directive(bundled_data(), "norm", probes=3))
    with pytest.raises(StructuralError, match="norm .*'probes'"):
        run("norm", extra, {})


def test_duplicate_run_directives_are_rejected():
    data = bundled_data()
    data["runs"].append({"command": "norm", "element": "shift"})
    with pytest.raises(StructuralError, match="'norm'"):
        SpecFile(data)
    with pytest.raises(StructuralError, match="'norm'"):
        SpecFile({"runs": [{"command": ["norm"]}]})


def test_unknown_spec_section_exits_2(tmp_path, capsys):
    data = bundled_data()
    data["homomorphisms"] = []
    with pytest.raises(StructuralError, match="homomorphisms"):
        SpecFile(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["norm", "--spec", str(path)]) == 2
    assert "homomorphisms" in capsys.readouterr().err


@pytest.mark.parametrize("data, named", [
    ({"towers": [5]}, "'towers'"),
    ({"towers": {"name": "x"}}, "'towers'"),
    ({"elements": [3]}, "'elements'"),
    ({"towers": [{"name": "t", "rule": {"kind": "constant_commutative"}}],
      "elements": [{"name": "e", "tower": "t", "generator": "oops"}]},
     "generator of element 'e'"),
    ({"towers": [{"name": "t", "rule": 5}]}, "rule of tower 't'"),
])
def test_malformed_spec_shape_exits_2(tmp_path, capsys, data, named):
    with pytest.raises(StructuralError, match=named):
        SpecFile(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["norm", "--spec", str(path)]) == 2
    assert named in capsys.readouterr().err


def entry(data: dict, section: str, name: str) -> dict:
    return next(e for e in data[section] if e.get("name") == name)


@pytest.mark.parametrize("mutate, named", [
    (lambda d: entry(d, "towers", "pair").update(horizon="abc"),
     ["tower 'pair'", "'horizon'", "'abc'"]),
    (lambda d: entry(d, "towers", "matrix-product").update(name=["x"]),
     ["towers entry 1", "'name'", "['x']"]),
    (lambda d: entry(d, "towers", "pair")["rule"].update(block_sizes=5),
     ["tower 'pair'", "'block_sizes'", "5"]),
    (lambda d: entry(d, "towers", "pair")["rule"].update(block_sizes=[[1, "a"]]),
     ["tower 'pair'", "'block_sizes'", "'a'"]),
    (lambda d: entry(d, "elements", "hpair").update(levels=5),
     ["element 'hpair'", "'levels'", "5"]),
    # an inherited block that is not the section of the level below
    (lambda d: entry(d, "elements", "hpair")["levels"][1].__setitem__(0, [
        [[5 * x for x in v] for v in row]
        for row in entry(d, "elements", "hpair")["levels"][1][0]]),
     ["element 'hpair'", "level 2", "block 0"]),
    (lambda d: entry(d, "elements", "ramp")["generator"].update(bound="abc"),
     ["element 'ramp'", "'bound'", "'abc'"]),
    (lambda d: entry(d, "elements", "upair")["generator"].update(t="x"),
     ["element 'upair'", "'t'", "'x'"]),
    (lambda d: entry(d, "spaces", "five-chain").update(points=5),
     ["space 'five-chain'", "'points'", "5"]),
    (lambda d: entry(d, "spaces", "five-chain").update(chain=[[0], "ab"]),
     ["space 'five-chain'", "'chain'", "'ab'"]),
    # exp_of names an element defined above it, so it cannot name itself
    (lambda d: entry(d, "elements", "upair")["generator"].update(element="upair"),
     ["element 'upair'", "earlier element 'upair'"]),
    (lambda d: entry(d, "towers", "matrix-product").update(horizon=0),
     ["tower 'matrix-product'", "'horizon'", "0"]),
    (lambda d: entry(d, "towers", "matrix-product").update(horizon=2.7),
     ["tower 'matrix-product'", "'horizon'", "2.7"]),
    (lambda d: entry(d, "towers", "matrix-product").update(horizon=True),
     ["tower 'matrix-product'", "'horizon'", "True"]),
    (lambda d: entry(d, "towers", "flat-five").update(horizn=2),
     ["tower 'flat-five'", "'horizn'", "2"]),
    (lambda d: entry(d, "towers", "flat-five")["rule"].update(kinds="x"),
     ["tower 'flat-five'", "'kinds'", "'x'"]),
    (lambda d: entry(d, "elements", "hpair").update(selfadjoint="false"),
     ["element 'hpair'", "'selfadjoint'", "'false'"]),
    (lambda d: entry(d, "elements", "triple").update(selfadjoint=True),
     ["element 'triple'", "'selfadjoint'", "True"]),
    (lambda d: entry(d, "elements", "ramp")["generator"].update(bund=0.5),
     ["element 'ramp'", "'bund'", "0.5"]),
    # entries that no command names are checked too
    (lambda d: d["towers"].append(
        {"name": "unused", "rule": {"kind": "product_matrix"}, "horizon": "x"}),
     ["tower 'unused'", "'horizon'", "'x'"]),
    (lambda d: d["runs"].append({"command": "nrom"}), ["'nrom'"]),
    (lambda d: d["towers"].append(
        {"name": "pair", "rule": {"kind": "constant_commutative"}}),
     ["tower 'pair'", "twice in towers"]),
    (lambda d: entry(d, "towers", "pair").update(horizon=9),
     ["tower 'pair'", "'horizon'", "9"]),
    (lambda d: with_directive(d, "spectrum", horizon="abc"),
     ["spectrum run directive", "'horizon'", "'abc'"]),
])
def test_spec_field_errors_exit_2(tmp_path, capsys, mutate, named):
    data = bundled_data()
    mutate(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["norm", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    for text in named:
        assert text in err


def places(node):
    """(container, key) for every value in a JSON tree, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from places(node[key])


MUTATION = st.tuples(
    st.sampled_from(["delete", "retype", "misspell", "wrap"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([None, True, 0, -1, 2.5, "x", [], {}, [1], {"kind": "x"}]))


@given(st.lists(MUTATION, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mutated_spec_loads_or_raises_structural_error(mutations):
    data = bundled_data()
    for op, index, value in mutations:
        spots = list(places(data))
        node, key = spots[index % len(spots)]
        if op == "delete":
            del node[key]
        elif op == "retype":
            node[key] = value
        elif op == "misspell" and isinstance(key, str):
            node[key[:-1] or "x"] = node.pop(key)
        elif op == "wrap":
            node[key] = [node[key]]
    try:
        SpecFile(data)
    except StructuralError:
        pass
