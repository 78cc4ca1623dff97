"""End-to-end tests for the command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cayleydeg.cli import _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_build_reports_graph_shape(capsys):
    rc = main(["build", "--group", "z6", "--gens", "1,5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "order 6" in out
    assert "2-regular" in out
    assert "1 component(s)" in out


def test_build_writes_json(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["build", "--group", "z2x2", "--gens", "1,2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4
    assert len(data["edges"]) == 4


def test_build_dot_format(tmp_path):
    out = tmp_path / "g.dot"
    rc = main(["build", "--group", "dihedral:4", "--gens", "1,3,4",
               "--format", "dot", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("graph {")


def test_build_tuple_and_basis_tokens(capsys):
    rc = main(["build", "--group", "z4x2", "--gens", "e1,(3,0),e2"])
    assert rc == 0
    assert "3-regular" in capsys.readouterr().out


def test_build_rejects_asymmetric_set(capsys):
    rc = main(["build", "--group", "z6", "--gens", "1"])
    assert rc == 2
    assert "symmetric" in capsys.readouterr().err


def test_element_range_errors_come_from_the_library(capsys):
    assert main(["build", "--group", "z6", "--gens", "9"]) == 2
    assert "element 9 out of range" in capsys.readouterr().err
    assert main(["witness", "--group", "z6", "--gens", "1,5,3",
                 "--subset", "0,1,2,9"]) == 2
    assert "vertex 9 out of range" in capsys.readouterr().err


def test_build_unknown_group(capsys):
    assert main(["build", "--group", "nosuch", "--gens", "1"]) == 2


def test_usage_error_exit_code():
    assert main(["build", "--group", "z6"]) == 2  # missing --gens
    assert main(["nosuchcommand"]) == 2
    assert main(["--help"]) == 0


def test_witness_json_report(capsys):
    rc = main(["witness", "--group", "z6", "--gens", "1,5,3",
               "--subset", "0,1,2,4"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vertex"] == 1
    assert report["k"] == 2
    assert all(report["checks"].values())


def test_witness_subset_from_file(tmp_path, capsys):
    subset = tmp_path / "u.json"
    subset.write_text("[0, 1, 2, 4]")
    rc = main(["witness", "--group", "z6", "--gens", "1,5,3",
               "--subset", f"@{subset}"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["k"] == 2


def test_witness_needs_majority(capsys):
    rc = main(["witness", "--group", "z6", "--gens", "1,5", "--subset", "0,1"])
    assert rc == 2
    assert "majority" in capsys.readouterr().err


def test_witness_subset_file_takes_coordinate_lists(tmp_path, capsys):
    # (0,0), (1,0), (2,0), (0,1) of z3x2 are the indices 0, 2, 4, 1
    subset = tmp_path / "u.json"
    subset.write_text("[[0,0],[1,0],[2,0],[0,1]]")
    command = ["witness", "--group", "z3x2", "--gens", "e1,(2,0),e2", "--subset"]
    assert main(command + [f"@{subset}"]) == 0
    from_file = capsys.readouterr().out
    assert main(command + ["0,2,4,1"]) == 0
    assert from_file == capsys.readouterr().out
    assert json.loads(from_file)["k"] == 2


def test_witness_certifies_a_lift_beyond_the_cube_budget(tmp_path, capsys):
    # z97x97 with 10 directions: a 97^10-point lift, but only 2^10 cube corners
    gens = ",".join(["(0,1)", "(0,96)"] + [f"({a},0),({97 - a},0)" for a in range(1, 10)])
    subset = tmp_path / "u.json"
    subset.write_text(json.dumps([[a, b] for a in range(97) for b in range(40, 97)]))
    assert main(["witness", "--group", "z97x97", "--gens", gens, "--subset", f"@{subset}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["vertex"], report["k"], report["d"]) == (40, 10, 10)
    assert report["trace"]["lifted_vertex"] == 40 * 97**9


def test_scan_stdout_csv(capsys):
    rc = main(["scan", "--groups", "s3"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("graph,n,regularity")
    assert len(lines) > 1
    assert "weak-bound failures: 0" in captured.err


def test_scan_petersen_finds_violation(tmp_path, capsys):
    csv_path = tmp_path / "pet.csv"
    rc = main(["scan", "--graph", "petersen", "--out", str(csv_path),
               "--violations-dir", str(tmp_path / "v")])
    assert rc == 1
    record = json.loads((tmp_path / "v" / "violation_0000.json").read_text())
    assert record["reverified"] is True
    assert record["margin"] == -1
    assert "petersen" in csv_path.read_text()


def test_scan_abelian_range(tmp_path):
    out = tmp_path / "ab.csv"
    rc = main(["scan", "--abelian-orders", "2..5", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) > 5


def test_scan_out_creates_its_directory(tmp_path, capsys):
    assert main(["scan", "--abelian-orders", "4..4"]) == 0
    want = capsys.readouterr().out
    out = tmp_path / "missing" / "dir" / "scan.csv"
    assert main(["scan", "--abelian-orders", "4..4", "--out", str(out)]) == 0
    assert out.read_text() == want


def test_scan_output_under_a_file_fails_before_any_instance(tmp_path, monkeypatch, capsys):
    import cayleydeg.extremal as extremal

    def refuse(*args, **kwargs):
        raise AssertionError("an instance was checked before the output path")

    monkeypatch.setattr(extremal, "verify_conjecture", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for flag, path in [("--out", blocker / "scan.csv"), ("--violations-dir", blocker / "v")]:
        assert main(["scan", "--abelian-orders", "4..4", flag, str(path)]) == 2, flag
        assert capsys.readouterr().err.startswith("error:"), flag


def test_scan_without_targets_errors(capsys):
    assert main(["scan"]) == 2
    assert "nothing to scan" in capsys.readouterr().err


def test_counterexample_command(tmp_path, capsys):
    out = tmp_path / "ce.json"
    rc = main(["counterexample", "--n", "4", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "18 vertices" in stdout
    data = json.loads(out.read_text())
    assert data["n"] == 18
    assert main(["counterexample", "--n", "0"]) == 2


def test_signing_huang_verify(capsys):
    rc = main(["signing", "huang", "--n", "4", "--verify"])
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_signing_file_round_trip(tmp_path, capsys):
    path = tmp_path / "b3.json"
    assert main(["signing", "huang", "--n", "3", "--out", str(path)]) == 0
    assert main(["signing", "verify", "--in", str(path), "--c", "3"]) == 0
    # wrong constant is a finding, exit 1
    assert main(["signing", "verify", "--in", str(path), "--c", "5"]) == 1
    spec_path = tmp_path / "spec.csv"
    assert main(["signing", "spectrum", "--in", str(path),
                 "--out", str(spec_path)]) == 0
    lines = spec_path.read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 9


def test_signing_spectrum_has_no_tol_flag(tmp_path, capsys):
    path = tmp_path / "b2.json"
    assert main(["signing", "huang", "--n", "2", "--out", str(path)]) == 0
    assert main(["signing", "spectrum", "--in", str(path), "--tol", "1e-3"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_signing_huang_verify_at_the_dimension_cap(capsys):
    assert main(["signing", "huang", "--n", "12", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "M^2 = 12I: OK" in out and "24576 signed edges" in out


def test_signing_search_exhaustive(capsys):
    rc = main(["signing", "search", "--graph", "q2", "--exhaustive"])
    assert rc == 0
    assert "1.41421356237" in capsys.readouterr().out


def test_signing_search_refuses_a_climb_with_no_work(capsys):
    for flag, message in [
        ("--restarts", "error: restarts must be at least 1, got 0"),
        ("--budget", "error: evaluation budget must be at least 1, got 0"),
    ]:
        assert main(["signing", "search", "--graph", "q3", flag, "0"]) == 2, flag
        captured = capsys.readouterr()
        assert captured.err.strip() == message and captured.out == "", flag
    # exhaustive mode reads neither value
    argv = ["signing", "search", "--graph", "q2", "--exhaustive", "--restarts", "0", "--budget", "0"]
    assert main(argv) == 0
    assert "1.41421356237" in capsys.readouterr().out


def test_signing_search_needs_graph(capsys):
    assert main(["signing", "search"]) == 2


def test_signing_search_takes_one_graph_source(tmp_path, capsys):
    path = tmp_path / "q2.json"
    assert main(["build", "--group", "z2x2", "--gens", "1,2", "--out", str(path)]) == 0
    assert main(["signing", "search", "--in", str(path), "--exhaustive"]) == 0
    assert "1.41421356237" in capsys.readouterr().out
    assert main(["signing", "search", "--graph", "q3", "--in", str(path)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    # an empty --in names a file to read, not a missing graph
    assert main(["signing", "search", "--in", ""]) == 2


def _leaf_parsers(parser, path=()):
    """(argv prefix, parser) for every subcommand that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_every_leaf_subcommand_has_help_and_a_handler(capsys):
    leaves = list(_leaf_parsers(_build_parser()))
    assert len(leaves) == 8
    for path, leaf in leaves:
        assert callable(leaf.get_default("func")), path
        assert main([*path, "--help"]) == 0, path
        assert capsys.readouterr().out.startswith("usage: cayleydeg " + " ".join(path))


def test_module_runs_as_a_script():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cayleydeg.cli", "witness", "--group", "z6",
         "--gens", "1,5,3", "--subset", "0,1,2,4"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["vertex"], report["k"]) == (1, 2)


def test_ci_mode_requires_seed(capsys):
    rc = main(["--ci", "signing", "search", "--graph", "q3"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err
    rc = main(["--ci", "--seed", "3", "signing", "search", "--graph", "q3",
               "--budget", "100", "--restarts", "2"])
    assert rc == 0
    # exhaustive mode is deterministic, no seed needed
    rc = main(["--ci", "signing", "search", "--graph", "q2", "--exhaustive"])
    assert rc == 0


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAYLEYDEG_OUT_DIR", str(tmp_path))
    rc = main(["signing", "huang", "--n", "2", "--out", "rel.json"])
    assert rc == 0
    assert (tmp_path / "rel.json").exists()


def test_jobs_flag_accepted(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--jobs", "1", "scan", "--groups", "q8", "--out", str(a)]) == 0
    assert main(["--jobs", "4", "scan", "--groups", "q8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_exits_2_when_every_instance_is_over_budget(capsys):
    rc = main(["scan", "--groups", "q8", "--budget", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scanned 0 instance(s)" in err
    assert "instance error: q8[" in err and "exceed the budget 1" in err


def test_scan_exits_3_on_an_invariant_breach(monkeypatch, capsys):
    import cayleydeg.extremal as extremal
    from cayleydeg.errors import InvariantBreach

    def breach(*args, **kwargs):
        raise InvariantBreach("simulated breach")

    monkeypatch.setattr(extremal, "verify_conjecture", breach)
    assert main(["scan", "--groups", "s3"]) == 3
    assert "internal invariant breach: simulated breach" in capsys.readouterr().err


def test_scan_finding_outranks_instance_errors(tmp_path, capsys):
    # Petersen is a finding (exit 1) even when another instance errors
    rc = main(["scan", "--graph", "petersen", "--groups", "d8", "--max-set-size", "3",
               "--budget", "300", "--out", str(tmp_path / "out.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "weak-bound failures: 1" in err and "instance error: dihedral:8[" in err


@pytest.mark.parametrize(
    "command, text",
    [
        (["signing", "search", "--in"], '{"n":3,"edges":[["a",1]]}'),
        (["signing", "verify", "--c", "1", "--in"], '{"n":3,"signs":[[0,1.0,1]]}'),
        (["signing", "search", "--in"], '{"n":true,"edges":[]}'),
        (["signing", "verify", "--c", "1", "--in"], '{"n":true,"signs":[]}'),
        (["signing", "search", "--in"], "null"),
        (["signing", "spectrum", "--in"], "null"),
        (["signing", "search", "--in"], '{"n":3,"edges":null}'),
        (["signing", "verify", "--c", "1", "--in"], '{"n":3,"signs":[null]}'),
        (["signing", "search", "--in"], '{"n":3,"edges":[[[0],1]]}'),
        (["signing", "spectrum", "--in"], '{"n":3,"signs":[[[0],1,1]]}'),
        pytest.param(["signing", "verify", "--c", "1", "--in"], "[" * 100_000 + "]" * 100_000,
                     id="deep-nesting"),
        (["witness", "--group", "z6x2", "--gens", "e1,e2,(5,0)", "--subset"], '[["a",0]]'),
        (["witness", "--group", "z6x2", "--gens", "e1,e2,(5,0)", "--subset"], "[[1.5,0]]"),
        (["witness", "--group", "z6", "--gens", "1,5", "--subset"], "[true,1,2,3,4,5]"),
        pytest.param(["witness", "--group", "z6", "--gens", "1,5", "--subset"],
                     "[" * 100_000 + "]" * 100_000, id="deep-subset"),
        pytest.param(["signing", "search", "--in"], '{"n":1000000000000,"edges":[]}',
                     id="huge-graph"),
        pytest.param(["signing", "spectrum", "--in"], '{"n":1000000000000,"signs":[]}',
                     id="huge-signing"),
    ],
)
def test_malformed_files_exit_2_without_a_traceback(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    arg = f"@{path}" if command[0] == "witness" else str(path)
    assert main(command + [arg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_scan_takes_every_catalog_graph(capsys):
    assert main(["scan", "--graph", "q3"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().split("\n")
    assert len(rows) == 2 and rows[1].startswith("q3,8,3,5,")
    assert "scanned 1 instance(s)" in captured.err


@pytest.mark.parametrize(
    "command, text, message",
    [
        pytest.param(["build", "--group", '{"table": [[0, true], [true, 0]]}', "--gens", "1"],
                     None, "table entry True in row 0 is out of range", id="bool-table"),
        (["build", "--group", "z4x2", "--gens", "(1,0"], None,
         "unbalanced parentheses in '(1,0'"),
        (["build", "--group", "z4x2", "--gens", "1),(0,1"], None,
         "unbalanced parentheses in '1),(0,1'"),
        (["build", "--group", "s3", "--gens", "(1,0)"], None,
         "tuple element tokens need a cyclic-product group"),
        (["build", "--group", "s3", "--gens", "e1"], None,
         "basis tokens e1..ek need a cyclic-product group"),
        (["build", "--group", "z4x2", "--gens", "(1,0,0)"], None,
         "tuple (1,0,0) has 3 coordinates, group has 2"),
        (["build", "--group", "z4x2", "--gens", "e3"], None,
         "basis token e3 out of range for 2 coordinates"),
        (["build", "--group", "z4", "--gens", "x"], None, "cannot parse element token 'x'"),
        (["build", "--group", "dihedral:0", "--gens", "1"], None,
         "dihedral parameter must be >= 1, got 0"),
        (["build", "--group", "alt:6", "--gens", "1"], None,
         "alternating groups are supported for 1 <= n <= 5, got 6"),
        (["build", "--group", "dihedral:x", "--gens", "1"], None,
         "bad parameter in group spec 'dihedral:x'"),
        (["build", "--group", '{"tables": []}', "--gens", "1"], None,
         "group dict spec must contain a 'table' key"),
        (["build", "--group", '{"table": []}', "--gens", "1"], None,
         "multiplication table is empty"),
        (["witness", "--group", "z6", "--gens", "1,5", "--subset", "@FILE"], '{"a": 1}',
         "subset file must hold a JSON list"),
        (["signing", "verify", "--c", "1", "--in", "FILE"], '{"n":2,"signs":[[0,1,1],[0,1,1]]}',
         "duplicate edge (0,1)"),
    ],
)
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, command, text, message):
    if text is not None:
        path = tmp_path / "in.json"
        path.write_text(text)
        command = [arg.replace("FILE", str(path)) for arg in command]
    assert main(command) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_single_order_means_from_2(capsys):
    assert main(["scan", "--abelian-orders", "4"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 8
    assert main(["scan", "--abelian-orders", "2..4"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[1:] == rows


def test_deeply_nested_group_spec_exits_2_without_a_traceback(capsys):
    spec = '{"table":' + "[" * 100_000 + "]" * 100_000 + "}"
    assert main(["build", "--group", spec, "--gens", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed group spec JSON") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["signing", "search", "--in"], '{"n":513,"edges":[]}',
         "graph has 513 vertices, above the cap 512"),
        (["signing", "verify", "--c", "1", "--in"], '{"n":4097,"signs":[]}',
         "signing has 4097 vertices, above the cap 4096"),
    ],
)
def test_vertex_counts_are_refused_before_allocation(tmp_path, capsys, command, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    tracemalloc.start()
    try:
        assert main(command + [str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["complete:100000", "cycle:4097"])
def test_catalog_sizes_are_refused_before_the_edges_are_listed(capsys, name):
    # a scan records the refusal as an instance error and exits 2; a single
    # graph command reports it as the error
    n = name.partition(":")[2]
    message = f"graph has {n} vertices, above the cap 4096"
    for command, err in [
        (["scan", "--graph", name], f"instance error: {name}: {message}\n"),
        (["signing", "search", "--graph", name], f"error: {message}\n"),
    ]:
        tracemalloc.start()
        try:
            assert main(command) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.endswith(err), command
        assert peak < 1 << 20


# sha256 of `cayleydeg --seed 3 signing search --graph q5 --out PATH`: the
# written signing, and stdout with PATH replaced by OUT
Q5_SEARCH_JSON_SHA256 = "43820a52ecbfe9648caa2cb7b5118ff0946bda0132d9016af6db31b80a53e769"
Q5_SEARCH_STDOUT_SHA256 = "16005948ccf69d8706b5142c00a5b69b560e270ba98180e4a7a37aa837411c31"


def test_q5_signing_search_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "q5.json"
    assert main(["--seed", "3", "signing", "search", "--graph", "q5", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == Q5_SEARCH_JSON_SHA256
    assert hashlib.sha256(stdout.encode()).hexdigest() == Q5_SEARCH_STDOUT_SHA256
