"""End-to-end tests for the command-line interface."""

import json

import pytest

from cayleydeg.cli import main


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


def test_signing_search_needs_graph(capsys):
    assert main(["signing", "search"]) == 2


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
