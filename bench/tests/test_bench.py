"""Tests of the benchmark itself: tiny runs, the output checks, the tracer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import cayleydeg  # noqa: E402
import one_pass  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in group)


def test_tiny_run_at_a_held_out_seed_passes_the_invariant_checks():
    for workload in workloads.WORKLOADS:
        proc = _run(workload, 0, seed=7)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("engines", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the checks catch corrupted output ---------------------------------------


def _tiny(name):
    workload = workloads.PARTS[name]
    inputs = workload.setup(workloads.DEFAULT_SEED, "tiny", ROOT / ".benchwork" / "tests")
    return workload, inputs


def test_scan16_check_catches_a_flipped_row(tmp_path):
    workload = workloads.PARTS["scan16"]
    inputs = workload.setup(0, "tiny", tmp_path)
    output = workload.run(inputs)
    assert workload.check(output, inputs, 0).failed == 0
    lines = output["csv"].splitlines(keepends=True)
    lines[1] = lines[1].replace(",1,1,", ",1,0,", 1)
    bad = workloads.check_scan16(0, "", "".join(lines), inputs["reference"])
    assert bad.failed == bad.attempted and bad.notes
    assert workloads.check_scan16(0, "instance error: x", output["csv"], inputs["reference"]).failed > 0
    assert workloads.check_scan16(1, "", output["csv"], inputs["reference"]).failed > 0


def test_witness_check_catches_a_failed_line():
    workload, inputs = _tiny("witness")
    lines = workload.run(inputs)
    assert workload.check(lines, inputs, 0).failed == 0
    corrupted = lines[:-1] + [lines[-1][: -len(" ok")] + " FAIL"]
    assert workloads.check_witness(corrupted, inputs["count"], None).failed == 1
    assert workloads.check_witness(corrupted, inputs["count"], inputs["digest"]).failed == inputs["count"]


def test_oracle_check_catches_markers_and_wrong_f():
    workload, inputs = _tiny("oracle")
    lines = workload.run(inputs)
    assert workload.check(lines, inputs, 0).failed == 0
    marked = [lines[0] + " s=1 target=0 MISMATCH true != false"] + lines[1:]
    assert workloads.check_oracle(marked, inputs["count"], None).failed == 1
    wrong_f = [lines[0].replace(" f=", " f=9", 1)] + lines[1:]
    assert workloads.check_oracle(wrong_f, inputs["count"], inputs["digest"]).failed == inputs["count"]
    # a heuristic value below the exact one breaks h >= f at any seed
    below = [workloads._F_H.sub(lambda m: f"s={m[1]} f=99 h={m[3]}", lines[0], count=1)] + lines[1:]
    assert workloads.check_oracle(below, inputs["count"], None).failed == inputs["count"]


def test_signing_check_catches_wrong_results():
    workload, inputs = _tiny("signing")
    output = workload.run(inputs)
    attempted = workload.attempted(inputs)
    assert workload.check(output, inputs, 0).failed == 0
    n, _, eig = output["huang"][-1]
    unverified = dict(output, huang=output["huang"][:-1] + [(n, False, eig)])
    assert workloads.check_signing(unverified, inputs["graph"], attempted).failed == 1
    shifted = dict(output, huang=output["huang"][:-1] + [(n, True, eig + 1e-6)])
    assert workloads.check_signing(shifted, inputs["graph"], attempted).failed == 1
    res = output["search"]
    lying = dict(output, search=type(res)(res.signing, res.min_modulus + 0.5, res.evaluations, res.method))
    assert workloads.check_signing(lying, inputs["graph"], attempted).failed == 1


# -- the tracer ---------------------------------------------------------------


def _bindings():
    """Every module binding of a traced function, keyed by (module, name)."""
    tracer = Tracer()
    names = {attr for _, attr, _ in tracer._targets()}
    mods = [m for k, m in sys.modules.items() if k == "cayleydeg" or k.startswith("cayleydeg.")]
    return {(m.__name__, a): m.__dict__[a] for m in mods for a in names if a in m.__dict__}


def test_tracer_wraps_every_binding_and_restores_them():
    import cayleydeg.cli  # noqa: F401

    before = _bindings()
    with Tracer():
        during = _bindings()
        assert all(getattr(during[k], "__wrapped__", None) is before[k] for k in before)
        assert cayleydeg.extremal.build_cayley is cayleydeg.graphs.build_cayley
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(f, "__wrapped__") for f in after.values())


def test_untraced_pass_sees_the_original_functions(tmp_path, monkeypatch, capsys):
    import cayleydeg.cli  # noqa: F401

    originals = _bindings()
    seen = {}
    real_run = workloads.Witness.run

    def spy(self, inputs):
        seen.update(_bindings())
        return real_run(self, inputs)

    monkeypatch.setattr(workloads.Witness, "run", spy)
    for trace in (1, 0):
        seen.clear()
        one_pass.main(["--workload", "abelian", "--seed", "0", "--trace", str(trace),
                       "--size", "tiny", "--work-dir", str(tmp_path)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["failed"] == 0
        wrapped = [k for k in originals if seen[k] is not originals[k]]
        assert bool(wrapped) == bool(trace)
        assert ("layers" in result) == bool(trace)
    assert _bindings() == originals


def test_traced_work_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        workload, inputs = _tiny("oracle")
        with Tracer() as tracer:
            workload.run(inputs)
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["extremal.bnb.nodes"] > 0 and counts[0]["extremal.exhaustive.masks"] > 0


def test_self_and_wait_times_partition_nested_spans():
    tracer = Tracer()
    # parent extremal span 0..10 with a graphs child 2..5 and an extremal child 6..9
    tracer.spans = [(2, 1, "graphs.b", 2.0, 5.0), (3, 1, "extremal.c", 6.0, 9.0),
                    (1, 0, "extremal.a", 0.0, 10.0)]
    s = tracer.summary()
    assert s["extremal.a.self_s"] == pytest.approx(4.0)
    assert s["extremal.self_s"] == pytest.approx(7.0)
    assert s["extremal.wait_s"] == pytest.approx(3.0)
    assert s["graphs.self_s"] == pytest.approx(3.0)
    assert s["graphs.wait_s"] == pytest.approx(0.0)



def test_an_aborted_part_fails_all_its_items_and_the_next_part_still_runs(monkeypatch):
    def breach(self, inputs):
        raise cayleydeg.InvariantBreach("simulated")

    monkeypatch.setattr(workloads.Oracle, "run", breach)
    engines = workloads.WORKLOADS["engines"]
    inputs = engines.setup(0, "tiny", ROOT / ".benchwork" / "tests")
    outcome = engines.check(engines.run(inputs), inputs, 0)
    assert outcome.failed == inputs[0]["count"] < outcome.attempted
    assert any("InvariantBreach" in note for note in outcome.notes)
