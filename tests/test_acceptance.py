"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 2, 6, and 7 also back the determinism criterion, so their
single-process results are computed once in module fixtures and reused.
"""

import csv
import hashlib
import io
import json
import math
import random

import pytest

from cayleydeg.cli import main
from cayleydeg.extremal import (
    abelian_scan_items,
    graph_scan_items,
    named_group_scan_items,
    oracle_agreement_suite,
    scan,
)
from cayleydeg.graphs import (
    counterexample_checks,
    counterexample_graph,
    induced_max_degree,
)
from cayleydeg.signing import huang_signing, spectrum, verify_signing
from cayleydeg.witness import cover_counts, cover_shift, random_witness_suite

SCAN_GROUPS = ["s3", "d4", "q8", "d5", "a4"]

# sha256 of the criterion 1 CSV (35,277 rows), which every engine change must
# reproduce byte for byte
CRITERION_1_SHA256 = "d8e4b34400c5152ec323b20f273e46aa70f8e4faef8677657e8bd1d4bcfd6fab"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


@pytest.fixture(scope="module")
def witness_lines_j1():
    return random_witness_suite(count=1000, seed=0, jobs=1)


@pytest.fixture(scope="module")
def oracle_lines_j1():
    return oracle_agreement_suite(count=100, seed=0, jobs=1)


def _scan7_items():
    return named_group_scan_items(SCAN_GROUPS) + graph_scan_items(["petersen"])


@pytest.fixture(scope="module")
def scan7_j1(tmp_path_factory):
    vdir = tmp_path_factory.mktemp("violations_j1")
    summary, csv_text = scan(_scan7_items(), violations_dir=vdir, jobs=1)
    return summary, csv_text, vdir


def test_criterion_1_abelian_exhaustive_bound():
    # every cyclic-product group of order <= 16, every symmetric generating
    # set: exact f from subsets through vertex 0 satisfies 2 f^2 >= |S| + t
    items = abelian_scan_items(16)
    summary, csv_text = scan(items, jobs=1)
    rows = _rows(csv_text)
    strong_failures = sum(1 for r in rows if r["strong_ok"] == "0")
    ok = (
        summary.instances == len(items)
        and len(rows) == len(items)
        and not summary.errors
        and summary.weak_failures == 0
        and strong_failures == 0
        and all(r["strong_ok"] == "1" for r in rows)
        and hashlib.sha256(csv_text.encode()).hexdigest() == CRITERION_1_SHA256
    )
    _report(1, ok, f"{len(rows)} instances, 0 violations of 2f^2 >= |S|+t")


def test_criterion_2_witness_suite(witness_lines_j1):
    lines = witness_lines_j1
    ok = len(lines) == 1000 and all(line.endswith("ok") for line in lines)
    _report(2, ok, "1000 random instances certified with exact integer checks")


def test_criterion_3_covering_identities():
    checked = 0
    for i in range(1000):
        rng = random.Random(f"cover:{i}")
        d = rng.randint(1, 4)
        moduli = [rng.randint(2, 6) for _ in range(d)]
        n = math.prod(moduli)
        U = rng.sample(range(n), n // 2 + 1)
        counts = cover_counts(moduli, U)
        assert int(counts.sum()) == (1 << d) * len(U), (moduli, U)
        r, best = cover_shift(moduli, U)
        assert best == int(counts[r])
        assert best > 1 << (d - 1), (moduli, U)
        checked += 1
    _report(3, checked == 1000, "1000 instances: box identity exact, best shift above half")


def test_criterion_4_counterexample_family():
    bad = []
    for n in range(1, 101):
        inst = counterexample_graph(n)
        X = inst.graph
        checks = counterexample_checks(inst)
        deg, _ = induced_max_degree(X, inst.subset)
        good = (
            X.is_regular()
            and X.degree(0) == n + 1
            and checks["bipartite"]
            and inst.subset.size == X.n // 2 + 1
            and deg == 1
            and checks["bound_violated"] == (n >= 2)
        )
        if not good:
            bad.append(n)
    _report(4, not bad, "n=1..100 all regular bipartite with induced degree 1" if not bad else f"failing n: {bad}")


def test_criterion_5_recursive_signing():
    verify_ok = all(verify_signing(huang_signing(n), n) for n in range(1, 11))
    spectra_ok = True
    for n in range(1, 7):
        spec = spectrum(huang_signing(n))
        root = math.sqrt(n)
        if any(abs(abs(e) - root) > 1e-9 for e in spec.eigenvalues):
            spectra_ok = False
        half = 1 << (n - 1)
        if sum(1 for e in spec.eigenvalues if e < 0) != half:
            spectra_ok = False
    _report(5, verify_ok and spectra_ok,
            "M^2 = nI exact for n <= 10; eigenvalues +-sqrt(n) for n <= 6")


def test_criterion_6_engine_agreement(oracle_lines_j1):
    lines = oracle_lines_j1
    markers = ("MISMATCH", "BAD-WITNESS", "HEURISTIC-BELOW-EXACT")
    bad = [line for line in lines if any(m in line for m in markers)]
    ok = len(lines) == 100 and not bad
    _report(6, ok, "100 random graphs, all thresholds: decisions agree, heuristic never below f")


def test_criterion_7_scan_with_finding(scan7_j1, tmp_path):
    summary, csv_text, vdir = scan7_j1
    rows = _rows(csv_text)
    items = _scan7_items()

    pet = [r for r in rows if r["graph"] == "petersen"]
    named = [r for r in rows if r["graph"] != "petersen"]
    record = json.loads((vdir / "violation_0000.json").read_text())

    # the CLI must exit 1 on the same scan and re-verify the finding
    out_csv = tmp_path / "scan.csv"
    rc = main([
        "--jobs", "1", "scan",
        "--groups", ",".join(SCAN_GROUPS),
        "--graph", "petersen",
        "--out", str(out_csv),
        "--violations-dir", str(tmp_path / "v"),
    ])
    cli_record = json.loads((tmp_path / "v" / "violation_0000.json").read_text())

    ok = (
        summary.instances == len(items)
        and not summary.errors
        and summary.weak_failures == 1
        and len(pet) == 1
        and pet[0]["f"] == "1"
        and pet[0]["s"] == "6"
        and pet[0]["margin"] == "-1"
        and all(r["weak_ok"] == "1" for r in named)
        and record["reverified"] is True
        and record["subset"] == [0, 1, 3, 7, 8, 9]
        and rc == 1
        and out_csv.exists()
        and cli_record == record
    )
    _report(7, ok, f"{len(items)} instances scanned; Petersen margin -1 found, re-verified, exit 1")


def test_criterion_8_determinism(witness_lines_j1, oracle_lines_j1, scan7_j1, tmp_path):
    witness_j8 = random_witness_suite(count=1000, seed=0, jobs=8)
    oracle_j8 = oracle_agreement_suite(count=100, seed=0, jobs=8)
    _, csv_j1, _ = scan7_j1
    vdir = tmp_path / "violations_j8"
    _, csv_j8 = scan(_scan7_items(), violations_dir=vdir, jobs=8)

    same_witness = "\n".join(witness_lines_j1).encode() == "\n".join(witness_j8).encode()
    same_oracle = "\n".join(oracle_lines_j1).encode() == "\n".join(oracle_j8).encode()
    same_scan = csv_j1.encode() == csv_j8.encode()
    _report(8, same_witness and same_oracle and same_scan,
            "criteria 2, 6, 7 reports byte-identical with --jobs 1 and --jobs 8")
