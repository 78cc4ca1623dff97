"""Tests for exact subset-degree minimization and the bound-checking scan."""

import itertools
import random

import pytest

from cayleydeg.errors import BudgetExceeded
from cayleydeg.extremal import (
    abelian_scan_items,
    branch_and_bound,
    graph_scan_items,
    heuristic_search,
    iter_abelian_moduli,
    min_max_degree,
    named_group_scan_items,
    oracle_agreement_suite,
    scan,
    verify_conjecture,
)
from cayleydeg.graphs import Graph, build_cayley, builtin_graph, induced_max_degree
from cayleydeg.groups import (
    enumerate_symmetric_generating_sets,
    make_generating_set,
    make_group,
)


def _brute_force_f(X, s):
    """Reference: scan every size-s subset with no translation shortcut."""
    best = None
    arg = None
    for comb in itertools.combinations(range(X.n), s):
        deg, _ = induced_max_degree(X, comb)
        if best is None or deg < best:
            best, arg = deg, comb
    return best, list(arg)


def test_min_max_degree_frozen_cycles():
    C5 = builtin_graph("cycle:5")
    res = min_max_degree(C5, 3)
    assert res.f_value == 1
    assert res.witness_subset.members() == [0, 1, 3]
    assert res.optimal

    C4 = builtin_graph("cycle:4")
    assert min_max_degree(C4, 3).f_value == 2


def test_min_max_degree_frozen_hypercube():
    G = make_group([2, 2, 2])
    S = make_generating_set(G, [1, 2, 4])
    X = build_cayley(G, S).graph
    res = min_max_degree(X, 5)
    assert res.f_value == 2
    assert res.witness_subset.members() == [0, 1, 2, 5, 6]


def test_min_max_degree_frozen_petersen():
    res = min_max_degree(builtin_graph("petersen"), 6)
    assert res.f_value == 1
    # an induced 3-matching on 6 of the 10 vertices
    assert res.witness_subset.members() == [0, 1, 3, 7, 8, 9]


def test_min_max_degree_complete_graph():
    X = builtin_graph("complete:6")
    for s in range(1, 7):
        assert min_max_degree(X, s).f_value == s - 1


def test_min_max_degree_matches_brute_force():
    rng = random.Random(606)
    for _ in range(15):
        n = rng.randint(4, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        X = Graph(n, edges)
        s = rng.randint(1, n)
        expect, _ = _brute_force_f(X, s)
        res = min_max_degree(X, s)
        assert res.f_value == expect
        deg, _ = induced_max_degree(X, res.witness_subset)
        assert deg == res.f_value


def test_witness_is_lexicographically_least():
    # among optimal subsets the reported one must be lex-least
    rng = random.Random(21)
    for _ in range(8):
        n = rng.randint(4, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        X = Graph(n, edges)
        s = n // 2 + 1
        res = min_max_degree(X, s)
        best = [
            comb
            for comb in itertools.combinations(range(n), s)
            if induced_max_degree(X, comb)[0] == res.f_value
        ]
        assert res.witness_subset.members() == list(min(best))


def test_translation_reduction_is_exact():
    # for vertex-transitive graphs, restricting to subsets through vertex 0
    # does not change the minimum
    for spec, gens in [("z7", [1, 6]), ("z8", [1, 7, 4]), ("z3x3", [1, 2, 3, 6])]:
        G = make_group(spec)
        S = make_generating_set(G, gens)
        X = build_cayley(G, S).graph
        s = G.order // 2 + 1
        full = min_max_degree(X, s)
        fixed = min_max_degree(X, s, contains_zero=True)
        assert full.f_value == fixed.f_value
        assert 0 in fixed.witness_subset


def test_subset_budget_enforced():
    X = builtin_graph("petersen")
    with pytest.raises(BudgetExceeded):
        min_max_degree(X, 5, budget=10)


def test_branch_and_bound_statuses():
    C5 = builtin_graph("cycle:5")
    yes = branch_and_bound(C5, 3, 1)
    assert yes.status == "true"
    deg, _ = induced_max_degree(C5, yes.witness)
    assert deg <= 1
    assert branch_and_bound(C5, 3, 0).status == "false"
    tiny = branch_and_bound(builtin_graph("petersen"), 6, 0, node_budget=3)
    assert tiny.status == "undecided"


def test_branch_and_bound_matches_exhaustive():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(4, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.uniform(0.2, 0.7)
        ]
        X = Graph(n, edges)
        s = rng.randint(1, n)
        f = min_max_degree(X, s).f_value
        for target in range(s):
            out = branch_and_bound(X, s, target)
            assert out.status == ("true" if f <= target else "false")
            if out.status == "true":
                assert out.witness.size == s
                deg, _ = induced_max_degree(X, out.witness)
                assert deg <= target


def test_heuristic_never_beats_exact():
    rng = random.Random(3)
    for trial in range(10):
        n = rng.randint(5, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        X = Graph(n, edges)
        s = n // 2 + 1
        exact = min_max_degree(X, s).f_value
        approx = heuristic_search(X, s, seed=trial, budget=300)
        assert approx.f_value >= exact
        assert not approx.optimal
        deg, _ = induced_max_degree(X, approx.witness_subset)
        assert deg == approx.f_value


def test_verify_conjecture_tight_cycle():
    G = make_group([5])
    S = make_generating_set(G, [1, 4])
    rep = verify_conjecture(G, S)
    assert rep.f == 1
    assert rep.margin == 0 and rep.tight
    assert rep.weak_ok and rep.strong_ok
    assert rep.label == "z5[1,4]"


def test_verify_conjecture_strong_only_for_abelian():
    G = make_group("d4")
    S = make_generating_set(G, [1, 3, 4])
    rep = verify_conjecture(G, S)
    assert rep.strong_ok is None
    assert rep.weak_ok


def test_iter_abelian_moduli():
    mods = iter_abelian_moduli(8)
    assert (2,) in mods and (8,) in mods
    assert (4, 2) in mods and (2, 2, 2) in mods
    assert (2, 4) not in mods  # canonical form is non-increasing
    assert all(2 <= min(m) for m in mods)
    # ordered by group order, then lexicographically
    orders = [1 for m in mods]
    import math

    sizes = [math.prod(m) for m in mods]
    assert sizes == sorted(sizes)


def test_scan_small_abelian_family():
    items = abelian_scan_items(6)
    summary, csv_text = scan(items, jobs=1)
    assert summary.instances == len(items) == 21
    assert summary.weak_failures == 0
    assert summary.min_margin == 0  # tight instances exist, no violations
    lines = csv_text.strip().split("\n")
    assert lines[0] == "graph,n,regularity,s,f,method,weak_ok,strong_ok,margin,witness"
    assert len(lines) == 22


def test_scan_petersen_reports_violation(tmp_path):
    import json

    summary, csv_text = scan(
        graph_scan_items(["petersen"]), violations_dir=tmp_path, jobs=1
    )
    assert summary.instances == 1
    assert summary.weak_failures == 1
    assert summary.min_margin == -1
    record = json.loads((tmp_path / "violation_0000.json").read_text())
    assert record["reverified"] is True
    assert record["subset"] == [0, 1, 3, 7, 8, 9]
    assert record["f"] == 1


def test_scan_jobs_do_not_change_output():
    items = named_group_scan_items(["s3", "q8"]) + graph_scan_items(["petersen"])
    s1, csv1 = scan(items, jobs=1)
    s2, csv2 = scan(items, jobs=4)
    assert csv1 == csv2
    assert s1.weak_failures == s2.weak_failures == 1


def test_named_group_scan_enumerates_all_sets():
    G = make_group("q8")
    expected = sum(1 for _ in enumerate_symmetric_generating_sets(G))
    items = named_group_scan_items(["q8"])
    assert len(items) == expected
    # items carry the group object itself, not its name
    assert all(kind == "cayley" and H is items[0][1] for kind, H, _ in items)
    assert items[0][1].name == "q8"


def test_oracle_agreement_suite_runs():
    lines = oracle_agreement_suite(count=6, seed=0, jobs=1)
    assert len(lines) == 6
    assert lines == oracle_agreement_suite(count=6, seed=0, jobs=2)
    assert all(line.startswith("g=") and " f=" in line for line in lines)


def test_heuristic_rejects_a_budget_below_one():
    X = builtin_graph("cycle:6")
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            heuristic_search(X, 4, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            min_max_degree(X, 4, method="heuristic", budget=budget)


def _weakened(verify):
    """verify_conjecture with every report turned into a weak-bound failure."""
    import dataclasses

    def fake(G, S, budget=10**8):
        rep = verify(G, S, budget=budget)
        return dataclasses.replace(rep, weak_ok=False, margin=-1)

    return fake


def test_scan_violation_in_a_table_group_is_reverified(tmp_path, monkeypatch):
    import json

    import cayleydeg.extremal as extremal

    G = make_group({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})  # Z3, name "table"
    monkeypatch.setattr(extremal, "verify_conjecture", _weakened(extremal.verify_conjecture))
    summary, csv_text = scan([("cayley", G, (1, 2))], violations_dir=tmp_path, jobs=1)
    assert summary.weak_failures == 1 and summary.errors == []
    record = json.loads((tmp_path / "violation_0000.json").read_text())
    assert record["graph"] == "table[1,2]"
    assert record["reverified"] is True
    assert record["reverified_degree"] == record["f"] == 1


def test_scan_errors_name_the_csv_label():
    G = make_group("q8")
    summary, _ = scan([("cayley", G, (1, 2)), ("graph", "cycle:2")], jobs=1)
    assert summary.instances == 0
    assert summary.errors[0].startswith("q8[1,2]: set is not symmetric")
    assert summary.errors[1].startswith("cycle:2: ")
