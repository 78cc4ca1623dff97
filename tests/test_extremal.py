"""Tests for exact subset-degree minimization and the bound-checking scan."""

import csv
import hashlib
import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import cayleydeg.extremal as extremal
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
from cayleydeg.graphs import (
    Graph,
    VertexSet,
    build_cayley,
    builtin_graph,
    induced_max_degree,
)
from cayleydeg.groups import (
    GeneratingSet,
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
    with pytest.raises(TypeError):  # the budget is keyword-only
        min_max_degree(X, 5, 10)


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


# ---------------------------------------------------------------------------
# reference heuristic and branch-and-bound: the from-scratch swap scoring and
# the recursive search, kept as oracles for the incremental and stack forms


def _reference_heuristic(X, s, seed=0, budget=10_000):
    """heuristic_search with every candidate swap scored from scratch."""
    rng = random.Random(seed)
    adj = X.adj_masks
    n = X.n

    def score(mask):
        top = 0
        total = 0
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            dv = (adj[v] & mask).bit_count()
            total += dv
            if dv > top:
                top = dv
            m ^= low
        return top, total

    evals = 0
    best_val = None
    best_mask = 0
    while evals < budget:
        members = rng.sample(range(n), s)
        mask = 0
        for v in members:
            mask |= 1 << v
        cur = score(mask)
        evals += 1
        if best_val is None or cur[0] < best_val:
            best_val, best_mask = cur[0], mask
        improved = True
        while improved and evals < budget:
            improved = False
            move_best = None
            move_mask = 0
            for u in range(n):
                if not (mask >> u) & 1:
                    continue
                without = mask & ~(1 << u)
                for w in range(n):
                    if (mask >> w) & 1:
                        continue
                    cand_mask = without | (1 << w)
                    cand = score(cand_mask)
                    evals += 1
                    if move_best is None or cand < move_best:
                        move_best = cand
                        move_mask = cand_mask
                    if evals >= budget:
                        break
                if evals >= budget:
                    break
            if move_best is not None and move_best < cur:
                mask, cur = move_mask, move_best
                improved = True
                if cur[0] < best_val:
                    best_val, best_mask = cur[0], mask
    return best_val, best_mask


def _recursive_bnb(X, s, target, node_budget=None):
    """branch_and_bound as a recursion: (status, witness mask, nodes)."""
    if s == 0:
        return "true", 0, 0
    adj = X.adj_masks
    n = X.n
    degs = [0] * n
    nodes = 0
    exhausted = False

    def rec(idx, count, mask):
        nonlocal nodes, exhausted
        if count == s:
            return mask
        if idx == n or count + (n - idx) < s:
            return None
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            return None
        nbrs = adj[idx] & mask
        newdeg = nbrs.bit_count()
        if newdeg <= target:
            ok = True
            bumped = []
            m = nbrs
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if degs[j] + 1 > target:
                    ok = False
                    break
                bumped.append(j)
                m ^= low
            if ok:
                for j in bumped:
                    degs[j] += 1
                degs[idx] = newdeg
                got = rec(idx + 1, count + 1, mask | (1 << idx))
                degs[idx] = 0
                for j in bumped:
                    degs[j] -= 1
                if got is not None:
                    return got
        if exhausted:
            return None
        return rec(idx + 1, count, mask)

    found = rec(0, 0, 0)
    if found is not None:
        return "true", found, nodes
    return ("undecided" if exhausted else "false"), None, nodes


HEURISTIC_BUDGETS = (1, 2, 3, 7, 50, 400, 1000)


def test_heuristic_matches_from_scratch_reference():
    # every (n, s) with n <= 40, three graphs each; the budgets cut the
    # search at the first evaluation, mid-sweep and after many restarts
    rng = random.Random(909)
    graphs = 0
    for n in range(1, 41):
        for s in range(1, n + 1):
            for k in range(3):
                X = _random_graph(rng, n)
                budget = HEURISTIC_BUDGETS[(n + s + k) % len(HEURISTIC_BUDGETS)]
                seed = rng.randrange(1 << 30)
                got = heuristic_search(X, s, seed=seed, budget=budget)
                f, mask = _reference_heuristic(X, s, seed=seed, budget=budget)
                assert got == extremal.ExtremalResult(
                    s, f, VertexSet(n, mask), "heuristic", False
                ), (n, s, budget, seed)
                graphs += 1
    assert graphs >= 2000


def _sample_counter(monkeypatch):
    """A list that grows by one for every random.Random.sample call."""
    calls = []
    sample = random.Random.sample

    def counted(self, *args, **kwargs):
        calls.append(args)
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "sample", counted)
    return calls


def test_heuristic_evaluates_the_only_subset_once(monkeypatch):
    calls = _sample_counter(monkeypatch)
    X = builtin_graph("petersen")
    for budget in (1, 2, 400, 10_000):
        calls.clear()
        res = heuristic_search(X, X.n, seed=5, budget=budget)
        assert len(calls) == 1
        assert (res.f_value, res.witness_subset.mask) == (3, (1 << X.n) - 1)


def test_degree_floor_never_exceeds_exact_f():
    graphs = [_oracle_graph(index, seed) for seed in range(3) for index in range(40)]
    graphs += [Graph(n, []) for n in (1, 2, 7)]
    graphs += [builtin_graph(f"complete:{m}") for m in (1, 2, 5, 9)]
    graphs += [builtin_graph(name) for name in ("petersen", "cycle:7", "q3")]
    for X in graphs:
        for s in range(1, X.n + 1):
            floor = extremal._degree_floor(X, s)
            f = min_max_degree(X, s).f_value
            assert 0 <= floor <= f, (X, s, floor, f)
        # both ends are exact: one vertex has degree 0, and at s = n the
        # only subset has the max degree of X
        assert extremal._degree_floor(X, 1) == 0
        assert extremal._degree_floor(X, X.n) == X.max_degree()
    for m in (1, 2, 5, 9):  # K_m: every s-subset induces K_s
        X = builtin_graph(f"complete:{m}")
        assert [extremal._degree_floor(X, s) for s in range(1, m + 1)] == list(range(m))


def test_heuristic_stops_at_the_degree_floor(monkeypatch):
    # every s-subset of an edgeless graph meets the floor 0, and every
    # s-subset of K_m the floor s - 1: the first subset drawn ends the search
    calls = _sample_counter(monkeypatch)
    for n in (1, 5, 12):
        for X, f in ((Graph(n, []), lambda s: 0), (builtin_graph(f"complete:{n}"), lambda s: s - 1)):
            for s in range(1, n + 1):
                calls.clear()
                res = heuristic_search(X, s, seed=3, budget=10_000)
                assert len(calls) == 1
                assert res.f_value == f(s) and res.witness_subset.size == s


# sha256 of "\n".join(oracle_agreement_suite(100, seed=0)): exact f, the
# branch-and-bound checks and every heuristic value h
ORACLE_100_SHA256 = "798c732d34f814766c59283af22ff34efc47b887560c873fb938178d6305ca6d"


def test_oracle_suite_lines_are_pinned(monkeypatch):
    calls = _sample_counter(monkeypatch)
    lines = oracle_agreement_suite(100, seed=0)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ORACLE_100_SHA256
    # the restarts the early stops leave: the suite passes the exact f as
    # the heuristic's lower bound (2,463 draws with the degree floor alone,
    # 16,735 with no early stop, every budget spent)
    assert len(calls) == 846


def _oracle_graph(index, seed=0):
    """The graph oracle_agreement_suite draws for one index."""
    rng = random.Random(f"{seed}:{index}")
    n = rng.randint(4, 12)
    p = rng.uniform(0.2, 0.7)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_branch_and_bound_matches_recursive_reference():
    for index in range(100):
        X = _oracle_graph(index)
        for s in range(X.n + 1):
            for target in range(s + 1):
                for node_budget in (None, 1, 2, 5, 17):
                    out = branch_and_bound(X, s, target, node_budget)
                    mask = None if out.witness is None else out.witness.mask
                    assert (out.status, mask, out.nodes) == _recursive_bnb(
                        X, s, target, node_budget
                    ), (index, s, target, node_budget)


def test_heuristic_lower_bound_at_f_changes_no_result():
    for index in range(60):
        X = _oracle_graph(index, seed=1)
        for s in range(1, X.n + 1):
            f = min_max_degree(X, s).f_value
            want = heuristic_search(X, s, seed=index, budget=400)
            assert heuristic_search(X, s, seed=index, budget=400, lower_bound=f) == want
            # any bound at or below f leaves the result as it is too
            assert heuristic_search(X, s, seed=index, budget=400, lower_bound=f // 2) == want
    rng = random.Random(411)
    for n in range(1, 15):
        for s in range(1, n + 1):
            X = _random_graph(rng, n)
            f = min_max_degree(X, s).f_value
            for budget in HEURISTIC_BUDGETS:
                seed = rng.randrange(1 << 30)
                got = heuristic_search(X, s, seed=seed, budget=budget, lower_bound=f)
                assert got == heuristic_search(X, s, seed=seed, budget=budget), (n, s, budget)


def test_heuristic_lower_bound_above_f_still_returns_a_real_subset(monkeypatch):
    calls = _sample_counter(monkeypatch)
    for index in range(30):
        X = _oracle_graph(index, seed=2)
        for s in range(1, X.n + 1):
            f = min_max_degree(X, s).f_value
            for bound in (f + 1, s - 1, s, 10**6):
                calls.clear()
                res = heuristic_search(X, s, seed=index, budget=400, lower_bound=bound)
                deg, _ = induced_max_degree(X, res.witness_subset)
                assert res.witness_subset.size == s and deg == res.f_value >= f
                if bound >= s - 1:  # every subset meets it: the first one drawn ends
                    assert len(calls) == 1


def _oracle_lines_with(monkeypatch, name, wrong):
    """The oracle lines of three graphs with extremal.<name> returning its
    result with the witness replaced by wrong(witness)."""
    import dataclasses

    engine = getattr(extremal, name)

    def patched(X, s, *args, **kwargs):
        res = engine(X, s, *args, **kwargs)
        return dataclasses.replace(res, witness_subset=wrong(res.witness_subset))

    monkeypatch.setattr(extremal, name, patched)
    return oracle_agreement_suite(3, seed=0)


@pytest.mark.parametrize("name, marker", [("heuristic_search", "HEURISTIC-BAD-WITNESS"),
                                          ("min_max_degree", "EXACT-BAD-WITNESS")])
def test_oracle_marks_a_witness_of_the_wrong_size(monkeypatch, name, marker):
    want = oracle_agreement_suite(3, seed=0)
    # one member short at every s, or all n vertices, which is right at s = n
    for wrong, right_at_n in ((lambda U: VertexSet(U.n, U.mask & (U.mask - 1)), False),
                              (lambda U: VertexSet.full(U.n), True)):
        lines = _oracle_lines_with(monkeypatch, name, wrong)
        monkeypatch.undo()
        assert len(lines) == len(want)
        for got, line in zip(lines, want):
            n = int(line.split()[1].removeprefix("n="))
            marks = [f" s={s} {marker}" for s in range(1, n if right_at_n else n + 1)]
            assert all(m in got for m in marks), got
            # nothing else in the line moves
            for m in marks:
                got = got.replace(m, "")
            assert got == line


def test_branch_and_bound_runs_past_the_recursion_limit():
    n = 1500
    out = branch_and_bound(Graph(n, []), n, 0)
    assert (out.status, out.witness.mask, out.nodes) == ("true", (1 << n) - 1, n)
    # the last vertex cannot join: every inclusion is undone, deepest first
    out = branch_and_bound(Graph(n, [(n - 2, n - 1)]), n, 0)
    assert out.status == "false" and out.witness is None


def test_heuristic_rejects_a_budget_below_one():
    X = builtin_graph("cycle:6")
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            heuristic_search(X, 4, budget=budget)


def _weakened(verify):
    """The scan's block entry with every report turned into a weak-bound failure."""
    import dataclasses

    def fake(G, sets, budget):
        return [dataclasses.replace(rep, weak_ok=False, margin=-1)
                for rep in verify(G, sets, budget)]

    return fake


def test_scan_violation_in_a_table_group_is_reverified(tmp_path, monkeypatch):
    import json

    import cayleydeg.extremal as extremal

    G = make_group({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})  # Z3, name "table"
    item = ("cayley", G, make_generating_set(G, [1, 2]))
    monkeypatch.setattr(extremal, "_verify_block", _weakened(extremal._verify_block))
    summary, csv_text = scan([item], violations_dir=tmp_path, jobs=1)
    assert summary.weak_failures == 1 and summary.errors == []
    record = json.loads((tmp_path / "violation_0000.json").read_text())
    assert record["graph"] == "table[1,2]"
    assert record["reverified"] is True
    assert record["reverified_degree"] == record["f"] == 1


def test_scan_errors_name_the_csv_label():
    G = make_group("q8")
    items = [("cayley", G, make_generating_set(G, [4, 5, 2, 3])), ("graph", "cycle:2")]
    summary, _ = scan(items, budget=1, jobs=1)
    assert summary.instances == 0
    assert summary.errors[0].startswith("q8[2,3,4,5]: ")
    # vertex 0 is fixed in a Cayley graph, so the count is C(7,4), not C(8,5)
    assert "C(7,4) = 35 subsets exceed the budget 1" in summary.errors[0]
    assert summary.errors[1].startswith("cycle:2: ")


BLOCK_GROUPS = [*iter_abelian_moduli(12), "s3", "q8", "dihedral:5"]


def _one_graph_results(G, sets):
    """(f, witness mask) of each set by min_max_degree on its built Cayley
    graph, which the uint32 table reference, sharing no code with the
    engine, confirms."""
    s = G.order // 2 + 1
    results = []
    for S in sets:
        X = build_cayley(G, S).graph
        res = min_max_degree(X, s, contains_zero=True)
        results.append((res.f_value, res.witness_subset.mask))
        assert results[-1] == _table_reference(X, s, True), (G.name, S)
    return results


@pytest.mark.parametrize("subsets_per_chunk", [None, 1, 5])
def test_block_kernel_matches_the_one_graph_engine(monkeypatch, subsets_per_chunk):
    # a block scores its sets on shared prefix sums; each set must get the
    # f and lex-least witness of its own graph.  The references are taken at
    # the default chunk size, one chunk for n <= 12, so a block that spans
    # several chunks must still keep each set's first minimizer (a <= across
    # chunks would keep a later one)
    rng = random.Random(2929)
    for spec in BLOCK_GROUPS:
        G = make_group(spec)
        sets = list(enumerate_symmetric_generating_sets(G))
        sample = rng.sample(sets, min(len(sets), 40))  # shuffled, not in walk order
        want = _one_graph_results(G, sample)
        if subsets_per_chunk is not None:
            monkeypatch.setattr(extremal, "_CHUNK_BYTES", subsets_per_chunk * G.order)
        reports = extremal._verify_block(G, sample, 10**8)
        monkeypatch.undo()
        assert [(r.f, r.witness.mask) for r in reports] == want, spec
        assert [r.label for r in reports] == [extremal._cayley_label(G, S) for S in sample]
        assert all(r.witness.size == G.order // 2 + 1 for r in reports)


def test_block_kernel_keeps_no_sum_between_sets():
    # sets whose sorted elements are prefixes of one another, a repeat, and
    # both orders: every set's degrees start again from the membership offset
    G = make_group("z2x2x2x2")
    elems = [[1], [1, 2], [1, 2, 3], [1, 2, 4], [1, 2, 3, 4], [3, 5], [1], [2, 4, 8, 15]]
    sets = [make_generating_set(G, e, allow_nongenerating=True) for e in elems]
    want = _one_graph_results(G, sets)
    for block in (sets, sets[::-1]):
        got = [(r.f, r.witness.mask) for r in extremal._verify_block(G, block, 10**8)]
        assert got == (want if block is sets else want[::-1])


def test_scan_blocks_give_every_worker_several_blocks():
    items = abelian_scan_items(16, 16, max_size=5)
    assert len(items) == 3888
    assert extremal._scan_blocks(items, 1) == [
        [it for it in items if it[1] is G] for G in dict.fromkeys(it[1] for it in items)
    ]
    blocks = extremal._scan_blocks(items, 2)
    assert [it for b in blocks for it in b] == items
    assert len(blocks) > 2 * 2  # more than two blocks per worker
    assert all(len(b) <= -(-3888 // 8) and len({id(it[1]) for it in b}) == 1 for b in blocks)
    z2_4 = [b for b in blocks if b[0][1].name == "z2x2x2x2"]
    assert sum(map(len, z2_4)) == 3528 and len(z2_4) > 2
    # a catalog graph is a block of its own, between the runs it cuts
    mixed = items[:3] + graph_scan_items(["petersen"]) + items[3:6]
    assert [len(b) for b in extremal._scan_blocks(mixed, 1)] == [3, 1, 3]


def test_a_refused_block_names_every_item_at_any_jobs():
    items = named_group_scan_items(["q8", "z6"]) + graph_scan_items(["cycle:2", "petersen"])
    s1, csv1 = scan(items, budget=1, jobs=1)
    s2, csv2 = scan(items, budget=1, jobs=2)
    assert (s1.errors, csv1) == (s2.errors, csv2)
    assert s1.instances == 0 and len(s1.errors) == len(items)
    for item, line in zip(items, s1.errors):
        label = extremal._cayley_label(item[1], item[2]) if item[0] == "cayley" else item[1]
        assert line.startswith(label + ": "), line
    # vertex 0 is fixed in a Cayley graph of z6, so the count is C(5,3)
    assert s1.errors[-3].endswith(": C(5,3) = 10 subsets exceed the budget 1; "
                                  "try branch_and_bound or heuristic_search")


def test_scan_items_carry_the_enumerated_set_and_scan_does_not_revalidate(monkeypatch):
    import cayleydeg.groups as groups

    def refuse(*args, **kwargs):
        raise AssertionError("make_generating_set called on the scan path")

    monkeypatch.setattr(groups, "make_generating_set", refuse)
    assert not hasattr(extremal, "make_generating_set")
    G = make_group("q8")
    items = named_group_scan_items(["q8"])
    sets = list(enumerate_symmetric_generating_sets(G))
    assert [S for _, _, S in items] == sets
    assert all(isinstance(S, GeneratingSet) for _, _, S in items)
    summary, csv_text = scan(items, jobs=1)
    assert summary.errors == [] and summary.instances == len(sets)
    labels = [row["graph"] for row in csv.DictReader(io.StringIO(csv_text))]
    assert labels == [f"q8[{','.join(map(str, S.sorted_elements()))}]" for S in sets]


# ---------------------------------------------------------------------------
# reference exhaustive engines: the uint32 mask array scored with a 16-bit
# popcount table (n <= 32), and lexicographic iteration over Python int masks;
# neither reads the neighbor slots the engine scores with


_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _table_reference(X, s, fix_zero):
    """(f, witness mask) from every s-subset as a uint32 mask, in lex order."""
    assert X.n <= 32
    if fix_zero:
        combos, base = itertools.combinations(range(1, X.n), s - 1), 1
    else:
        combos, base = itertools.combinations(range(X.n), s), 0
    subs = np.fromiter((base | sum(1 << v for v in c) for c in combos), dtype=np.uint32)
    best = np.full(len(subs), -1, dtype=np.int32)
    for v in range(X.n):
        hit = subs & np.uint32(X.adj_masks[v])
        deg = (_POP16[hit & 0xFFFF] + _POP16[(hit >> 16) & 0xFFFF]).astype(np.int32)
        in_u = ((subs >> np.uint32(v)) & 1).astype(bool)
        np.maximum(best, np.where(in_u, deg, -1), out=best)
    f = int(best.min())
    return f, int(subs[int(np.argmax(best == f))])


def _loop_reference(X, s, fix_zero):
    """(f, witness mask) by a Python loop over the s-subsets in lex order."""
    combos = (
        ((0,) + c for c in itertools.combinations(range(1, X.n), s - 1))
        if fix_zero
        else itertools.combinations(range(X.n), s)
    )
    best, best_mask = None, 0
    for c in combos:
        mask = sum(1 << v for v in c)
        top = max((X.adj_masks[v] & mask).bit_count() for v in c)
        if best is None or top < best:
            best, best_mask = top, mask
    return best, best_mask


def _random_graph(rng, n):
    p = rng.uniform(0.1, 0.7)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _engine(X, s, fix_zero):
    res = min_max_degree(X, s, contains_zero=fix_zero)
    return res.f_value, res.witness_subset.mask


def test_exhaustive_matches_table_reference():
    rng = random.Random(515)
    for n in range(1, 21):
        X = _random_graph(rng, n)
        for s in range(1, n + 1):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _table_reference(X, s, fix_zero), (n, s)


def test_exhaustive_matches_loop_reference_on_wide_graphs():
    # n > 64: masks of more than one 64-bit word
    rng = random.Random(616)
    for n, s_max in [(n, 4) for n in range(33, 41)] + [(n, 3) for n in range(65, 71)]:
        X = _random_graph(rng, n)
        for s in range(1, s_max + 1):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _loop_reference(X, s, fix_zero), (n, s)


def _cayley_instances(rng, specs, per_group):
    """Seeded Cayley graphs: per group, random symmetric sets (generating or
    not) of one to six inverse classes, so some need two slot batches."""
    out = []
    for spec in specs:
        G = make_group(spec)
        for _ in range(per_group):
            elems = set()
            for _ in range(rng.randint(1, 6)):
                g = rng.randrange(1, G.order)
                elems |= {g, G.inv(g)}
            out.append(build_cayley(G, make_generating_set(G, elems, allow_nongenerating=True)))
    return out


def test_exhaustive_matches_the_references_on_cayley_graphs():
    # the engine scores a Cayley graph on its translation rows, cyclic
    # products and table groups alike
    rng = random.Random(727)
    specs = ["z6", "z2x2x2", "z4x2", "z3x3", "z12", "z2x2x2x2", "z4x4", "z8x2", "z15",
             "dihedral:3", "dihedral:4", "dihedral:6", "dihedral:8", "q8"]
    dense = [build_cayley(G, make_generating_set(G, elems)) for G, elems in [
        (make_group("z4x4"), range(1, 16)),
        (make_group("dihedral:8"), range(1, 16)),
        (make_group("z2x2x2x2"), range(1, 11)),
    ]]
    for C in _cayley_instances(rng, specs, 3) + dense:
        X = C.graph
        assert X.neighbor_slots() is not None and X.neighbor_slots().shape == (C.gens.size, X.n)
        for s in range(1, X.n + 1):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _table_reference(X, s, fix_zero), (C.group.name, s)
    # sym:4 has 24 vertices: the subset sizes whose C(n, s) stays small
    for C in _cayley_instances(rng, ["sym:4"], 3):
        X = C.graph
        for s in (1, 2, 3, 21, 22, 23, 24):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _loop_reference(X, s, fix_zero), s


def test_exhaustive_matches_the_references_on_graphs_with_isolated_vertices():
    # a vertex of lower degree reads the zero row through its padded slots
    rng = random.Random(838)
    for n in range(2, 15):
        isolated = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
        p = rng.uniform(0.2, 0.9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if u not in isolated and v not in isolated and rng.random() < p]
        X = Graph(n, edges)
        slots = X.neighbor_slots()
        assert slots.shape == (max(X.max_degree(), 1), n) and not slots.flags.writeable
        assert all(slots[:, v].tolist() == [n] * slots.shape[0] for v in isolated)
        for s in range(1, n + 1):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _table_reference(X, s, fix_zero), (n, s)


@pytest.mark.parametrize("length", [1, 7, 64])
def test_lex_least_witness_survives_chunk_boundaries(monkeypatch, length):
    rng = random.Random(length)
    graphs = [Graph(7, []), builtin_graph("cycle:9"), builtin_graph("petersen")]
    graphs += [_random_graph(rng, n) for n in (8, 10, 11)]
    for X in graphs:
        # chunks of exactly `length` subsets: one membership byte per vertex each
        monkeypatch.setattr(extremal, "_CHUNK_BYTES", length * X.n)
        for s in range(1, X.n + 1):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _table_reference(X, s, fix_zero)
    X = _random_graph(rng, 66)
    monkeypatch.setattr(extremal, "_CHUNK_BYTES", length * X.n)
    for s in (1, 2):
        for fix_zero in (False, True):
            assert _engine(X, s, fix_zero) == _loop_reference(X, s, fix_zero)


def test_exhaustive_memory_is_bounded_by_the_chunk(monkeypatch):
    rng = random.Random(24)
    X = _random_graph(rng, 24)
    G = make_group("z24")
    # a block of three sets whose sorted elements share leading terms
    sets = [make_generating_set(G, elems) for elems in ([1, 23, 2, 22], [1, 23, 3, 21],
                                                        [2, 22, 3, 21, 1, 23])]
    runs = {
        "graph": lambda: _engine(X, 13, True),
        "block": lambda: [(r.f, r.witness.mask) for r in extremal._verify_block(G, sets, 10**8)],
    }
    expect = {
        "graph": runs["graph"](),
        "block": [_engine(build_cayley(G, S).graph, 13, True) for S in sets],
    }
    full_array = math.comb(23, 12) * 8  # every mask as one uint64
    monkeypatch.setattr(extremal, "_CHUNK_BYTES", 1 << 16)
    for name, run in runs.items():
        extremal._subset_chunk.cache_clear()
        tracemalloc.start()
        try:
            got = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            extremal._subset_chunk.cache_clear()
        assert got == expect[name], name
        assert peak < full_array / 8, (name, peak, full_array)


def test_runs_longer_than_the_chunk_cache_bypass_it():
    # a cold n = 24 run streams about 250 chunks: cached, they would evict the
    # one chunk of the n = 16 run and keep 128 of their own alive
    rng = random.Random(24)
    small, X = _random_graph(rng, 16), _random_graph(rng, 24)
    extremal._subset_chunk.cache_clear()
    try:
        _engine(small, 9, True)
        tracemalloc.start()
        try:
            _engine(X, 13, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        before = extremal._subset_chunk.cache_info()
        _engine(small, 9, True)
        after = extremal._subset_chunk.cache_info()
    finally:
        extremal._subset_chunk.cache_clear()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert peak < 4 << 20, peak


def test_the_oracle_suite_fits_the_chunk_caches():
    # 72 single-chunk (n, s) keys: each is built once and then only reused
    extremal._subset_chunk.cache_clear()
    extremal._rank_table.cache_clear()
    try:
        oracle_agreement_suite(100, seed=0)
        chunks, tables = extremal._subset_chunk.cache_info(), extremal._rank_table.cache_info()
    finally:
        extremal._subset_chunk.cache_clear()
        extremal._rank_table.cache_clear()
    assert chunks.misses == tables.misses == 72


def test_exhaustive_refuses_totals_past_int64(monkeypatch):
    def no_work(*args):
        raise AssertionError("subsets were enumerated")

    monkeypatch.setattr(extremal, "_subset_chunk", no_work)
    X = Graph(70, [])
    assert math.comb(69, 34) > 2**63 - 1
    for fix_zero in (False, True):
        with pytest.raises(BudgetExceeded, match="int64"):
            min_max_degree(X, 35, budget=10**30, contains_zero=fix_zero)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and maps in this process, so no pool is ever started."""

    asked: list[int] = []

    def __init__(self, max_workers):
        _InlineExecutor.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, count, cpus, workers",
    [(100_000, 5, 2, 2), (100_000, 3, 64, 3), (4, 100, 64, 4), (8, 100, None, 1)],
)
def test_parallel_map_starts_at_most_one_worker_per_item_and_cpu(
    monkeypatch, jobs, count, cpus, workers
):
    import concurrent.futures

    from cayleydeg import _parallel

    _InlineExecutor.asked = []
    # parallel_map imports the executor when its pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cpus)
    assert _parallel.parallel_map(abs, range(-count, 0), jobs=jobs) == list(range(count, 0, -1))
    assert _InlineExecutor.asked == [workers]
