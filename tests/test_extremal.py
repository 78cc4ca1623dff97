"""Tests for exact subset-degree minimization and the bound-checking scan."""

import csv
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
from cayleydeg.graphs import Graph, build_cayley, builtin_graph, induced_max_degree
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


def test_heuristic_rejects_a_budget_below_one():
    X = builtin_graph("cycle:6")
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            heuristic_search(X, 4, budget=budget)


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
    item = ("cayley", G, make_generating_set(G, [1, 2]))
    monkeypatch.setattr(extremal, "verify_conjecture", _weakened(extremal.verify_conjecture))
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
# popcount table (n <= 32), and lexicographic iteration over Python int masks


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
    # n > 64 needs two 64-bit words per mask
    rng = random.Random(616)
    for n, s_max in [(n, 4) for n in range(33, 41)] + [(n, 3) for n in range(65, 71)]:
        X = _random_graph(rng, n)
        for s in range(1, s_max + 1):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _loop_reference(X, s, fix_zero), (n, s)


@pytest.mark.parametrize("length", [1, 7, 64])
def test_lex_least_witness_survives_chunk_boundaries(monkeypatch, length):
    rng = random.Random(length)
    graphs = [Graph(7, []), builtin_graph("cycle:9"), builtin_graph("petersen")]
    graphs += [_random_graph(rng, n) for n in (8, 10, 11)]
    for X in graphs:
        # chunks of exactly `length` subsets: one 8-byte word per vertex each
        monkeypatch.setattr(extremal, "_CHUNK_BYTES", length * 8 * X.n)
        for s in range(1, X.n + 1):
            for fix_zero in (False, True):
                assert _engine(X, s, fix_zero) == _table_reference(X, s, fix_zero)
    X = _random_graph(rng, 66)
    monkeypatch.setattr(extremal, "_CHUNK_BYTES", length * 8 * 2 * X.n)
    for s in (1, 2):
        for fix_zero in (False, True):
            assert _engine(X, s, fix_zero) == _loop_reference(X, s, fix_zero)


def test_exhaustive_memory_is_bounded_by_the_chunk(monkeypatch):
    rng = random.Random(24)
    X = _random_graph(rng, 24)
    expect = _engine(X, 13, True)
    full_array = math.comb(23, 12) * 8  # every mask as one uint64
    monkeypatch.setattr(extremal, "_CHUNK_BYTES", 1 << 16)
    extremal._subset_chunk.cache_clear()
    tracemalloc.start()
    try:
        got = _engine(X, 13, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        extremal._subset_chunk.cache_clear()
    assert got == expect
    assert peak < full_array / 8, (peak, full_array)


def test_runs_longer_than_the_chunk_cache_bypass_it():
    # a cold n = 24 run streams about 250 chunks: cached, they would evict the
    # one chunk of the n = 16 run and keep 64 of their own alive
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


def test_exhaustive_refuses_totals_past_int64(monkeypatch):
    def no_work(*args):
        raise AssertionError("subsets were enumerated")

    monkeypatch.setattr(extremal, "_subset_chunk", no_work)
    X = Graph(70, [])
    assert math.comb(69, 34) > 2**63 - 1
    for fix_zero in (False, True):
        with pytest.raises(BudgetExceeded, match="int64"):
            min_max_degree(X, 35, budget=10**30, contains_zero=fix_zero)
