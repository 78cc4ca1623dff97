"""Tests for group construction, validation, and generating sets."""

import hashlib
import json
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest

from cayleydeg import groups
from cayleydeg.errors import BudgetExceeded
from cayleydeg.groups import (
    FiniteGroup,
    element_order,
    enumerate_symmetric_generating_sets,
    make_generating_set,
    make_group,
    parse_group_spec,
)

# Latin square with identity and two-sided inverses that is not associative:
# (1*2)*3 = 4 but 1*(2*3) = 2.  Order five, found by exhaustive search.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_cyclic_product_basics():
    G = make_group([4, 2])
    assert G.order == 8
    assert G.name == "z4x2"
    assert G.identity == 0
    assert G.is_abelian
    # encode puts the first modulus in the most significant position
    assert G.encode([1, 0]) == 2
    assert G.decode(3) == (1, 1)
    assert G.mul(G.encode([3, 1]), G.encode([2, 1])) == G.encode([1, 0])
    assert G.inv(G.encode([1, 1])) == G.encode([3, 1])


def test_cyclic_product_rejects_bad_moduli():
    with pytest.raises(ValueError, match="need at least one modulus"):
        make_group([])
    with pytest.raises(ValueError):
        make_group([4, 1])
    with pytest.raises(ValueError):
        make_group([0])


def test_group_axioms_hold_for_builtins():
    for spec in ["z6", "z2x2x2", "d4", "s3", "q8", "a4"]:
        G = make_group(spec)
        e = G.identity
        for a in G.elements():
            assert G.mul(a, e) == a
            assert G.mul(e, a) == a
            assert G.mul(a, G.inv(a)) == e
            assert G.mul(G.inv(a), a) == e


def test_associativity_exhaustive_small():
    G = make_group("d4")
    for a in G.elements():
        for b in G.elements():
            for c in G.elements():
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_nonassociative_loop_rejected():
    # passes the Latin / identity / inverse layers, dies on associativity
    with pytest.raises(ValueError, match="associat"):
        make_group({"table": NONASSOC_LOOP})


def _nonassociative_triples(t):
    """Every (a, b, c) with (a*b)*c != a*(b*c), by brute force."""
    n = len(t)
    return {
        (a, b, c)
        for a in range(n) for b in range(n) for c in range(n)
        if t[t[a][b]][c] != t[a][t[b][c]]
    }


def _switch_intercalate(t, r1, r2, c1, c2):
    """Swap the entries of the 2x2 Latin subsquare at rows r1, r2 and
    columns c1, c2 (t[r1][c1] = t[r2][c2] and t[r1][c2] = t[r2][c1])."""
    t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
    t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]


def _reported_triple(err):
    """The (a,s,c) named by a non-associativity error."""
    return tuple(map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(err.value)).groups()))


def test_switched_intercalate_in_a_large_cyclic_table_is_rejected():
    # Z_300 with one intercalate switched: thousands of non-associative
    # triples among 27 million, so a sample of triples can miss them all
    n = 300
    t = [[(a + b) % n for b in range(n)] for a in range(n)]
    _switch_intercalate(t, 1, 151, 6, 156)
    with pytest.raises(ValueError, match="associat") as err:
        make_group({"table": t})
    a, s, c = _reported_triple(err)
    assert t[t[a][s]][c] != t[a][t[s][c]]


def test_light_test_matches_a_brute_force_oracle():
    # loops of order 2..9: a group table under a random relabelling that
    # fixes the identity, with up to two intercalates switched away from
    # row and column 0 (which keeps a Latin square with identity 0)
    from cayleydeg.groups import _check_associative

    bases = [f"z{n}" for n in range(2, 10)] + ["z2x2", "z2x4", "z2x2x2", "z3x3",
                                                 "d3", "d4", "q8"]
    tables = {}
    for spec in bases:
        G = make_group(spec)
        tables[spec] = G.translations(range(G.order)).tolist()
    rng = random.Random(20200329)
    loops, nonassoc = 1500, 0
    for trial in range(loops):
        base = tables[rng.choice(bases)]
        n = len(base)
        perm = [0] + rng.sample(range(1, n), n - 1)
        inv = {p: i for i, p in enumerate(perm)}
        t = [[perm[base[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
        for _ in range(rng.randint(0, 2)):
            quads = [
                (r1, r2, c1, c2)
                for r1 in range(1, n) for r2 in range(r1 + 1, n)
                for c1 in range(1, n) for c2 in range(c1 + 1, n)
                if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]
            ]
            if quads:
                _switch_intercalate(t, *rng.choice(quads))
        bad = _nonassociative_triples(t)
        if not bad:
            _check_associative(np.array(t))
            assert make_group({"table": t}).order == n
            continue
        nonassoc += 1
        with pytest.raises(ValueError, match="not associative") as err:
            _check_associative(np.array(t))
        assert _reported_triple(err) in bad, t
        with pytest.raises(ValueError):
            make_group({"table": t})
    assert 100 <= nonassoc <= loops - 100, nonassoc


def test_table_validation_errors():
    with pytest.raises(ValueError):
        make_group({"table": [[0, 1], [0, 1]]})  # repeated row entry column-wise
    with pytest.raises(ValueError):
        make_group({"table": [[1, 0], [0, 1]]})  # identity not at index 0
    with pytest.raises(ValueError):
        make_group({"table": [[0, 1, 2], [1, 2, 0]]})  # not square


def test_table_entry_errors_name_the_first_bad_entry():
    from cayleydeg.groups import _validate_table

    z5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]

    def with_entry(i, j, v):
        t = [list(row) for row in z5]
        t[i][j] = v
        return t

    cases = [
        (with_entry(2, 3, -1), "table entry -1 in row 2 is out of range"),
        (with_entry(1, 4, 5), "table entry 5 in row 1 is out of range"),
        (with_entry(3, 0, 3.0), "table entry 3.0 in row 3 is out of range"),
        (with_entry(4, 2, 2**70), f"table entry {2**70} in row 4 is out of range"),
        (with_entry(4, 4, np.int64(3)), "table entry np.int64(3) in row 4 is out of range"),
        # the last row of a larger table: the loop runs only on the error path
        ([[(i + j) % 300 for j in range(300)] for i in range(299)] + [[0] * 299 + [300]],
         "table entry 300 in row 299 is out of range"),
        # rows are checked in order: a bad entry before a short row, and after
        (with_entry(1, 0, 7)[:3] + [[0, 1]] + z5[4:], "table entry 7 in row 1 is out of range"),
        ([[0, 1]] + with_entry(1, 0, 7)[1:], "table row 0 has length 2, expected 5"),
    ]
    for table, message in cases:
        with pytest.raises(ValueError) as err:
            _validate_table(table)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="^table row 4 must be a list, got int$"):
        _validate_table(z5[:4] + [5])
    with pytest.raises(ValueError, match="entry 9 in row 0"):
        _validate_table([with_entry(0, 1, 9)[0]] + z5[1:4] + [5])


def _reference_validate_table(table):
    """The Latin, identity and inverse checks as Python loops over the rows
    and columns, then Light's test."""
    from cayleydeg.groups import _check_associative

    n = len(table)
    if n == 0:
        raise ValueError("multiplication table is empty")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"table entry {v!r} in row {i} is out of range")
        rows.append(row)
    t = tuple(rows)
    full = frozenset(range(n))
    for i in range(n):
        if frozenset(t[i]) != full:
            raise ValueError(f"table row {i} is not a permutation of 0..{n - 1}")
        if frozenset(t[j][i] for j in range(n)) != full:
            raise ValueError(f"table column {i} is not a permutation of 0..{n - 1}")
    for a in range(n):
        if t[0][a] != a or t[a][0] != a:
            raise ValueError("index 0 does not act as a two-sided identity")
    for a in range(n):
        right = next(b for b in range(n) if t[a][b] == 0)
        if t[right][a] != 0:
            raise ValueError(f"element {a} has no two-sided inverse")
    _check_associative(np.array(t, dtype=np.intp))
    return t


def _corrupt(rng, t):
    """One random defect (or none) in a copy of the table t."""
    t = [list(row) for row in t]
    n = len(t)
    kind = rng.randrange(9)
    r, c = rng.randrange(n), rng.randrange(n)
    if kind == 0:  # one entry overwritten: a row and a column repeat a value
        t[r][c] = rng.randrange(n)
    elif kind == 1 and n > 1:  # two entries of a row swapped: columns break
        c2 = rng.randrange(n)
        t[r][c], t[r][c2] = t[r][c2], t[r][c]
    elif kind == 2:  # two rows swapped: a Latin square, identity moved
        r2 = rng.randrange(n)
        t[r], t[r2] = t[r2], t[r]
    elif kind == 3:  # relabelled without fixing 0
        perm = rng.sample(range(n), n)
        t = [[perm[v] for v in row] for row in t]
    elif kind == 4:  # intercalates switched away from row and column 0
        for _ in range(rng.randint(1, 3)):
            quads = [
                (r1, r2, c1, c2)
                for r1 in range(1, n) for r2 in range(r1 + 1, n)
                for c1 in range(1, n) for c2 in range(c1 + 1, n)
                if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]
            ]
            if quads:
                _switch_intercalate(t, *rng.choice(quads))
    elif kind == 5:  # a bad entry: out of range, negative, float or numpy int
        t[r][c] = rng.choice([n, -1, float(t[r][c]), np.int64(t[r][c]), "0"])
    elif kind == 6:  # a bool, an int subclass that JSON spells true/false: refused
        t[r][c] = bool(t[r][c]) if t[r][c] < 2 else t[r][c]
    elif kind == 7:  # a ragged row
        t[r] = t[r][:-1] if rng.random() < 0.5 else t[r] + [0]
    return t


def test_table_validation_matches_the_loop_reference():
    from cayleydeg.groups import _validate_table

    bases = ["z2", "z3", "z4", "z5", "z6", "z2x2", "z8", "z3x3", "z2x2x2",
             "d3", "d4", "d5", "q8", "a4"]
    tables = []
    for spec in bases:
        G = make_group(spec)
        tables.append(G.translations(range(G.order)).tolist())
    tables += [[[0]], NONASSOC_LOOP]
    rng = random.Random(1729)
    seen = set()
    for trial in range(3000):
        t = _corrupt(rng, rng.choice(tables))
        try:
            want = _reference_validate_table(t)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                _validate_table(t)
            assert str(err.value) == str(exc), t
            seen.add(re.sub(r"\d+", "#", str(exc)))
            continue
        assert _validate_table(t).tolist() == [list(row) for row in want]
        seen.add("valid")
    assert seen == {
        "valid",
        "table row # has length #, expected #",
        "table entry # in row # is out of range",
        "table entry -# in row # is out of range",
        "table entry #.# in row # is out of range",
        "table entry '#' in row # is out of range",
        "table entry np.int#(#) in row # is out of range",
        "table entry True in row # is out of range",
        "table entry False in row # is out of range",
        "table row # is not a permutation of #..#",
        "table column # is not a permutation of #..#",
        "index # does not act as a two-sided identity",
        "element # has no two-sided inverse",
        "table is not associative at (#,#,#)",
    }, seen


def test_custom_table_accepted():
    # Z3 given explicitly as a table
    G = make_group({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    assert G.order == 3
    assert G.is_abelian
    assert element_order(G, 1) == 3


def _reference_dihedral_table(n):
    """The dihedral table as the loop over (f1, k1, f2, k2) it is defined by."""
    size = 2 * n
    t = [[0] * size for _ in range(size)]
    for f1 in (0, 1):
        for k1 in range(n):
            for f2 in (0, 1):
                for k2 in range(n):
                    k = (k2 + (k1 if f2 == 0 else -k1)) % n
                    t[f1 * n + k1][f2 * n + k2] = (f1 ^ f2) * n + k
    return t


def test_dihedral_table_matches_the_loop_reference():
    from cayleydeg.groups import _dihedral_table

    for n in range(1, 17):
        t = _dihedral_table(n)
        assert t == _reference_dihedral_table(n), n
        assert all(type(v) is int for row in t for v in row), n


def test_dihedral_structure():
    n = 5
    G = make_group(f"dihedral:{n}")
    assert G.order == 2 * n
    assert not G.is_abelian
    r, s = 1, n
    assert element_order(G, r) == n
    assert element_order(G, s) == 2
    # s r s = r^-1
    assert G.mul(G.mul(s, r), s) == G.inv(r)


def test_symmetric_and_alternating():
    S4 = make_group("sym:4")
    assert S4.order == 24
    A4 = make_group("alt:4")
    assert A4.order == 12
    assert not A4.is_abelian
    # A4 has no element of order 6
    orders = {element_order(A4, g) for g in A4.elements()}
    assert orders == {1, 2, 3}


def test_quaternion_group():
    Q = make_group("q8")
    assert Q.order == 8
    assert not Q.is_abelian
    orders = sorted(element_order(Q, g) for g in Q.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    # exactly one element of order 2 (the central -1)
    assert orders.count(2) == 1


def test_element_order_lagrange():
    rng = random.Random(981)
    for spec in ["z12", "z6x2", "d6", "s4", "q8"]:
        G = make_group(spec)
        for _ in range(20):
            g = rng.randrange(G.order)
            k = element_order(G, g)
            assert G.order % k == 0
            # g^k = e and no smaller positive power works
            acc = G.identity
            for i in range(1, k):
                acc = G.mul(acc, g)
                assert acc != G.identity
            assert G.mul(acc, g) == G.identity


def test_parse_group_spec_forms():
    assert parse_group_spec("z6").order == 6
    assert parse_group_spec("z2x3").order == 6
    assert parse_group_spec("cyclic:7").order == 7
    assert parse_group_spec("d4").name == parse_group_spec("dihedral:4").name
    assert parse_group_spec("s3").order == 6
    assert parse_group_spec("a4").order == 12
    assert parse_group_spec("quaternion8").order == 8
    assert parse_group_spec('{"table": [[0,1],[1,0]]}').order == 2
    assert parse_group_spec("sym:1").order == 1
    with pytest.raises(ValueError):
        parse_group_spec("zz")
    with pytest.raises(ValueError):
        parse_group_spec("sym:6")  # 720 is past the supported table range


def test_generating_set_splits_involutions_and_pairs():
    G = make_group([6])
    S = make_generating_set(G, [1, 5, 3])
    assert S.size == 3
    assert S.t == 1 and S.d == 2
    assert set(S.order2) == {3}
    assert S.pairs == ((1, 5),)
    assert S.images() == (3, 1)
    assert S.generates


def test_generating_set_validation():
    G = make_group([6])
    with pytest.raises(ValueError, match="identity"):
        make_generating_set(G, [0, 1, 5])
    with pytest.raises(ValueError, match="symmetric"):
        make_generating_set(G, [1])
    with pytest.raises(ValueError, match="generate"):
        make_generating_set(G, [2, 4])
    S = make_generating_set(G, [2, 4], allow_nongenerating=True)
    assert not S.generates


def test_generating_set_closure_nonabelian():
    G = make_group("s4")
    # a transposition and a 4-cycle generate S4
    elems = [g for g in G.elements()]
    # find them by order and parity of fixed points via the table itself
    S = None
    for a in elems:
        if element_order(G, a) != 2:
            continue
        for b in elems:
            if element_order(G, b) != 4:
                continue
            try:
                S = make_generating_set(G, {a, G.inv(a), b, G.inv(b)})
                break
            except ValueError:
                continue
        if S is not None:
            break
    assert S is not None and S.generates


def _naive_symmetric_generating_sets(G):
    """Oracle: filter the full powerset of G \\ {e}."""
    n = G.order
    out = []
    universe = list(range(1, n))
    for mask in range(1, 1 << len(universe)):
        subset = {universe[i] for i in range(len(universe)) if mask >> i & 1}
        if any(G.inv(g) not in subset for g in subset):
            continue
        # closure from the identity
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for h in frontier:
                for s in subset:
                    v = G.mul(s, h)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) == n:
            out.append(frozenset(subset))
    return out


def test_enumeration_matches_powerset_oracle():
    for spec in ["z5", "z6", "z2x2", "d3", "q8", "d4", "z4x2", "z2x2x2x2"]:
        G = make_group(spec)
        sets = list(enumerate_symmetric_generating_sets(G))
        for S in sets:
            # both builders emit the canonical split, so the sets are equal
            again = make_generating_set(G, S.sorted_elements())
            assert S == again and hash(S) == hash(again), (spec, S)
            assert S.size == len(S.elements) == 2 * S.d - S.t, (spec, S)
        if G.order <= 8:  # the powerset oracle walks 2^(order-1) subsets
            expected = sorted(_naive_symmetric_generating_sets(G), key=sorted)
            assert sorted((S.elements for S in sets), key=sorted) == expected, spec


def test_enumeration_max_size_filter():
    G = make_group("z6")
    small = list(enumerate_symmetric_generating_sets(G, max_size=2))
    assert all(s.size <= 2 for s in small)
    assert {frozenset(s.elements) for s in small} == {frozenset({1, 5})}


def test_enumeration_budget(monkeypatch):
    G = make_group("z12")  # 11 non-identity elements, unit count above a tiny cap
    monkeypatch.setattr(groups, "ENUMERATION_UNIT_CAP", 3)
    with pytest.raises(BudgetExceeded, match="^z12 has 6 involutions and inverse pairs, above the cap 3$"):
        list(enumerate_symmetric_generating_sets(G))


def test_render_and_elements():
    G = make_group([3, 2])
    assert list(G.elements()) == list(range(6))
    assert G.render(5) == "(2,1)"
    H = make_group("d3")
    assert isinstance(H.render(4), str)


def test_group_order_cap():
    with pytest.raises(BudgetExceeded, match="^z20000 has 20000 elements, above the cap 10000$"):
        make_group("z20000")


def test_table_entries_are_refused_before_validation():
    # one shared row keeps the input itself small; n = 2049 is one past the
    # 2^22-entry budget and 10,000 the largest order MAX_GROUP_ORDER admits
    for n in (2049, 10_000):
        table = [tuple(range(n))] * n
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as err:
                groups._table_group(table, "big")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"multiplication table has {n * n} entries, above the cap 4194304"
        assert peak < 1 << 16
    # dihedral tables are refused before they are built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^multiplication table has 4202500 entries"):
            make_group("dihedral:1025")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    with pytest.raises(BudgetExceeded, match="^multiplication table has 144000000 entries"):
        make_group("dihedral:6000")


# reference arithmetic for the translation arrays: scalar mixed-radix
# formulas over the C-order layout (first modulus most significant)


def _place_values(moduli):
    pv = [1] * len(moduli)
    for i in range(len(moduli) - 2, -1, -1):
        pv[i] = pv[i + 1] * moduli[i + 1]
    return pv


def _radix_mul(moduli, a, b):
    return sum(
        (((a // p) % m + (b // p) % m) % m) * p
        for m, p in zip(moduli, _place_values(moduli))
    )


def _radix_inv(moduli, a):
    return sum(
        ((m - (a // p) % m) % m) * p for m, p in zip(moduli, _place_values(moduli))
    )


CYCLIC_PRODUCTS = [[2], [7], [4, 2], [2, 4], [3, 3, 2], [6, 4], [2, 2, 2, 2], [5, 3, 2]]
# every builtin table passes the exact validation in make_group
BUILTIN_TABLE_GROUPS = (
    [f"dihedral:{n}" for n in range(1, 13)]
    + [f"sym:{n}" for n in range(1, 6)]
    + [f"alt:{n}" for n in range(1, 6)]
    + ["q8"]
)


@pytest.mark.parametrize("moduli", CYCLIC_PRODUCTS)
def test_translations_match_mixed_radix_arithmetic(moduli):
    G = make_group(moduli)
    n = G.order
    rows = G.translations(range(n))
    assert rows.shape == (n, n)
    for a in range(n):
        assert G.inv(a) == _radix_inv(moduli, a)
        assert int(G.inverses[a]) == _radix_inv(moduli, a)
        for b in range(n):
            assert int(rows[a, b]) == _radix_mul(moduli, a, b)
            assert G.mul(a, b) == _radix_mul(moduli, a, b)
        assert G.decode(a) == tuple((a // p) % m for m, p in zip(moduli, _place_values(moduli)))
        assert G.encode(G.decode(a)) == a


@pytest.mark.parametrize("spec", BUILTIN_TABLE_GROUPS)
def test_translations_match_builtin_tables(spec):
    G = make_group(spec)
    n = G.order
    rows = G.translations(range(n))
    assert rows.tolist() == [list(row) for row in G.table]
    for a in range(n):
        assert G.table[a][G.inv(a)] == 0
        for b in range(n):
            assert G.mul(a, b) == G.table[a][b]


def test_translations_of_a_subset_keep_the_given_order():
    G = make_group([4, 3])
    rows = G.translations([5, 0, 11])
    assert rows.shape == (3, 12)
    assert rows[1].tolist() == list(range(12))
    assert rows[0].tolist() == [_radix_mul([4, 3], 5, g) for g in range(12)]
    assert G.translations([]).shape == (0, 12)


def test_enumeration_cap_bounds_the_walk_not_the_order():
    # Z2^5 has 31 involutions: a walk of 2^31 - 1 subsets is refused at once
    with pytest.raises(BudgetExceeded, match="31"):
        next(enumerate_symmetric_generating_sets(make_group([2, 2, 2, 2, 2])))
    # order 48 is past the old order cap, but Z48 has 1 involution and 23
    # inverse pairs, within the default cap of 24 units
    first = next(enumerate_symmetric_generating_sets(make_group([48]), max_size=2))
    assert first.elements == frozenset({1, 47})


@pytest.mark.parametrize("max_size, tested, sets", [(5, 4_943, 3_528), (None, 32_767, 31_232)])
def test_walk_tests_only_candidates_within_the_size_limit(monkeypatch, max_size, tested, sets):
    # Z2^4 has 15 involutions and no pairs: the size test alone decides which
    # of the 2^15 - 1 subsets reach the generation test
    calls = {"generates": 0, "translations": 0}
    generates, translations = groups._generates, FiniteGroup.translations

    def counted_generates(rows):
        calls["generates"] += 1
        return generates(rows)

    def counted_translations(self, elems):
        calls["translations"] += 1
        return translations(self, elems)

    G = make_group([2, 2, 2, 2])
    monkeypatch.setattr(groups, "_generates", counted_generates)
    monkeypatch.setattr(FiniteGroup, "translations", counted_translations)
    found = sum(1 for _ in enumerate_symmetric_generating_sets(G, max_size=max_size))
    assert (calls["generates"], found, calls["translations"]) == (tested, sets, 1)


def test_builtin_tables_are_pinned():
    specs = [f"dihedral:{n}" for n in range(1, 13)]
    specs += [f"{family}:{n}" for family in ("sym", "alt") for n in range(1, 6)] + ["q8"]
    text = "\n".join(f"{spec} {json.dumps(make_group(spec).table.tolist())}" for spec in specs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4c8db8e047bb524ad115a33fc0a201da994e10ce10c4ded7c03d9ad86d61162c"
    )


@pytest.mark.parametrize("spec", ["q8", "z4x4"])
def test_group_arrays_are_read_only_after_a_pickle_round_trip(spec):
    G = make_group(spec)
    for H in (G, pickle.loads(pickle.dumps(G))):
        arrays = [H.inverses] + ([H._coords] if H.moduli else [H.table])
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = 1
        assert H.inverses.tolist() == G.inverses.tolist()
        assert H.translations(range(H.order)).tolist() == G.translations(range(G.order)).tolist()


def _fresh_cache(monkeypatch, bound=groups._PRESENTATION_CACHE_ENTRIES):
    cache = groups._PresentationCache(bound)
    monkeypatch.setattr(groups, "_PRESENTATIONS", cache)
    return cache


def test_groups_of_one_presentation_share_read_only_arrays(monkeypatch):
    _fresh_cache(monkeypatch)
    G, H = make_group("z4x6"), make_group([4, 6])
    assert G is not H
    assert G._coords is H._coords and G.inverses is H.inverses
    for arr in (G._coords, G.inverses):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, ...] = 1
    # another presentation of an isomorphic group has its own arrays
    assert make_group("z24")._coords is not G._coords
    # a table group is not keyed by a presentation: nothing of it is cached
    Q, R = make_group("q8"), make_group("q8")
    assert Q.inverses is not R.inverses and Q.inverses.tolist() == R.inverses.tolist()


def test_generation_flags_are_computed_once_per_presentation_and_members(monkeypatch):
    cache = _fresh_cache(monkeypatch)
    calls = []
    real = groups._generates

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(groups, "_generates", counted)
    G = make_group("z12")
    first = make_generating_set(G, [2, 10, 3, 9])
    again = make_generating_set(make_group("z12"), [9, 3, 10, 2])
    assert first == again and calls == [4]
    assert not make_generating_set(G, [4, 8], allow_nongenerating=True).generates
    with pytest.raises(ValueError, match="does not generate"):
        make_generating_set(G, [8, 4])
    assert calls == [4, 2]
    assert ("generates", (12,), (4, 8)) in cache._items


def test_the_presentation_cache_drops_the_least_recently_used(monkeypatch):
    bound = groups._PRESENTATION_CACHE_ENTRIES
    cache = _fresh_cache(monkeypatch)
    first = make_group([9000])._coords
    orders = list(range(9001, 9060))
    for i, n in enumerate(orders):
        make_group([n])._coords
        if i < 20:
            assert make_group([9000])._coords is first  # kept in use, so kept
        assert cache.entries <= bound
    assert cache.entries == sum(size for _, size in cache._items.values()) <= bound
    # what stays is the most recently used run of orders
    kept = [key[1][0] for key in cache._items]
    assert 1 < len(kept) < len(orders) and kept == orders[-len(kept):]

    # a value larger than the whole bound is returned but never kept
    small = groups._PresentationCache(10)
    big = np.zeros(11)
    assert small.get(("big",), lambda: big) is big and small.entries == 0
    assert small.get(("a",), lambda: np.zeros(4)).size == 4 and small.entries == 5
    small.get(("b",), lambda: np.zeros(4))
    small.get(("a",), lambda: None)  # a hit: "a" becomes the most recent
    small.get(("c",), lambda: np.zeros(4))
    assert list(small._items) == [("a",), ("c",)] and small.entries == 10


def test_a_cyclic_product_is_refused_as_its_order_forms(monkeypatch):
    cache = _fresh_cache(monkeypatch)
    with pytest.raises(BudgetExceeded, match=(
        r"^z2x2x2x2x2x2x2x2x2x2x2x2x2x2 \(the first 14 of 15000 moduli\) "
        r"has 16384 elements, above the cap 10000$"
    )):
        make_group([2] * 15_000)
    with pytest.raises(BudgetExceeded, match="^z100x200 has 20000 elements, above the cap 10000$"):
        make_group("z100x200")
    assert cache.entries == 0 and not cache._items
    assert make_group([2] * 13).order == 8192
