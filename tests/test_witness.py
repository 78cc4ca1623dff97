"""Tests for the covering shift, cube witness, and lifted witness pipeline."""

import itertools
import math
import random

import numpy as np
import pytest

from cayleydeg.errors import BudgetExceeded, InvariantBreach
from cayleydeg.graphs import build_cayley, induced_max_degree
from cayleydeg.groups import make_generating_set, make_group
from cayleydeg.witness import (
    abelian_witness,
    cover_counts,
    cover_shift,
    cube_witness,
    make_lift,
    random_witness_suite,
)


def _naive_cover_counts(moduli, U):
    """Count |U_r n U| by direct enumeration of cube corners."""
    n = math.prod(moduli)
    d = len(moduli)
    Uset = set(U)

    def decode(x):
        out = []
        for m in reversed(moduli):
            out.append(x % m)
            x //= m
        return list(reversed(out))

    def encode(cs):
        x = 0
        for c, m in zip(cs, moduli):
            x = x * m + c % m
        return x

    counts = []
    for r in range(n):
        base = decode(r)
        c = 0
        for T in itertools.product([0, 1], repeat=d):
            point = encode([b + t for b, t in zip(base, T)])
            if point in Uset:
                c += 1
        counts.append(c)
    return counts


def test_cover_shift_frozen_example():
    # 5 of 9 points in Z_3 x Z_3; shift 0 captures 4 cube corners
    U = [0, 1, 3, 4, 8]
    assert cover_shift([3, 3], U) == (0, 4)


def test_cover_counts_match_naive():
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randint(1, 3)
        moduli = [rng.randint(2, 5) for _ in range(d)]
        n = math.prod(moduli)
        U = rng.sample(range(n), rng.randint(1, n))
        got = cover_counts(moduli, U).tolist()
        assert got == _naive_cover_counts(moduli, U)


def test_covering_identity():
    # sum over shifts r of |U_r n U| equals 2^d |U| exactly
    rng = random.Random(77)
    for _ in range(25):
        d = rng.randint(1, 4)
        moduli = [rng.randint(2, 4) for _ in range(d)]
        n = math.prod(moduli)
        U = rng.sample(range(n), rng.randint(0, n))
        counts = cover_counts(moduli, U)
        assert int(counts.sum()) == (1 << d) * len(U)


def test_cover_shift_requires_majority():
    with pytest.raises(ValueError, match="majority"):
        cover_shift([3, 3], [0, 1, 3, 4])  # exactly half would also fail


def test_cube_witness_frozen_examples():
    rep = cube_witness([3, 3], [0, 1, 3, 4, 8])
    assert rep.vertex == 0
    assert rep.neighbors == (3, 1)
    assert rep.k == 2 and rep.d == 2
    assert rep.checks == {"distinct": True, "adjacency": True, "bound": True}

    rep1 = cube_witness([3], [0, 1])
    assert rep1.vertex == 0 and rep1.neighbors == (1,) and rep1.k == 1


def test_cube_witness_full_subset_reaches_degree_d():
    for moduli in ([2, 2], [3, 2], [2, 2, 2], [4, 3]):
        n = math.prod(moduli)
        rep = cube_witness(moduli, range(n))
        assert rep.k == len(moduli)


def test_cube_witness_bound_property():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(1, 4)
        moduli = [rng.randint(2, 4) for _ in range(d)]
        n = math.prod(moduli)
        U = rng.sample(range(n), n // 2 + 1)
        rep = cube_witness(moduli, U)
        assert rep.k * rep.k >= d
        assert rep.vertex in set(U)
        assert set(rep.neighbors) <= set(U)
        assert len(set(rep.neighbors)) == rep.k


def test_witness_report_json_shape():
    rep = cube_witness([3, 3], [0, 1, 3, 4, 8])
    import json

    data = json.loads(rep.to_json())
    assert data["vertex"] == 0
    assert data["k"] == 2
    assert set(data["checks"]) == {"distinct", "adjacency", "bound"}
    assert data["trace"]["shift"] == 0


def test_make_lift_frozen_z6():
    G = make_group([6])
    S = make_generating_set(G, [1, 5, 3])
    lift = make_lift(G, S)
    assert lift.m == 6 and lift.d == 2
    assert lift.images == (3, 1)  # involutions first, then pair representatives
    assert lift.fiber_size == 6
    assert lift.values.shape == (36,)
    # surjective with uniform fibers
    assert sorted(np.bincount(lift.values, minlength=6)) == [6] * 6


def test_make_lift_z2x2_full():
    G = make_group([2, 2])
    S = make_generating_set(G, [1, 2, 3])
    lift = make_lift(G, S)
    assert lift.m == 2 and lift.d == 3
    assert lift.fiber_size == 2


def test_make_lift_cap():
    G = make_group([8, 8])
    S = make_generating_set(G, [1, 7, 8, 56, 9, 63])
    # m = 8, d = 3, source 512 exceeds a tiny cap
    with pytest.raises(BudgetExceeded):
        make_lift(G, S, cap=100)


def test_abelian_witness_frozen_z6():
    G = make_group([6])
    S = make_generating_set(G, [1, 5, 3])
    rep = abelian_witness(G, S, [0, 1, 2, 4])
    assert rep.vertex == 1
    assert rep.neighbors == (4, 2)
    assert rep.k == 2 and rep.d == 2 and rep.t == 1
    assert all(rep.checks.values())


def test_abelian_witness_requires_majority():
    G = make_group([6])
    S = make_generating_set(G, [1, 5])
    with pytest.raises(ValueError, match="majority"):
        abelian_witness(G, S, [0, 1, 2])


def test_abelian_witness_random_instances():
    rng = random.Random(2024)
    for _ in range(20):
        moduli = [rng.randint(2, 6) for _ in range(rng.randint(1, 2))]
        G = make_group(moduli)
        elems = set()
        for i in range(len(moduli)):
            g = G.encode([1 if j == i else 0 for j in range(len(moduli))])
            elems |= {g, G.inv(g)}
        S = make_generating_set(G, elems)
        U = rng.sample(range(G.order), G.order // 2 + 1)
        rep = abelian_witness(G, S, U)

        # the witness is a genuine vertex of the Cayley graph with k
        # neighbors inside U, so the induced max degree is at least k
        X = build_cayley(G, S).graph
        deg, _ = induced_max_degree(X, U)
        assert deg >= rep.k
        assert rep.vertex in set(U)
        for v in rep.neighbors:
            assert v in X.neighbors(rep.vertex)
        assert 2 * rep.k * rep.k >= S.size + S.t


def test_abelian_witness_rejects_nonabelian():
    G = make_group("d4")
    S = make_generating_set(G, [1, 3, 4])
    with pytest.raises(ValueError, match="abelian"):
        abelian_witness(G, S, range(5))


def test_random_witness_suite_deterministic():
    lines1 = random_witness_suite(count=12, seed=9, jobs=1)
    lines2 = random_witness_suite(count=12, seed=9, jobs=3)
    assert lines1 == lines2
    assert len(lines1) == 12
    assert all(line.endswith("ok") for line in lines1)
    # a different seed must change at least one instance
    assert random_witness_suite(count=12, seed=10) != lines1


def test_random_witness_suite_validates_count():
    with pytest.raises(ValueError):
        random_witness_suite(count=0)


def _outer_sum_lift(G, images, m):
    """Reference lift: digit-wise sums over the mixed-radix layout, one
    outer sum per direction (coordinate 0 most significant)."""
    pv = [1] * len(G.moduli)
    for i in range(len(G.moduli) - 2, -1, -1):
        pv[i] = pv[i + 1] * G.moduli[i + 1]

    def outer(a, b):
        total = np.zeros((a.size, b.size), dtype=np.int64)
        for mod, p in zip(G.moduli, pv):
            total += ((((a // p) % mod)[:, None] + ((b // p) % mod)[None, :]) % mod) * p
        return total.reshape(-1)

    values = np.zeros(1, dtype=np.int64)
    j = np.arange(m, dtype=np.int64)
    for s in images:
        mult = np.zeros(m, dtype=np.int64)
        for r, mod, p in zip(G.decode(s), G.moduli, pv):
            mult += ((j * r) % mod) * p
        values = outer(values, mult)
    return values


def test_make_lift_matches_outer_sum_reference():
    rng = random.Random(5150)
    for _ in range(60):
        moduli = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
        G = make_group(moduli)
        elems = set()
        for i in range(len(moduli)):
            g = G.encode([1 if j == i else 0 for j in range(len(moduli))])
            elems |= {g, G.inv(g)}
        for _ in range(rng.randint(0, 2)):
            g = rng.randrange(1, G.order)
            elems |= {g, G.inv(g)}
        S = make_generating_set(G, elems)
        m = math.lcm(*moduli)
        if m**S.d > 1 << 16:
            continue
        lift = make_lift(G, S)
        assert np.array_equal(lift.values, _outer_sum_lift(G, S.images(), m)), moduli


def test_certificate_validates_and_converts_its_input_once(monkeypatch):
    import cayleydeg.witness as witness

    calls = {"moduli": 0, "membership": 0}
    check, convert = witness._check_moduli, witness._membership_array

    def counted_check(moduli):
        calls["moduli"] += 1
        return check(moduli)

    def counted_convert(moduli, U):
        calls["membership"] += 1
        return convert(moduli, U)

    monkeypatch.setattr(witness, "_check_moduli", counted_check)
    monkeypatch.setattr(witness, "_membership_array", counted_convert)
    for fn in (cover_counts, cover_shift, cube_witness):
        calls.update(moduli=0, membership=0)
        fn([3, 3], [0, 1, 3, 4, 8])
        assert calls == {"moduli": 1, "membership": 1}, fn.__name__


def test_certificate_input_errors_are_unchanged():
    for fn in (cover_counts, cover_shift, cube_witness):
        with pytest.raises(ValueError, match="modulus 1 is invalid"):
            fn([3, 1], [0, 1])
        with pytest.raises(ValueError, match="need at least one modulus"):
            fn([], [0])
        with pytest.raises(ValueError, match=r"vertex 9 out of range 0\.\.8"):
            fn([3, 3], [0, 9])
        with pytest.raises(ValueError, match="membership array has 4 entries"):
            fn([3, 3], np.ones(4, dtype=np.int8))
    for fn in (cover_shift, cube_witness):
        with pytest.raises(ValueError, match="strict majority"):
            fn([3, 3], [0, 1, 3, 4])
