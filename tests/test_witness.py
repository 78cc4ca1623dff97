"""Tests for the covering shift, cube witness, and lifted witness pipeline."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import cayleydeg.groups as groups
from cayleydeg.errors import BudgetExceeded, InvariantBreach
from cayleydeg.graphs import Graph, VertexSet, build_cayley, induced_max_degree
from cayleydeg.groups import FiniteGroup, make_generating_set, make_group
from cayleydeg.witness import (
    DEFAULT_LIFT_CAP,
    WitnessReport,
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


def test_abelian_witness_reads_two_translation_tables_per_certificate(monkeypatch):
    # the 500 instances fall under 259 (moduli, members) keys, and each key
    # reads three tables: the direction rows and the adjacency rows of its
    # one certificate call, which certifies all of the key's subsets, and
    # one in make_generating_set, which a cold presentation cache has not
    # seen yet; a second derivation of the neighbors would show here as a
    # count, not as a timing
    monkeypatch.setattr(groups, "_PRESENTATIONS", _fresh_cache())
    calls = []
    translations = FiniteGroup.translations

    def counted(self, elems):
        calls.append(len(elems))
        return translations(self, elems)

    monkeypatch.setattr(FiniteGroup, "translations", counted)
    lines = random_witness_suite(count=500, seed=0)
    assert len(lines) == 500 and all(line.endswith("ok") for line in lines)
    assert len(calls) == 777


def _fresh_cache():
    return groups._PresentationCache(groups._PRESENTATION_CACHE_ENTRIES)


def test_witness_suite_lines_do_not_depend_on_the_presentation_cache(monkeypatch):
    cache = _fresh_cache()
    monkeypatch.setattr(groups, "_PRESENTATIONS", cache)
    cold = random_witness_suite(500, seed=0)
    # 500 instances over few presentations: most keys repeat, and the
    # working set stays under the bound
    assert 0 < cache.entries <= groups._PRESENTATION_CACHE_ENTRIES
    warm = random_witness_suite(500, seed=0)
    pooled = random_witness_suite(500, seed=0, jobs=2)
    assert cold == warm == pooled
    assert _digest(cold) == "5142250dc6b2e92e0cdf13298f986cb2eaad9d83faacbd30b806b0e1da491fe0"


def test_witness_suite_lines_do_not_depend_on_blocks_or_keys():
    # a shorter suite is a prefix of a longer one at any job count: the
    # blocks and the grouping by (presentation, S) key never change a line
    full = random_witness_suite(150, seed=5)
    for count in (1, 26, 101):
        for jobs in (1, 3):
            assert random_witness_suite(count, seed=5, jobs=jobs) == full[:count], (count, jobs)


def test_witness_suite_memory_holds_packed_subsets(monkeypatch):
    # the subsets wait for their key as packed bits, and each key's reports
    # are dropped once its lines are written
    monkeypatch.setattr(groups, "_PRESENTATIONS", _fresh_cache())
    tracemalloc.start()
    try:
        lines = random_witness_suite(5000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lines) == 5000
    assert peak < 3.2 * (1 << 20)


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

    def counted_convert(n, U):
        calls["membership"] += 1
        return convert(n, U)

    monkeypatch.setattr(witness, "_check_moduli", counted_check)
    monkeypatch.setattr(witness, "_membership_array", counted_convert)
    for fn in (cover_counts, cover_shift, cube_witness):
        calls.update(moduli=0, membership=0)
        fn([3, 3], [0, 1, 3, 4, 8])
        assert calls == {"moduli": 1, "membership": 1}, fn.__name__

    # the abelian certificate works on G, reads U through the shared
    # helper, and runs the shared cube step on its own corner arrays
    def refuse(*args, **kwargs):
        raise AssertionError("abelian_witness called the public cube_witness")

    monkeypatch.setattr(witness, "cube_witness", refuse)
    G = make_group([6, 2])
    S = make_generating_set(G, [2, 10, 1, 6])
    calls.update(moduli=0, membership=0)
    rep = abelian_witness(G, S, range(7))
    assert calls == {"moduli": 0, "membership": 1}
    assert rep.k * rep.k >= rep.d and all(rep.checks.values())


def test_certificate_input_errors_are_unchanged():
    for fn in (cover_counts, cover_shift, cube_witness):
        with pytest.raises(ValueError, match="modulus 1 is invalid"):
            fn([3, 1], [0, 1])
        with pytest.raises(ValueError, match="need at least one modulus"):
            fn([], [0])
        with pytest.raises(ValueError, match=r"vertex 9 out of range 0\.\.8"):
            fn([3, 3], [0, 9])
    for fn in (cover_shift, cube_witness):
        with pytest.raises(ValueError, match="strict majority"):
            fn([3, 3], [0, 1, 3, 4])


def test_vertex_sets_over_another_vertex_count_are_refused():
    G = make_group([6])
    S = make_generating_set(G, [1, 5, 3])
    for U, n in [(VertexSet(12, 0b111110000000), 12), (VertexSet(4, 0b1111), 4)]:
        message = f"vertex set is over {n} vertices, graph has 6"
        for call in (
            lambda: abelian_witness(G, S, U),
            lambda: cover_counts([2, 3], U),
            lambda: cover_shift([2, 3], U),
            lambda: cube_witness([2, 3], U),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    # the same members over the right count are certified
    assert abelian_witness(G, S, VertexSet(6, 0b1111)).k == 2


def _seeded_certificates(count, seed):
    """to_json() of seeded abelian_witness and cube_witness certificates."""
    lifted, cubes = [], []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        while True:
            moduli = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
            G = make_group(moduli)
            elems = set()
            for j in range(len(moduli)):
                g = G.encode([1 if k == j else 0 for k in range(len(moduli))])
                elems |= {g, G.inv(g)}
            for _ in range(rng.randint(0, 2)):
                g = rng.randrange(1, G.order)
                elems |= {g, G.inv(g)}
            S = make_generating_set(G, sorted(elems))
            if math.lcm(*moduli) ** S.d <= 1 << 12:
                break
        U = rng.sample(range(G.order), rng.randint(G.order // 2 + 1, G.order))
        lifted.append(abelian_witness(G, S, U).to_json())
        cm = [rng.randint(2, 5) for _ in range(rng.randint(1, 4))]
        n = math.prod(cm)
        cubes.append(cube_witness(cm, rng.sample(range(n), rng.randint(n // 2 + 1, n))).to_json())
    return lifted, cubes


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_certificate_reports_are_pinned():
    # every report field is pinned, the trace (shift, lifted vertex, signs)
    # included, not only u, k, d and t
    lifted, cubes = _seeded_certificates(300, "w")
    assert _digest(lifted) == "fa56d6b2e6ede4974b27c93fca794516b5270911aae0ea9a4856ef739f97e34e"
    assert _digest(cubes) == "6851df388835efcbced9f592760b2f496919ad7682f206fab4a23613b189b546"


def _lifted_witness(G, S, U, cap):
    """The lift-based certificate: tabulate A over all m^d points with the
    public make_lift, run the cube witness on the preimage of U in Z_m^d and
    map it down, preferring the +1 sign per direction."""
    lift = make_lift(G, S, cap=cap)
    m, d = lift.m, lift.d
    u_ind = np.zeros(G.order, dtype=np.int8)
    u_ind[list(U)] = 1
    pre = u_ind[lift.values]
    bits = np.packbits(pre, bitorder="little").tobytes()
    cube = cube_witness((m,) * d, VertexSet(pre.size, int.from_bytes(bits, "little")))
    h = cube.vertex
    signs, neighbors = [], []
    for i, _ in cube.trace["signs"]:
        place = m ** (d - 1 - i)
        digit = (h // place) % m
        for sign in (1, -1):
            h_next = h + ((digit + sign) % m - digit) * place
            if pre[h_next]:
                signs.append((i, sign))
                neighbors.append(int(lift.values[h_next]))
                break
    return WitnessReport(
        vertex=int(lift.values[h]),
        neighbors=tuple(neighbors),
        k=cube.k,
        d=d,
        t=S.t,
        bound_satisfied=True,
        trace={**cube.trace, "signs": signs},
        checks={"distinct": True, "adjacency": True, "bound": True},
    )


def _oracle_instances(count, seed):
    """Seeded (G, S, U, cap): elementary 2-groups (m = 2), cyclic groups with
    one direction, products with extra units, every 100th with a lift of
    2^17 to 2^21 points, and |U| from a bare majority to the whole group."""
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        big = i % 100 == 99
        cap = 1 << (21 if big else 12)
        while True:
            kind = i % 4
            if kind == 0:
                moduli = [2] * rng.randint(1, 5)
            elif kind == 1:
                moduli = [rng.randint(2, 400)]
            else:
                moduli = [rng.randint(2, 8) for _ in range(rng.randint(1, 3))]
            G = make_group(moduli)
            if kind == 1:
                unit = rng.choice([g for g in range(1, G.order) if math.gcd(g, G.order) == 1])
                elems = {unit, G.inv(unit)}
            else:
                elems = set()
                for j in range(len(moduli)):
                    g = G.encode([1 if k == j else 0 for k in range(len(moduli))])
                    elems |= {g, G.inv(g)}
                for _ in range(rng.randint(0, 4)):
                    g = rng.randrange(1, G.order)
                    elems |= {g, G.inv(g)}
            S = make_generating_set(G, sorted(elems))
            if (cap >> 4 if big else 0) < math.lcm(*moduli) ** S.d <= cap:
                break
        size = rng.choice(
            [G.order // 2 + 1, G.order, rng.randint(G.order // 2 + 1, G.order)]
        )
        yield G, S, rng.sample(range(G.order), size), cap


def test_abelian_witness_matches_the_lifted_oracle():
    lifts = []
    for G, S, U, cap in _oracle_instances(2000, "oracle"):
        want = _lifted_witness(G, S, U, cap).to_json()
        assert abelian_witness(G, S, U).to_json() == want, (G.name, S, U)
        lifts.append(math.lcm(*G.moduli) ** S.d)
    # the families the docstring names are all there
    assert max(lifts) > 1 << 20 and min(lifts) == 2


def _rows(n, subsets):
    ind = np.zeros((len(subsets), n), dtype=np.int8)
    for r, U in enumerate(subsets):
        ind[r, list(U)] = 1
    return ind


def _kernel_batches():
    """Seeded (G, S, subsets, cap) batches of one Cayley graph each: keys
    with one subset and with hundreds, one subset repeated in every row,
    the full set among majority subsets, and d = 1 on a long cycle."""
    rng = random.Random("kernel")
    for count in (1, 1, 1, 2, 5, 40, 300):
        while True:
            moduli = [rng.randint(2, 8) for _ in range(rng.randint(1, 3))]
            G = make_group(moduli)
            elems = set()
            for j in range(len(moduli)):
                g = G.encode([1 if k == j else 0 for k in range(len(moduli))])
                elems |= {g, G.inv(g)}
            for _ in range(rng.randint(0, 2)):
                g = rng.randrange(1, G.order)
                elems |= {g, G.inv(g)}
            S = make_generating_set(G, sorted(elems))
            # the large batches get at least three directions
            if math.lcm(*moduli) ** S.d <= 1 << 16 and S.d >= min(count, 3):
                break
        subsets = [
            rng.sample(range(G.order), rng.randint(G.order // 2 + 1, G.order))
            for _ in range(count)
        ]
        yield G, S, subsets, 1 << 16
    G = make_group([2, 2, 2])
    S = make_generating_set(G, range(1, 8))
    yield G, S, [range(8), [0, 1, 2, 3, 7]] + [[1, 2, 4, 7, 6]] * 30, 1 << 14
    G = make_group([6, 4])
    S = make_generating_set(G, [1, 3, 4, 20, 5, 23])
    U = rng.sample(range(24), 13)
    yield G, S, [U] * 200, 1 << 18
    G = make_group([997])
    S = make_generating_set(G, [3, 994])
    yield G, S, [rng.sample(range(997), 499 + 50 * i) for i in range(10)] + [range(997)], 1 << 12


def test_certificate_kernel_matches_one_subset_at_a_time():
    # every row of a batch gets the whole report that abelian_witness gives
    # its subset alone, and that the tabulated lift gives
    import cayleydeg.witness as witness

    sizes = []
    for G, S, subsets, cap in _kernel_batches():
        got = witness._certify(G, S, _rows(G.order, subsets))
        assert got == [abelian_witness(G, S, U) for U in subsets], (G.name, S)
        for r in range(0, len(subsets), max(1, len(subsets) // 7)):
            assert got[r].to_json() == _lifted_witness(G, S, subsets[r], cap).to_json()
        sizes.append(len(subsets))
    assert min(sizes) == 1 and max(sizes) == 300


def test_certificate_adjacency_is_checked_on_a_separate_read(monkeypatch):
    # skew the direction rows to g + s + 2: the cube, the covering identity
    # and the neighbors all stay consistent with the skewed rows, so only
    # the adjacency check, which reads u's own translations, can see it
    import cayleydeg.witness as witness

    G = make_group([15])
    S = make_generating_set(G, [1, 14])
    translations = FiniteGroup.translations

    def skewed(self, elems):
        rows = translations(self, elems)
        if isinstance(elems, tuple) and elems == S.images():
            return (rows + 2) % self.order
        return rows

    monkeypatch.setattr(FiniteGroup, "translations", skewed)
    with pytest.raises(InvariantBreach, match="^witness verification failed: adjacency$"):
        witness._certify(G, S, _rows(15, [range(8), range(3, 12)]))


def test_certificate_kernel_refuses_any_minority_row():
    import cayleydeg.witness as witness

    G = make_group([6, 2])
    S = make_generating_set(G, [2, 10, 1, 6])
    ind = _rows(12, [range(7), range(12), range(6), range(5)])
    with pytest.raises(ValueError, match="^subset has 6 of 12 vertices; a strict majority is required$"):
        witness._certify(G, S, ind)


def test_abelian_witness_work_does_not_grow_with_the_lift():
    # z8x8 with d = 7 directions: a 2^21-point lift, under the default cap
    G = make_group([8, 8])
    gens = [G.encode(v) for v in [(1, 0), (0, 1), (1, 1), (1, 2), (4, 0), (0, 4), (4, 4)]]
    S = make_generating_set(G, {x for g in gens for x in (g, G.inv(g))})
    assert math.lcm(*G.moduli) ** S.d == 1 << 21
    U = range(33)
    abelian_witness(G, S, U)
    tracemalloc.start()
    try:
        rep = abelian_witness(G, S, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep.to_json() == _lifted_witness(G, S, U, 1 << 22).to_json()

    # a long cycle: m = |G| = 9973, d = 1
    G = make_group([9973])
    S = make_generating_set(G, [1, 9972])
    U = range(4987)
    tracemalloc.start()
    try:
        abelian_witness(G, S, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20

    def best_of(fn, repeat=5):
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of(lambda: abelian_witness(G, S, U)) <= best_of(
        lambda: _lifted_witness(G, S, U, 1 << 22)
    )


def test_lifts_beyond_int64_stay_exact():
    # z97 x 97 with s_0 = (0,1) outside H_1 = <(1,0), ..., (9,0)>: the least
    # shift has digit 40 in place 97^9, so it is above 2^63
    G = make_group([97, 97])
    gens = [G.encode((0, 1))] + [G.encode((a, 0)) for a in range(1, 10)]
    S = make_generating_set(G, {x for g in gens for x in (g, G.inv(g))})
    U = [g for g in range(G.order) if G.decode(g)[1] >= 40]
    rep = abelian_witness(G, S, U)
    assert rep.trace["shift"] == rep.trace["lifted_vertex"] == 40 * 97**9 > 1 << 63
    assert rep.trace["cube_points"] == 1 << 10
    assert rep.vertex == G.encode((0, 40)) and rep.k == 10


def test_abelian_witness_refuses_before_any_work():
    # 23 involutions of Z2^13: the 13 basis vectors and 10 sums of two
    G = make_group([2] * 13)
    basis = [1 << i for i in range(13)]
    S = make_generating_set(G, basis + [basis[i] ^ basis[i + 1] for i in range(10)])
    assert S.d == 23
    tracemalloc.start()
    try:
        with pytest.raises(
            BudgetExceeded, match=r"^witness cube has 8388608 corners, above the cap 4194304$"
        ):
            abelian_witness(G, S, range(G.order // 2 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    H = make_group([6])
    T = make_generating_set(H, [2, 4], allow_nongenerating=True)
    message = "^the generating set does not generate; fibers would be unequal$"
    with pytest.raises(ValueError, match=message):
        abelian_witness(H, T, range(4))


def test_cube_inputs_are_refused_before_allocation():
    # 2^30 points would take a 1 GiB indicator and an 8 GiB int64 count array
    assert DEFAULT_LIFT_CAP == 1 << 22
    message = r"^product of cycles has 1073741824 vertices, above the cap 4194304$"
    for fn in (cover_counts, cover_shift, cube_witness):
        for U in ([0], VertexSet(1 << 30, 0)):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded, match=message):
                    fn([2] * 30, U)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"^vertex set has 4194305 vertices, above the cap 4194304$"):
            VertexSet.from_members(DEFAULT_LIFT_CAP + 1, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert VertexSet.from_members(DEFAULT_LIFT_CAP, [0]).mask == 1


def test_cover_counts_at_the_cap_take_four_bytes_a_point():
    # no count exceeds 2^d <= 2^22, so they are int32: 16 MiB at the cap
    tracemalloc.start()
    try:
        counts = cover_counts([2] * 22, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.dtype == np.int32 and int(counts.sum()) == 1 << 22
    # the counts, the int8 indicator and one saved slice of half the points
    assert peak < 30 << 20


def test_numpy_integer_members_match_their_list():
    # a numpy integer member shifted as given overflows int64
    members = np.array([70, 71, 72])
    assert VertexSet.from_members(100, members) == VertexSet.from_members(100, [70, 71, 72])
    X = Graph(100, [(70, 71), (71, 72)])
    assert induced_max_degree(X, members) == induced_max_degree(X, [70, 71, 72]) == (2, 71)
    assert VertexSet.from_members(8, np.array([1, 5])).members() == [1, 5]

    G = make_group([100])
    S = make_generating_set(G, [1, 99])
    U = np.arange(51) + 40
    assert abelian_witness(G, S, U) == abelian_witness(G, S, U.tolist())
    U = np.arange(3, 40, dtype=np.int32)
    want = cube_witness([8, 8], U.tolist())
    assert cube_witness([8, 8], list(U)) == cube_witness([8, 8], U) == want


def test_a_subset_has_one_reading_everywhere():
    # a list, a numpy int array, a range and a VertexSet of the same members
    # give equal results; an array of length n lists members too, it is not
    # a 0/1 grid, so z3's [0, 1, 1] is the subset {0, 1}
    for moduli, array, members in [
        ([3], np.array([0, 1, 1]), range(2)),
        ([4, 4], np.array([*range(9), *[8] * 7]), range(9)),
        ([5, 3], np.arange(0, 15, 2), range(0, 15, 2)),
    ]:
        G = make_group(moduli)
        k = len(moduli)
        gens = [G.encode([int(i == j) for j in range(k)]) for i in range(k)]
        S = make_generating_set(G, {x for g in gens for x in (g, G.inv(g))})
        X = build_cayley(G, S).graph
        forms = [array.tolist(), array, members, VertexSet.from_members(G.order, members)]
        for name, fn in [
            ("induced_max_degree", lambda U: induced_max_degree(X, U)),
            ("cover_counts", lambda U: cover_counts(moduli, U).tolist()),
            ("cover_shift", lambda U: cover_shift(moduli, U)),
            ("cube_witness", lambda U: cube_witness(moduli, U)),
            ("abelian_witness", lambda U: abelian_witness(G, S, U)),
        ]:
            results = [fn(U) for U in forms]
            assert all(r == results[0] for r in results), (moduli, name)
    G = make_group([3])
    S = make_generating_set(G, [1, 2])
    U = np.array([0, 1, 1])
    assert cube_witness([3], U).vertex == abelian_witness(G, S, U).vertex == 0
