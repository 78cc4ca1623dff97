"""Tests for signed adjacency matrices, spectra, and signing search."""

import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from cayleydeg import signing
from cayleydeg.errors import BudgetExceeded, InvariantBreach
from cayleydeg.graphs import Graph, build_cayley, builtin_graph
from cayleydeg.groups import make_generating_set, make_group
from cayleydeg.signing import (
    EXHAUSTIVE_EDGE_CAP,
    HUANG_DIMENSION_CAP,
    SEARCH_SIZE_CAP,
    SignedAdjacency,
    _climb_worker,
    _flip,
    _flips_that_cannot_win,
    huang_signing,
    signing_from_json,
    signing_search,
    signing_to_json,
    spectrum,
    spectrum_to_csv,
    verify_signing,
)


def _hypercube(n):
    G = make_group([2] * n)
    S = make_generating_set(G, [1 << i for i in range(n)])
    return build_cayley(G, S).graph


def test_recursive_signing_base_cases():
    B1 = huang_signing(1).matrix
    assert B1.tolist() == [[0, 1], [1, 0]]
    B2 = huang_signing(2).matrix
    assert B2.tolist() == [
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
    ]


def test_squared_signing_by_hand():
    # multiply the 4x4 case row by column and compare entry by entry
    B = huang_signing(2).matrix.astype(int)
    expect = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            expect[i][j] = sum(int(B[i][k]) * int(B[k][j]) for k in range(4))
    assert expect == (2 * np.eye(4, dtype=int)).tolist()
    assert verify_signing(huang_signing(2), 2)


def test_signing_squares_to_nI():
    for n in range(1, 8):
        assert verify_signing(huang_signing(n), n)
    # and fails for the wrong constant
    assert not verify_signing(huang_signing(3), 2)


def test_signing_support_is_hypercube():
    for n in range(1, 6):
        M = huang_signing(n)
        assert M.support() == _hypercube(n)


def test_signing_dimension_cap():
    with pytest.raises(ValueError):
        huang_signing(0)
    with pytest.raises(ValueError):
        huang_signing(13)


def test_spectrum_is_plus_minus_sqrt_n():
    for n in range(1, 7):
        spec = spectrum(huang_signing(n))
        root = math.sqrt(n)
        half = 1 << (n - 1)
        assert len(spec.eigenvalues) == 2 * half
        assert all(abs(e + root) < 1e-9 for e in spec.eigenvalues[:half])
        assert all(abs(e - root) < 1e-9 for e in spec.eigenvalues[half:])
        assert abs(spec.min_modulus - root) < 1e-9


def test_spectrum_cycle_closed_form():
    # all-positive signing of C6 is the plain adjacency matrix; its
    # eigenvalues are 2 cos(2 pi j / 6)
    X = builtin_graph("cycle:6")
    rows = np.zeros((6, 6), dtype=np.int8)
    for u, v in X.edges():
        rows[u, v] = rows[v, u] = 1
    spec = spectrum(SignedAdjacency(rows))
    expect = sorted(2 * math.cos(2 * math.pi * j / 6) for j in range(6))
    assert np.allclose(spec.eigenvalues, expect, atol=1e-9)


def test_signed_matrix_validation():
    with pytest.raises(ValueError):
        SignedAdjacency(np.array([[0, 2], [2, 0]], dtype=np.int8))
    with pytest.raises(ValueError):
        SignedAdjacency(np.array([[1, 1], [1, 0]], dtype=np.int8))  # diagonal
    with pytest.raises(ValueError):
        SignedAdjacency(np.array([[0, 1], [-1, 0]], dtype=np.int8))  # asymmetric
    with pytest.raises(ValueError):
        SignedAdjacency(np.zeros((2, 3), dtype=np.int8))


def jacobi_eigenvalues(
    A: np.ndarray, tol: float = 1e-9, max_sweeps: int = 100
) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of a symmetric matrix, ascending.

    The oracle for spectrum()'s eigenvalues, certified or from LAPACK: full sweeps of Givens
    rotations over the upper triangle until the off-diagonal Frobenius norm
    drops below tol * n.
    """
    a = np.asarray(A, dtype=np.float64).copy()
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    if (a != a.T).any():
        raise ValueError("jacobi_eigenvalues requires a symmetric matrix")
    threshold = tol * n
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off < threshold:
            diag = np.sort(np.diagonal(a).copy())
            return diag
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    raise RuntimeError(f"jacobi sweep limit {max_sweeps} reached without convergence")


def test_jacobi_matches_lapack():
    rng = random.Random(404)
    for trial in range(10):
        n = rng.randint(2, 12)
        A = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                A[i, j] = A[j, i] = rng.uniform(-2, 2)
        ours = jacobi_eigenvalues(A, tol=1e-11)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(np.sort(ours) - ref)) < 1e-8


def test_jacobi_on_signed_hypercube():
    M = huang_signing(3)
    vals = jacobi_eigenvalues(M.matrix.astype(float), tol=1e-11)
    assert np.allclose(np.sort(vals), spectrum(M).eigenvalues, atol=1e-8)


def test_exhaustive_search_q2():
    # the best signing of the 4-cycle has an odd number of negative edges;
    # its eigenvalues are 2 cos((2j+1) pi / 4), so min modulus sqrt 2
    res = signing_search(_hypercube(2), exhaustive=True)
    assert res.method == "exhaustive"
    assert res.evaluations == 16
    assert abs(res.min_modulus - math.sqrt(2)) < 1e-9
    closed = sorted(abs(2 * math.cos((2 * j + 1) * math.pi / 4)) for j in range(4))
    assert abs(res.min_modulus - closed[0]) < 1e-9
    assert verify_signing(res.signing, 2)
    negatives = sum(1 for _, _, s in res.signing.edges_with_signs() if s < 0)
    assert negatives % 2 == 1


def test_exhaustive_search_edge_cap():
    X = builtin_graph("complete:8")  # 28 edges
    assert X.edge_count > EXHAUSTIVE_EDGE_CAP
    with pytest.raises(ValueError):
        signing_search(X, exhaustive=True)


def test_hill_climb_finds_q3_optimum():
    res = signing_search(_hypercube(3), seed=1, budget=600, restarts=6)
    assert res.method == "hill-climb"
    assert abs(res.min_modulus - math.sqrt(3)) < 1e-9
    assert verify_signing(res.signing, 3)


def test_hill_climb_deterministic_across_jobs():
    X = _hypercube(3)
    a = signing_search(X, seed=7, budget=200, restarts=4, jobs=1)
    for jobs in (2, 4):
        b = signing_search(X, seed=7, budget=200, restarts=4, jobs=jobs)
        assert a.min_modulus == b.min_modulus
        assert a.signing.matrix.tolist() == b.signing.matrix.tolist()
        assert a.evaluations == b.evaluations


def test_hill_climb_respects_support():
    X = builtin_graph("petersen")
    res = signing_search(X, seed=0, budget=150, restarts=2)
    assert res.signing.support() == X
    assert res.evaluations <= 150 * 2 + 2


def test_signing_json_round_trip():
    M = huang_signing(2)
    text = signing_to_json(M)
    data = json.loads(text)
    assert data["n"] == 4
    assert [0, 1, 1] in data["signs"] and [2, 3, -1] in data["signs"]
    M2 = signing_from_json(text)
    assert M2.matrix.tolist() == M.matrix.tolist()


def test_signing_json_validation():
    with pytest.raises(ValueError):
        signing_from_json('{"n": 2}')
    with pytest.raises(ValueError):
        signing_from_json('{"n": 2, "signs": [[0, 1, 5]]}')
    with pytest.raises(ValueError):
        signing_from_json('{"n": 2, "signs": [[0, 0, 1]]}')
    # every entry must be a list of three ints
    for text, message in [
        ('{"n": 3, "signs": [[0, 1.0, 1]]}', "malformed sign entry"),
        ('{"n": 3, "signs": [[0, 1, true]]}', "malformed sign entry"),
        ('{"n": 3, "signs": [[[0], 1, 1]]}', "malformed sign entry"),
        ('{"n": 3, "signs": [[0, 1]]}', "malformed sign entry"),
        ('{"n": true, "signs": []}', "bad vertex count True"),
        ('{"n": 3, "signs": null}', "'signs' must be a list"),
        ('[]', "must be an object with 'n' and 'signs'"),
        ('{"n": 3, "signs": [[0, 3, 1]]}', r"bad edge \(0,3\)"),
        ("nope", "malformed signing JSON"),
    ]:
        with pytest.raises(ValueError, match=message):
            signing_from_json(text)


def test_spectrum_csv_format():
    text = spectrum_to_csv(spectrum(huang_signing(1)))
    lines = text.strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert lines[1].startswith("0,-1") and lines[2].startswith("1,1")


# ---------------------------------------------------------------------------
# reference implementations: the dense product check, the scalar edge loop
# and the search that rebuilds its matrix for every evaluation


def _dense_verify(mat, c):
    w = np.asarray(mat).astype(np.int64)
    prod = w @ w
    want = np.zeros_like(prod)
    np.fill_diagonal(want, c)
    return bool((prod == want).all())


def _scalar_edges(M):
    m = M.matrix
    return [(u, v, int(m[u, v]))
            for u in range(M.size) for v in range(u + 1, M.size) if m[u, v]]


def _rebuilt_signing(n, edges, bits):
    m = np.zeros((n, n), dtype=np.int8)
    for i, (u, v) in enumerate(edges):
        s = -1 if (bits >> i) & 1 else 1
        m[u, v] = m[v, u] = s
    return m


def _rebuilt_modulus(n, edges, bits):
    vals = np.linalg.eigvalsh(_rebuilt_signing(n, edges, bits).astype(np.float64))
    return float(np.abs(vals).min())


def _rebuilt_climb(edges, n, seed, restart, budget):
    rng = random.Random(f"{seed}:{restart}")
    bits = rng.getrandbits(len(edges))
    cur = _rebuilt_modulus(n, edges, bits)
    evals = 1
    improved = True
    while improved and evals < budget:
        improved = False
        best_flip, best_val = -1, cur
        for i in range(len(edges)):
            cand = _rebuilt_modulus(n, edges, bits ^ (1 << i))
            evals += 1
            if cand > best_val:
                best_val, best_flip = cand, i
            if evals >= budget:
                break
        if best_flip >= 0:
            bits ^= 1 << best_flip
            cur = best_val
            improved = True
    return cur, bits, evals


def _reference_climb(edges, n, seed, restart, budget):
    """The climb without the inertia filter: every candidate is solved."""
    rng = random.Random(f"{seed}:{restart}")
    bits = rng.getrandbits(len(edges))
    m = _rebuilt_signing(n, edges, bits).astype(np.float64)
    cur = float(np.abs(np.linalg.eigvalsh(m)).min())
    evals = 1
    improved = True
    while improved and evals < budget:
        improved = False
        best_flip, best_val = -1, cur
        for i, edge in enumerate(edges):
            _flip(m, edge)
            cand = float(np.abs(np.linalg.eigvalsh(m)).min())
            _flip(m, edge)
            evals += 1
            if cand > best_val:
                best_val, best_flip = cand, i
            if evals >= budget:
                break
        if best_flip >= 0:
            bits ^= 1 << best_flip
            _flip(m, edges[best_flip])
            cur = best_val
            improved = True
    return cur, bits, evals


def _rebuilt_exhaustive(n, edges):
    best_bits, best_val = 0, -1.0
    for bits in range(1 << len(edges)):
        val = _rebuilt_modulus(n, edges, bits)
        if val > best_val:
            best_val, best_bits = val, bits
    return best_val, _rebuilt_signing(n, edges, best_bits)


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _random_signing(rng, n, p):
    m = np.zeros((n, n), dtype=np.int8)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                m[u, v] = m[v, u] = rng.choice((-1, 1))
    return SignedAdjacency(m)


def _random_integer_matrices(rng):
    """Symmetric and general integer matrices, with and without M M = c I."""
    out = [np.zeros((0, 0), dtype=np.int64), np.zeros((1, 1), dtype=np.int8),
           np.array([[3]], dtype=np.int16), np.zeros((5, 5), dtype=np.int32)]
    hadamard = np.array([[1]])
    for _ in range(4):  # Sylvester's H_16: dense, symmetric, H H = 16 I
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        out.append(hadamard)
    for _ in range(60):
        n = rng.randint(1, 9)
        a = np.zeros((n, n), dtype=np.int64)
        for u in range(n):
            for v in range(u, n):
                if rng.random() < 0.4:
                    a[u, v] = a[v, u] = rng.randint(-3, 3)
        r = rng.randrange(n)
        a[r, :] = a[:, r] = 0  # an empty row and column
        out.append(a)
        general = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        out.append(np.array(general).astype(rng.choice((np.int8, np.int64, np.uint8))))
        # a * (a fixed-point-free involution) squares to a^2 I
        perm = list(range(2 * n))
        rng.shuffle(perm)
        p = np.zeros((2 * n, 2 * n), dtype=np.int64)
        for i in range(0, 2 * n, 2):
            p[perm[i], perm[i + 1]] = p[perm[i + 1], perm[i]] = 1
        out.append(rng.choice((-2, 1, 3)) * p)
    return out


@pytest.mark.parametrize("block", [1, 7, signing._WALK_BLOCK, 1 << 20])
def test_verify_signing_matches_dense_product(block, monkeypatch):
    # small blocks split rows of M M across many blocks, and single rows
    # with more walks than the block make blocks of their own
    monkeypatch.setattr(signing, "_WALK_BLOCK", block)
    rng = random.Random(2024)
    trues = 0
    for mat in _random_integer_matrices(rng):
        n = mat.shape[0]
        square = mat.astype(np.int64) @ mat.astype(np.int64)
        corner = int(square[0, 0]) if n else 0
        for c in {0, 1, corner, corner + 1}:
            want = _dense_verify(mat, c)
            assert verify_signing(mat, c) == want, (mat.tolist(), c)
            trues += want
    assert trues > 60  # the involutions, Hadamard and zero matrices hold
    for n in range(1, 7):
        M = huang_signing(n)
        flipped = M.matrix.copy()
        flipped[0, 1] = flipped[1, 0] = -flipped[0, 1]
        for c in (n - 1, n, n + 1):
            assert verify_signing(M, c) == _dense_verify(M.matrix, c)
            assert verify_signing(flipped, c) == _dense_verify(flipped, c)


def test_verify_signing_rejects_malformed_input():
    with pytest.raises(ValueError):
        verify_signing(np.zeros((2, 3), dtype=np.int8), 0)
    with pytest.raises(ValueError):
        verify_signing(np.zeros(4, dtype=np.int8), 0)
    with pytest.raises(ValueError):
        verify_signing(np.eye(2), 1)
    with pytest.raises(ValueError):
        verify_signing(np.eye(2, dtype=bool), 1)


def test_spectrum_rejects_non_square_input():
    with pytest.raises(ValueError, match=r"spectrum requires a square matrix, got shape \(2, 3\)"):
        spectrum(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"spectrum requires a square matrix, got shape \(4,\)"):
        spectrum(np.ones(4))


def test_verify_signing_builds_no_dense_product():
    M = huang_signing(HUANG_DIMENSION_CAP)
    n = M.size
    tracemalloc.start()
    try:
        assert verify_signing(M, HUANG_DIMENSION_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.int64).itemsize


def test_verify_signing_keeps_int32_indices_at_the_dimension_cap():
    # rows, columns and fan-outs of the 49,152 nonzeros take four bytes
    # each, and no nonzero-sized int64 index array is made
    M = huang_signing(HUANG_DIMENSION_CAP)
    verify_signing(M, HUANG_DIMENSION_CAP)
    tracemalloc.start()
    try:
        assert verify_signing(M, HUANG_DIMENSION_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9e6, peak


def test_verify_signing_memory_is_bounded_on_dense_input(monkeypatch):
    # Sylvester's H_128 has 128^3 = 2M walks; one row has 16K of them
    monkeypatch.setattr(signing, "_WALK_BLOCK", 1 << 12)
    h = np.array([[1]], dtype=np.int8)
    for _ in range(7):
        h = np.block([[h, h], [h, -h]])
    tracemalloc.start()
    try:
        assert verify_signing(h, 128)
        assert not verify_signing(h, 127)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 ** 3 * np.dtype(np.int64).itemsize // 4


def test_verify_signing_at_the_dimension_cap():
    M = huang_signing(HUANG_DIMENSION_CAP)
    assert verify_signing(M, HUANG_DIMENSION_CAP)
    flipped = M.matrix.copy()
    u, v = 5, 5 ^ 8
    flipped[u, v] = flipped[v, u] = -flipped[u, v]
    assert not verify_signing(flipped, HUANG_DIMENSION_CAP)


def test_edges_with_signs_matches_scalar_loop():
    for n in range(1, 9):
        M = huang_signing(n)
        assert M.edges_with_signs() == _scalar_edges(M)
    rng = random.Random(77)
    for trial in range(20):
        M = _random_signing(rng, rng.randint(0, 12), rng.random())
        got = M.edges_with_signs()
        assert got == _scalar_edges(M)
        assert all(type(x) is int for e in got for x in e)


def test_signed_matrix_validation_keeps_range_and_type_checks():
    bad_range = [np.array([[0, 2], [2, 0]], dtype=np.int64),
                 np.array([[0, -128], [-128, 0]], dtype=np.int8),
                 np.array([[0, 255], [255, 0]], dtype=np.uint8),
                 np.array([[0, -2], [-2, 0]], dtype=np.int32)]
    for m in bad_range:
        with pytest.raises(ValueError, match=r"must be in \{-1, 0, 1\}"):
            SignedAdjacency(m)
    for m in (np.array([[False, True], [True, False]]),
              np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(ValueError, match="must be integers"):
            SignedAdjacency(m)
    src = np.array([[0, -1], [-1, 0]], dtype=np.int64)
    M = SignedAdjacency(src)
    src[0, 1] = src[1, 0] = 1
    assert M.matrix.dtype == np.int8 and not M.matrix.flags.writeable
    assert M.matrix.tolist() == [[0, -1], [-1, 0]]


def test_climb_matches_rebuilding_reference():
    rng = random.Random(31)
    graphs = [_hypercube(k) for k in (2, 3, 4)]
    graphs += [_random_graph(rng, rng.randint(3, 10), 0.5) for _ in range(4)]
    for X in graphs:
        edges = tuple(X.edges())
        ne = len(edges)
        for budget in (1, 2, ne // 2 + 1, ne + 3, 2 * ne + 5, 400):
            for restart in range(2):
                args = (edges, X.n, 9, restart, budget)
                assert _climb_worker(args)[:3] == _rebuilt_climb(*args), (X.n, edges, budget)


def test_exhaustive_search_matches_rebuilding_reference():
    rng = random.Random(8)
    graphs = [_hypercube(2), builtin_graph("cycle:5"), _random_graph(rng, 7, 0.35)]
    for X in graphs:
        edges = X.edges()
        assert 0 < len(edges) <= 12
        val, mat = _rebuilt_exhaustive(X.n, edges)
        res = signing_search(X, exhaustive=True)
        assert res.min_modulus == val
        assert res.evaluations == 1 << len(edges)
        assert res.signing.matrix.tolist() == mat.tolist()


def _star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def test_climb_matches_the_unfiltered_reference():
    # the bench's search (budget 2000, 8 restarts) on cubes, seeded G(n,p)
    # graphs (the last has an isolated vertex, so every signing is singular)
    # and the star K_{1,3}, whose signings are all singular too: below the
    # filter's floor every candidate is solved
    rng = random.Random(5)
    cases = [(_hypercube(k), seed) for k in (4, 5, 6) for seed in (0, 101)]
    cases += [(_random_graph(rng, n, p), 0) for n, p in ((20, 0.3), (40, 0.12), (64, 0.1))]
    cases.append((_star(3), 0))
    unfiltered = []
    for X, seed in cases:
        edges = tuple(X.edges())
        outcomes = []
        for restart in range(8):
            args = (edges, X.n, seed, restart, 2000)
            outcomes.append(_climb_worker(args))
            assert outcomes[-1][:3] == _reference_climb(*args), (X.n, len(edges), seed, restart)
        evals = sum(o[2] for o in outcomes)
        solves = sum(o[3] for o in outcomes)
        if max(o[0] for o in outcomes) <= signing._FILTER_FLOOR:
            unfiltered.append(X.n)
            assert solves == evals
        else:
            assert solves < evals / 4, (X.n, solves, evals)
    assert unfiltered == [64, 4]


def test_inertia_filter_never_rejects_a_flip_that_could_win():
    # skipping at t means eigvalsh's modulus is below t + margin / 2, so a
    # flip whose modulus would beat best_val = t + margin is never skipped;
    # thresholds cluster around the computed modulus, where it matters, and
    # around the eigenvalue moduli of the unflipped M, where the gap is small
    rng = random.Random(12)
    margin, floor = signing._FILTER_MARGIN, signing._FILTER_FLOOR
    graphs = [_hypercube(5)] + [_random_graph(rng, rng.randint(8, 40), rng.uniform(0.15, 0.5))
                                for _ in range(6)]
    skipped = solved = 0
    for X in graphs:
        edges = X.edges()
        for _ in range(8):
            m = _rebuilt_signing(X.n, edges, rng.getrandbits(len(edges))).astype(np.float64)
            lam, q = np.linalg.eigh(m)
            edge = rng.choice(edges)
            _flip(m, edge)
            modulus = float(np.abs(np.linalg.eigvalsh(m)).min())
            _flip(m, edge)
            us, vs = np.array([edge[0]]), np.array([edge[1]])
            for _ in range(12):
                near_eigenvalue = float(rng.choice(np.abs(lam))) + rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -6)
                t = rng.choice((modulus + rng.uniform(-margin, margin),
                                modulus * rng.uniform(0.5, 1.5), rng.uniform(0, 3), near_eigenvalue))
                if t <= floor:
                    continue
                if _flips_that_cannot_win(m, lam, q, us, vs, t)[0]:
                    skipped += 1
                    assert modulus < t + margin / 2, (modulus, t)
                else:
                    solved += 1
    assert skipped > 100 and solved > 100


def test_a_threshold_at_an_eigenvalue_skips_nothing():
    # a zero gap puts every decision inside the rounding band, silently
    rng = random.Random(8)
    X = _random_graph(rng, 30, 0.3)
    edges = X.edges()
    us, vs = np.array(edges).T
    signings = [huang_signing(4).matrix,
                _rebuilt_signing(X.n, edges, rng.getrandbits(len(edges)))]
    for mat in signings:
        m = mat.astype(np.float64)
        edge_us, edge_vs = np.nonzero(np.triu(m))
        lam, q = np.linalg.eigh(m)
        for t in np.abs(lam)[np.abs(lam) > signing._FILTER_FLOOR][:6]:
            with np.errstate(all="raise"):
                assert not _flips_that_cannot_win(m, lam, q, edge_us, edge_vs, float(t)).any()
                assert _flips_that_cannot_win(m, lam, q, edge_us, edge_vs, float(t) + 1e-3).any()


def test_filter_constants_meet_the_error_bound():
    # the bound of the module docstring at the search cap: a skipped flip is
    # scored by eigvalsh at most t + 2 n^2 u D, far below best_val = t + delta
    u = np.finfo(np.float64).eps / 2
    n = SEARCH_SIZE_CAP
    degree = n - 1
    delta, eps = signing._FILTER_MARGIN, signing._FILTER_FLOOR
    assert 2 * n * n * u * degree < 3e-8 < delta / 30
    assert eps > 2 * delta  # t = best_val - delta stays well above 0
    # beta = 8 n^2 u / gap covers its parts with a factor 2 to spare:
    # 2 p(n) u / gap from Q - Q~, (n + 4) u / gap from the resolvent, and
    # u / 2 <= n u / gap (gap <= 2n)
    for size in range(2, n + 1):
        assert 2 * size * size + (size + 4) + size <= 4 * size * size


def test_q6_bench_search_is_pinned(monkeypatch):
    # the engines benchmark's search, at two seeds
    q6 = builtin_graph("q6")
    pins = {
        0: (0.42958183395039407, 14227, 253,
            "d02a78d2912714935d0ae417acd9c433f29aa37d3a927c3415422d1ecc11bbe5"),
        1: (0.562423446888095, 15921, 472,
            "59bfd43a1e1bda0cb7832d56600e4a163a0c50083c767d96fd223428397c1d96"),
    }
    for seed, (modulus, evals, solves, digest) in pins.items():
        calls = {"cholesky": 0, "eigvalsh": 0, "eigh": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                patch.setattr(np.linalg, name, counted)
            res = signing_search(q6, seed=seed, budget=2000, restarts=8)
        assert res.min_modulus == modulus
        assert (res.evaluations, res.eigensolves) == (evals, solves)
        assert hashlib.sha256(signing_to_json(res.signing).encode()).hexdigest() == digest
        if seed == 0:
            # at most one eigh per sweep: a restart of e evaluations sweeps
            # ceil((e - 1) / |E|) times
            edges = tuple(q6.edges())
            sweeps = sum(math.ceil((_climb_worker((edges, q6.n, 0, r, 2000))[2] - 1) / len(edges))
                         for r in range(8))
            assert calls["cholesky"] == 0 and calls["eigvalsh"] == 253
            assert 0 < calls["eigh"] <= sweeps


def test_dense_search_memory_stays_quadratic():
    # one n x n resolvent at a time and O(|E|) per-edge arrays: no |E| x n
    # product, on a 256-vertex graph with 16,357 edges
    X = _random_graph(random.Random(3), 256, 0.5)
    assert len(X.edges()) == 16357
    tracemalloc.start()
    try:
        res = signing_search(X, seed=0, budget=2000, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.evaluations == 2000
    assert peak < 8_000_000, peak


def test_search_counts_its_eigensolves():
    X = _hypercube(4)
    res = signing_search(X, seed=0, budget=400, restarts=3)
    outcomes = [_climb_worker((tuple(X.edges()), X.n, 0, r, 400)) for r in range(3)]
    assert res.evaluations == sum(o[2] for o in outcomes)
    assert res.eigensolves == sum(o[3] for o in outcomes) < res.evaluations
    star = signing_search(_star(3), seed=0, budget=50, restarts=2)
    assert star.eigensolves == star.evaluations
    exhaustive = signing_search(_hypercube(2), exhaustive=True)
    assert exhaustive.eigensolves == exhaustive.evaluations == 16
    assert signing_search(Graph(3, []), seed=0).eigensolves == 0


# sha256 of signing_to_json(huang_signing(n)) for n = 1..8
HUANG_JSON_SHA256 = [
    "50c3cb807bc91ca6d017f458aa0bde33205c011fb8165541bec8ba83c5c88ea3",
    "d1226659720c11620869e78dd0d3b9b43e37fb25172eaa7c806c0ff5d8ed235f",
    "c5c420e6f27f808ea96e2816eb6f71fa4962a29cdae2e8a38a64b678f3c06c94",
    "5b5ee8e1cdb4c7c9f61441d59b36acb2220efed3c39f088e94c5766281d93cf3",
    "78fbe4c6dd86b39681332894c26973ab417d44c61448d98fee082e65f66ff7c1",
    "d7ef349a691aaf74d4b715e8219bd8a85b668e650c61f156aa1fa89266024053",
    "4bc9751e69f3d8f699ccd5e8ef22f5e272fd7686bef8edc38fb9c874f4ac0735",
    "1008ec2b93b059c20490ec194797f18c5fb3c358e633dcfd5f01c304ac82c630",
]


def test_huang_signing_json_is_pinned():
    for n, digest in enumerate(HUANG_JSON_SHA256, start=1):
        assert hashlib.sha256(signing_to_json(huang_signing(n)).encode()).hexdigest() == digest


def test_signing_file_size_is_refused_before_allocation():
    cap = 1 << HUANG_DIMENSION_CAP
    for n in (cap + 1, 10 ** 12):
        tracemalloc.start()
        try:
            message = f"signing has {n} vertices, above the cap {cap}"
            with pytest.raises(BudgetExceeded, match=message):
                signing_from_json(json.dumps({"n": n, "signs": []}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert signing_from_json(json.dumps({"n": cap, "signs": []})).size == cap


# ---------------------------------------------------------------------------
# the in-place Huang matrix and spectra certified by M M = c I


def _block_recursion(n):
    """Huang's B_n by B_1 = [[0,1],[1,0]], B_k = [[B_{k-1}, I], [I, -B_{k-1}]]."""
    b = np.array([[0, 1], [1, 0]], dtype=np.int8)
    for _ in range(n - 1):
        eye = np.eye(b.shape[0], dtype=np.int8)
        b = np.block([[b, eye], [eye, -b]])
    return b


def test_huang_signing_matches_the_block_recursion():
    for n in range(1, HUANG_DIMENSION_CAP + 1):
        M = huang_signing(n).matrix
        assert M.dtype == np.int8 and np.array_equal(M, _block_recursion(n)), n


class _CountedEigvalsh:
    def __init__(self, monkeypatch):
        self.calls = 0
        self._fn = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._fn(*args, **kwargs)


def _permuted(M, rng):
    perm = list(range(M.shape[0]))
    rng.shuffle(perm)
    return M[np.ix_(perm, perm)]


def test_certified_spectrum_matches_lapack_and_jacobi(monkeypatch):
    rng = random.Random(2026)
    cases = [m for m in _random_integer_matrices(rng) if np.array_equal(m, m.T) and m.size]
    cases += [_permuted(huang_signing(n).matrix, rng) for n in range(1, 7)]
    cases += [k * np.eye(n, dtype=np.int64) for k in (1, -1) for n in (1, 4, 5)]
    cases += [np.array([[3]], dtype=np.int32), np.zeros((6, 6), dtype=np.int8)]
    flipped = huang_signing(5).matrix.copy()
    flipped[0, 1] = flipped[1, 0] = -flipped[0, 1]
    eigvalsh = _CountedEigvalsh(monkeypatch)
    certified = 0
    for mat in cases + [flipped]:
        before = eigvalsh.calls
        got = spectrum(mat)
        certified += eigvalsh.calls == before
        want = eigvalsh._fn(mat.astype(np.float64))
        assert np.allclose(got.eigenvalues, want, atol=1e-9, rtol=0), mat.tolist()
        assert np.allclose(got.eigenvalues, jacobi_eigenvalues(mat, tol=1e-11), atol=1e-8)
        assert got.min_modulus == pytest.approx(np.abs(want).min(), abs=1e-9)
    # the scaled involutions (c = 1, 4, 9), the 1 x 1 and zero matrices, the
    # Huang signings but q3, +-I and [[3]] are certified; the dense Hadamard
    # matrices, which have more length-2 walks than entries, are not
    assert certified > 90
    before = eigvalsh.calls
    spectrum(flipped)
    assert eigvalsh.calls == before + 1
    # the zero matrix has eigenvalues +0.0, as LAPACK gives them
    assert not np.signbit(spectrum(np.zeros((5, 5), dtype=np.int16)).eigenvalues).any()


def test_an_inconsistent_certificate_is_a_breach(monkeypatch):
    # no symmetric matrix has M M = c I with these traces; a walk check that
    # claimed so must not become a spectrum
    monkeypatch.setattr(signing, "_squares_to", lambda mat, c: True)
    for mat in ([[1, 1, 0], [1, 0, 0], [0, 0, 0]], [[2, 0], [0, 0]]):
        with pytest.raises(InvariantBreach):
            spectrum(np.array(mat))


def test_huang_spectra_run_no_eigensolver(monkeypatch):
    # q3 alone has more length-2 walks (8 * 3^2 = 72) than 8^2 entries, so
    # its spectrum comes from LAPACK
    eigvalsh = _CountedEigvalsh(monkeypatch)
    for n in range(1, 12):
        before = eigvalsh.calls
        spec = spectrum(huang_signing(n))
        assert eigvalsh.calls - before == (n == 3)
        if n == 3:
            continue
        root = math.sqrt(n)
        half = 1 << (n - 1)
        assert spec.eigenvalues.dtype == np.float64
        assert spec.eigenvalues.tolist() == [-root] * half + [root] * half
        assert spec.min_modulus == root


def test_huang_spectrum_memory_is_below_the_float_copy():
    M = huang_signing(11)
    n = M.size
    tracemalloc.start()
    try:
        spectrum(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.float64).itemsize // 8, peak


def test_huang_spectrum_csv_is_pinned():
    text = spectrum_to_csv(spectrum(huang_signing(10)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5287b1b9f11ca514dc869689f9971d1baf5a1be007c17d7c60e76dcc7110c105"
    )


def test_matrices_that_could_overflow_int64_go_to_lapack(monkeypatch):
    eigvalsh = _CountedEigvalsh(monkeypatch)
    for mat in (np.array([[0, 1 << 32], [1 << 32, 0]]),
                np.array([[0, 1 << 63], [1 << 63, 0]], dtype=np.uint64)):
        spec = spectrum(mat)
        top = float(mat[0, 1])
        assert np.allclose(spec.eigenvalues, [-top, top], rtol=1e-12)
    assert eigvalsh.calls == 2


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huang_signing_at_the_cap_holds_one_matrix():
    # the builder hands its matrix over without a copy, and the symmetry
    # check compares tiles, so the peak is the 16 MB matrix and little more
    n = 1 << HUANG_DIMENSION_CAP
    assert _traced_peak(lambda: huang_signing(HUANG_DIMENSION_CAP)) < 1.1 * n * n


def test_verify_signing_walk_arrays_stay_small():
    M = huang_signing(10)
    assert _traced_peak(lambda: verify_signing(M, 10)) < 1 << 20


def test_spectrum_of_a_plain_array_checks_symmetry_in_tiles():
    M = huang_signing(11)
    signed = _traced_peak(lambda: spectrum(M))
    assert _traced_peak(lambda: spectrum(M.matrix)) <= signed + 200_000


@pytest.mark.parametrize("n", [1, 2, signing._SYMMETRY_TILE - 1, signing._SYMMETRY_TILE,
                               signing._SYMMETRY_TILE + 1, 2 * signing._SYMMETRY_TILE + 3])
def test_tiled_symmetry_check_matches_the_transpose(n):
    rng = np.random.default_rng(n)
    a = rng.integers(-1, 2, size=(n, n))
    sym = np.triu(a, 1) + np.triu(a, 1).T
    assert signing._is_symmetric(sym)
    cells = {(0, n - 1), (n - 1, 0), (n // 2, n // 3)}
    cells |= {(int(u), int(v)) for u, v in rng.integers(0, n, size=(5, 2))}
    for u, v in cells:
        if u == v:
            continue
        bad = sym.copy()
        bad[u, v] = 0 if sym[u, v] else 1
        assert not signing._is_symmetric(bad)
        with pytest.raises(ValueError, match="must be symmetric"):
            SignedAdjacency(bad)
        with pytest.raises(ValueError, match="requires a symmetric matrix"):
            spectrum(bad.astype(np.float64))
    floats = sym.astype(np.float64)
    floats[n - 1, 0] = np.nan
    assert signing._is_symmetric(floats) == (n == 1)
    floats[0, n - 1] = np.nan  # nan equals nan, as in np.array_equal(..., equal_nan=True)
    assert signing._is_symmetric(floats)
