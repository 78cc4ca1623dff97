"""Tests for signed adjacency matrices, spectra, and signing search."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from cayleydeg import signing
from cayleydeg.graphs import Graph, build_cayley, builtin_graph
from cayleydeg.groups import make_generating_set, make_group
from cayleydeg.signing import (
    EXHAUSTIVE_EDGE_CAP,
    HUANG_DIMENSION_CAP,
    SignedAdjacency,
    _climb_worker,
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

    The oracle for spectrum()'s LAPACK eigenvalues: full sweeps of Givens
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


@pytest.mark.parametrize("block", [1, 7, signing._WALK_BLOCK])
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
                assert _climb_worker(args) == _rebuilt_climb(*args), (X.n, edges, budget)


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
