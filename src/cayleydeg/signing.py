"""Signed adjacency matrices, exact verification, spectra, and sign search.

A signing of a graph X assigns +1 or -1 to each edge; the signed adjacency
matrix M is symmetric with zero diagonal and |M| equal to the adjacency
indicator of X.  The property of interest is M M = c I, checked in exact
integer arithmetic, which forces every eigenvalue to have modulus sqrt(c).
For the n-dimensional hypercube such a signing exists and is built by the
block recursion B_1 = [[0,1],[1,0]], B_k = [[B_{k-1}, I], [I, -B_{k-1}]].

verify_signing walks adjacency lists: each length-2 walk u-v-w adds
M[u,v] M[v,w] to entry (u, w) of M M, so the check costs O(n deg^2) integer
operations after one scan for the nonzeros.

Eigenvalues come from LAPACK through numpy (eigvalsh).  The tests compare
them against an independent cyclic Jacobi solver kept in the test suite.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._parallel import parallel_map
from .errors import BudgetExceeded, InvariantBreach
from .graphs import Graph

__all__ = [
    "SignedAdjacency",
    "Spectrum",
    "SearchResult",
    "huang_signing",
    "verify_signing",
    "spectrum",
    "signing_search",
    "signing_to_json",
    "signing_from_json",
    "spectrum_to_csv",
    "HUANG_DIMENSION_CAP",
    "SPECTRUM_SIZE_CAP",
    "SEARCH_SIZE_CAP",
    "EXHAUSTIVE_EDGE_CAP",
]

HUANG_DIMENSION_CAP = 12
SPECTRUM_SIZE_CAP = 2048
SEARCH_SIZE_CAP = 512
EXHAUSTIVE_EDGE_CAP = 20
_WALK_BLOCK = 1 << 20


@dataclass(frozen=True)
class SignedAdjacency:
    """A symmetric {-1,0,1} matrix with zero diagonal, validated on creation."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"signed adjacency must be square, got shape {m.shape}")
        if not np.issubdtype(m.dtype, np.integer):
            raise ValueError("signed adjacency entries must be integers")
        if not ((m >= -1) & (m <= 1)).all():
            raise ValueError("signed adjacency entries must be in {-1, 0, 1}")
        if (m != m.T).any():
            raise ValueError("signed adjacency must be symmetric")
        if np.diagonal(m).any():
            raise ValueError("signed adjacency must have zero diagonal")
        out = m.astype(np.int8, copy=True)
        out.setflags(write=False)
        object.__setattr__(self, "matrix", out)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def edges_with_signs(self) -> list[tuple[int, int, int]]:
        """``(u, v, sign)`` for every edge, u < v, in lexicographic order."""
        us, vs = np.nonzero(np.triu(self.matrix, 1))
        signs = self.matrix[us, vs]
        return list(zip(us.tolist(), vs.tolist(), signs.tolist()))

    def support(self) -> Graph:
        return Graph(
            self.size, [(u, v) for u, v, _ in self.edges_with_signs()]
        )


def _check_signed(matrix: np.ndarray, label: str = "") -> SignedAdjacency:
    return SignedAdjacency(matrix=np.asarray(matrix), label=label)


def huang_signing(n: int, cap: int = HUANG_DIMENSION_CAP) -> SignedAdjacency:
    """The recursive signing of the n-dimensional hypercube with M M = n I.

    Vertices are bitmasks; block halves split on the most significant bit, so
    the support equals the hypercube adjacency (vertices adjacent when their
    masks differ in exactly one bit).
    """
    if n < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {n}")
    if n > cap:
        raise BudgetExceeded(f"hypercube dimension {n} exceeds the cap {cap}")
    b = np.array([[0, 1], [1, 0]], dtype=np.int8)
    for _ in range(n - 1):
        size = b.shape[0]
        eye = np.eye(size, dtype=np.int8)
        b = np.block([[b, eye], [eye, -b]])
    return SignedAdjacency(matrix=b, label=f"q{n}")


def verify_signing(M: SignedAdjacency | np.ndarray, c: int) -> bool:
    """Exact integer check that M M = c I.  No floating point is involved.

    Entry (u, w) of M M is the sum of M[u,v] M[v,w] over the length-2 walks
    u-v-w, so only the nonzeros are visited and no n x n product is formed.
    """
    mat = M.matrix if isinstance(M, SignedAdjacency) else np.asarray(M)
    if not np.issubdtype(mat.dtype, np.integer):
        raise ValueError("verify_signing requires an integer matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"verify_signing requires a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    rows, cols = np.nonzero(mat)  # row-major, so grouped by row
    vals = mat[rows, cols].astype(np.int64)
    deg = np.bincount(rows, minlength=n)
    row_start = np.cumsum(deg) - deg
    fanout = deg[cols]  # walks that start with each entry
    entry_at_row = np.append(row_start, rows.size)
    walks_at_row = np.append(0, np.cumsum(fanout))[entry_at_row]
    diag = np.zeros(n, dtype=np.int64)
    # Rows of M M are independent, so they are checked in blocks of whole
    # rows with at most _WALK_BLOCK walks (or one row, if it has more).  A
    # row has at most n^2 walks, so memory is O(max(_WALK_BLOCK, n^2)) even
    # for dense input, which has n^3 walks.
    r = 0
    while r < n:
        end = np.searchsorted(walks_at_row, walks_at_row[r] + _WALK_BLOCK, side="right")
        r_next = max(r + 1, int(end) - 1)
        lo, hi = entry_at_row[r], entry_at_row[r_next]
        r = r_next
        # walk j pairs entry first[j] = (u, v) with entry second[j] = (v, w)
        f = fanout[lo:hi]
        first = np.repeat(np.arange(lo, hi), f)
        walk_start = np.cumsum(f) - f
        second = np.arange(first.size) + np.repeat(row_start[cols[lo:hi]] - walk_start, f)
        keys = rows[first] * n + cols[second]
        terms = vals[first] * vals[second]
        order = np.argsort(keys)
        keys, terms = keys[order], terms[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, sums = keys[starts], np.add.reduceat(terms, starts)
        on_diag = keys // n == keys % n
        if sums[~on_diag].any():
            return False
        diag[keys[on_diag] // n] = sums[on_diag]
    return bool((diag == c).all())


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, plus the smallest modulus."""

    eigenvalues: np.ndarray
    min_modulus: float

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def spectrum(M: SignedAdjacency | np.ndarray) -> Spectrum:
    """Eigenvalues of a signed adjacency matrix, from LAPACK (eigvalsh).

    Sizes up to SPECTRUM_SIZE_CAP are supported.  Raises RuntimeError if the
    eigensolver fails to converge.
    """
    mat = M.matrix if isinstance(M, SignedAdjacency) else np.asarray(M)
    n = mat.shape[0]
    if n > SPECTRUM_SIZE_CAP:
        raise ValueError(f"matrix size {n} exceeds the spectrum cap {SPECTRUM_SIZE_CAP}")
    if n == 0:
        return Spectrum(np.zeros(0), 0.0)
    try:
        vals = np.linalg.eigvalsh(mat.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    vals = np.sort(vals)
    return Spectrum(eigenvalues=vals, min_modulus=float(np.abs(vals).min()))


# ---------------------------------------------------------------------------
# searching for signings that maximize the smallest eigenvalue modulus


@dataclass(frozen=True)
class SearchResult:
    signing: SignedAdjacency
    min_modulus: float
    evaluations: int
    method: str


def _signing_from_bits(n: int, edges: list[tuple[int, int]], bits: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int8)
    for i, (u, v) in enumerate(edges):
        s = -1 if (bits >> i) & 1 else 1
        m[u, v] = s
        m[v, u] = s
    return m


def _flip(m: np.ndarray, edge: tuple[int, int]) -> None:
    u, v = edge
    m[u, v] = m[v, u] = -m[u, v]


def _min_modulus(m: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(m)
    return float(np.abs(vals).min())


def _climb_worker(args: tuple) -> tuple[float, int, int]:
    """One hill-climb restart; returns (min_modulus, bits, evaluations).

    Each candidate flips one edge of a single float64 matrix in place and
    flips it back after its evaluation.
    """
    edges, n, seed, restart, budget = args
    rng = random.Random(f"{seed}:{restart}")
    bits = rng.getrandbits(len(edges))
    m = _signing_from_bits(n, edges, bits).astype(np.float64)
    cur = _min_modulus(m)
    evals = 1
    improved = True
    while improved and evals < budget:
        improved = False
        best_flip = -1
        best_val = cur
        for i, edge in enumerate(edges):
            _flip(m, edge)
            cand = _min_modulus(m)
            _flip(m, edge)
            evals += 1
            if cand > best_val:
                best_val = cand
                best_flip = i
            if evals >= budget:
                break
        if best_flip >= 0:
            bits ^= 1 << best_flip
            _flip(m, edges[best_flip])
            cur = best_val
            improved = True
    return cur, bits, evals


def signing_search(
    X: Graph,
    seed: int = 0,
    budget: int = 2000,
    restarts: int = 8,
    exhaustive: bool = False,
    jobs: int = 1,
) -> SearchResult:
    """Search for a signing of X maximizing the smallest eigenvalue modulus.

    Exhaustive mode enumerates all sign patterns (at most EXHAUSTIVE_EDGE_CAP
    edges) and is exact.  Otherwise a seeded hill climb over single-edge
    flips runs from several restarts; restarts use seeds derived from (seed,
    restart index) and merge deterministically, preferring larger modulus and
    breaking ties toward the lexicographically smallest sign vector (+1
    before -1 on the sorted edge list), so results do not depend on jobs.
    """
    if X.n > SEARCH_SIZE_CAP:
        raise ValueError(f"graph has {X.n} vertices, search cap is {SEARCH_SIZE_CAP}")
    edges = X.edges()
    ne = len(edges)
    if ne == 0:
        zero = np.zeros((X.n, X.n), dtype=np.int8)
        return SearchResult(SignedAdjacency(zero, "empty"), 0.0, 0, "exhaustive")

    if exhaustive:
        if ne > EXHAUSTIVE_EDGE_CAP:
            raise BudgetExceeded(
                f"{ne} edges exceed the exhaustive cap {EXHAUSTIVE_EDGE_CAP}"
            )
        # bits runs in increasing order; going from bits - 1 to bits flips
        # the lowest set bit of bits and every bit below it
        m = _signing_from_bits(X.n, edges, 0).astype(np.float64)
        best_bits = 0
        best_val = -1.0
        for bits in range(1 << ne):
            for i in range((bits & -bits).bit_length()):
                _flip(m, edges[i])
            val = _min_modulus(m)
            if val > best_val:
                best_val = val
                best_bits = bits
        mat = _signing_from_bits(X.n, edges, best_bits)
        return SearchResult(
            _check_signed(mat, "search"), best_val, 1 << ne, "exhaustive"
        )

    tasks = [(tuple(edges), X.n, seed, r, budget) for r in range(restarts)]
    outcomes = parallel_map(_climb_worker, tasks, jobs=jobs)
    best_val, best_bits = -1.0, 0
    total = 0
    for val, bits, evals in outcomes:
        total += evals
        if val > best_val or (val == best_val and bits < best_bits):
            best_val, best_bits = val, bits
    mat = _signing_from_bits(X.n, edges, best_bits)
    return SearchResult(_check_signed(mat, "search"), best_val, total, "hill-climb")


# ---------------------------------------------------------------------------
# serialization


def signing_to_json(M: SignedAdjacency) -> str:
    """``{"n":N,"signs":[[u,v,s],...]}`` with u < v, sorted lexicographically."""
    obj = {"n": M.size, "signs": [[u, v, s] for u, v, s in M.edges_with_signs()]}
    return json.dumps(obj, separators=(",", ":"))


def signing_from_json(text: str) -> SignedAdjacency:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed signing JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "signs" not in obj:
        raise ValueError("signing JSON must be an object with 'n' and 'signs'")
    n = obj["n"]
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"bad vertex count {n!r}")
    m = np.zeros((n, n), dtype=np.int8)
    for entry in obj["signs"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"malformed sign entry {entry!r}")
        u, v, s = entry
        if not 0 <= u < n or not 0 <= v < n or u == v:
            raise ValueError(f"bad edge ({u},{v})")
        if s not in (-1, 1):
            raise ValueError(f"bad sign {s!r} on edge ({u},{v})")
        if m[u, v]:
            raise ValueError(f"duplicate edge ({u},{v})")
        m[u, v] = s
        m[v, u] = s
    return _check_signed(m)


def spectrum_to_csv(spec: Spectrum) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "eigenvalue"])
    for i, v in enumerate(spec.eigenvalues):
        writer.writerow([i, f"{v:.12g}"])
    return buf.getvalue()
