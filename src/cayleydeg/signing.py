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

The hill climb of signing_search keeps a single-edge flip M' only if its
smallest eigenvalue modulus beats the sweep's best so far, best_val, and
most flips cannot.  min |lambda(M')| > t exactly when M'^2 - t^2 I, whose
eigenvalues are lambda^2 - t^2, is positive definite: a question of inertia
that one Cholesky factorization answers at a fraction of an eigensolve.
While best_val > _FILTER_FLOOR = eps, a flip whose factorization at
t = best_val - delta (delta = _FILTER_MARGIN) breaks down is skipped; every
other flip is scored by eigvalsh exactly as without the filter, so the
search returns the same bits.  The skip is safe under these bounds, with
unit roundoff u = 2^-53, n vertices and maximum degree D:

- M'^2 has integer entries of size at most n, exact in float64; subtracting
  t^2 rounds only the diagonal, by at most 2 u D.
- eigvalsh is backward stable: each computed eigenvalue is within
  p(n) u ||M'|| <= p(n) u D of the exact one (LAPACK Users' Guide, 4.7),
  with p(n) a modest function of n, here taken as at most n^2.
- Cholesky runs to completion on any symmetric A with lambda_min(A) >
  n g/(1 - n g) max_i a_ii, g = (n+1) u/(1 - (n+1) u) (Demmel; Higham,
  Accuracy and Stability of Numerical Algorithms, Thm 10.7), and a_ii <= D.

If eigvalsh would score M' above best_val, the exact modulus exceeds
best_val - e with e = n^2 u D, so lambda_min(M'^2 - t^2 I) > (delta - e)
(2 eps - delta - e).  At the search cap (n = 512, D = 511) that is above
9.8e-8, while the breakdown threshold plus the rounding is below 1.5e-8: a
flip that LAPACK would keep is never skipped.

Signing JSON is read by the record reader of graph JSON (cayleydeg.graphs).
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
from .graphs import Graph, _json_records

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
_SIGNING_FILE_CAP = 1 << HUANG_DIMENSION_CAP
_WALK_BLOCK = 1 << 20
# delta and eps of the inertia filter (module docstring): delta is far above
# eigvalsh's error (at most 1.5e-8 at the search cap), and together with
# eps it keeps lambda_min(M'^2 - t^2 I) of a flip that could win above 9.8e-8,
# six times Cholesky's breakdown threshold.  Below eps (a graph whose
# signings are all singular, such as a star) every flip is solved.
_FILTER_MARGIN = 1e-6
_FILTER_FLOOR = 0.05


@dataclass(frozen=True)
class SignedAdjacency:
    """A symmetric {-1,0,1} matrix with zero diagonal, validated on creation."""

    matrix: np.ndarray

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
        us, vs = np.nonzero(self.matrix)  # row-major, so lexicographic
        upper = us < vs
        us, vs = us[upper], vs[upper]
        signs = self.matrix[us, vs]
        return list(zip(us.tolist(), vs.tolist(), signs.tolist()))

    def support(self) -> Graph:
        return Graph(
            self.size, [(u, v) for u, v, _ in self.edges_with_signs()]
        )


def huang_signing(n: int) -> SignedAdjacency:
    """The recursive signing of the n-dimensional hypercube with M M = n I.

    Vertices are bitmasks; block halves split on the most significant bit, so
    the support equals the hypercube adjacency (vertices adjacent when their
    masks differ in exactly one bit).
    """
    if n < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {n}")
    if n > HUANG_DIMENSION_CAP:
        raise BudgetExceeded(f"hypercube dimension {n} exceeds the cap {HUANG_DIMENSION_CAP}")
    b = np.array([[0, 1], [1, 0]], dtype=np.int8)
    for _ in range(n - 1):
        size = b.shape[0]
        eye = np.eye(size, dtype=np.int8)
        b = np.block([[b, eye], [eye, -b]])
    return SignedAdjacency(b)


def _square_size(mat: np.ndarray, caller: str) -> int:
    """The size of a square 2-D array; ValueError naming the caller otherwise."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{caller} requires a square matrix, got shape {mat.shape}")
    return mat.shape[0]


def verify_signing(M: SignedAdjacency | np.ndarray, c: int) -> bool:
    """Exact integer check that M M = c I.  No floating point is involved.

    Entry (u, w) of M M is the sum of M[u,v] M[v,w] over the length-2 walks
    u-v-w, so only the nonzeros are visited and no n x n product is formed.
    """
    mat = M.matrix if isinstance(M, SignedAdjacency) else np.asarray(M)
    if not np.issubdtype(mat.dtype, np.integer):
        raise ValueError("verify_signing requires an integer matrix")
    n = _square_size(mat, "verify_signing")
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
    """Eigenvalues of a signed adjacency matrix, from LAPACK (eigvalsh, which
    returns them in ascending order).

    Sizes up to SPECTRUM_SIZE_CAP are supported.  Input that is not a square
    2-D array raises ValueError, as in verify_signing; RuntimeError means the
    eigensolver failed to converge.
    """
    mat = M.matrix if isinstance(M, SignedAdjacency) else np.asarray(M)
    n = _square_size(mat, "spectrum")
    if n > SPECTRUM_SIZE_CAP:
        raise ValueError(f"matrix size {n} exceeds the spectrum cap {SPECTRUM_SIZE_CAP}")
    if n == 0:
        return Spectrum(np.zeros(0), 0.0)
    try:
        vals = np.linalg.eigvalsh(mat.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    return Spectrum(eigenvalues=vals, min_modulus=float(np.abs(vals).min()))


# ---------------------------------------------------------------------------
# searching for signings that maximize the smallest eigenvalue modulus


@dataclass(frozen=True)
class SearchResult:
    """The best signing found.  `evaluations` counts the sign patterns
    considered, `eigensolves` the eigvalsh calls among them (0 in a result
    built by hand)."""

    signing: SignedAdjacency
    min_modulus: float
    evaluations: int
    method: str
    eigensolves: int = 0


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


def _modulus_exceeds(m: np.ndarray, square: np.ndarray, edge: tuple[int, int], t: float) -> bool:
    """Whether Cholesky factors m m - t^2 I, that is whether min |lambda(m)| > t.

    `square` is the square of m with the sign of `edge` flipped back, so only
    rows and columns u and v of m m differ from it: two vector-matrix
    products patch them in.  Every entry of m m is an integer, exact in
    float64.
    """
    u, v = edge
    a = square.copy()
    a[u] = a[:, u] = m[u] @ m
    a[v] = a[:, v] = m[v] @ m
    a.flat[:: a.shape[0] + 1] -= t * t
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _climb_worker(args: tuple) -> tuple[float, int, int, int]:
    """One hill-climb restart; returns (min_modulus, bits, evaluations,
    eigensolves).

    Each candidate flips one edge of a single float64 matrix in place and
    flips it back after its evaluation.  A candidate is kept only if its
    modulus beats the sweep's best so far, best_val; while best_val >
    _FILTER_FLOOR, a candidate whose inertia test with t = best_val -
    _FILTER_MARGIN fails cannot beat it and skips its eigensolve.
    """
    edges, n, seed, restart, budget = args
    rng = random.Random(f"{seed}:{restart}")
    bits = rng.getrandbits(len(edges))
    m = _signing_from_bits(n, edges, bits).astype(np.float64)
    cur = _min_modulus(m)
    evals = solves = 1
    improved = True
    while improved and evals < budget:
        improved = False
        best_flip = -1
        best_val = cur
        square = m @ m
        for i, edge in enumerate(edges):
            _flip(m, edge)
            if best_val <= _FILTER_FLOOR or _modulus_exceeds(
                m, square, edge, best_val - _FILTER_MARGIN
            ):
                cand = _min_modulus(m)
                solves += 1
                if cand > best_val:
                    best_val = cand
                    best_flip = i
            _flip(m, edge)
            evals += 1
            if evals >= budget:
                break
        if best_flip >= 0:
            bits ^= 1 << best_flip
            _flip(m, edges[best_flip])
            cur = best_val
            improved = True
    return cur, bits, evals, solves


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
    if not exhaustive and budget < 1:
        raise ValueError(f"evaluation budget must be at least 1, got {budget}")
    if not exhaustive and restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    edges = X.edges()
    ne = len(edges)
    if ne == 0:
        zero = np.zeros((X.n, X.n), dtype=np.int8)
        return SearchResult(SignedAdjacency(zero), 0.0, 0, "exhaustive")

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
        return SearchResult(SignedAdjacency(mat), best_val, 1 << ne, "exhaustive", 1 << ne)

    tasks = [(tuple(edges), X.n, seed, r, budget) for r in range(restarts)]
    outcomes = parallel_map(_climb_worker, tasks, jobs=jobs)
    best_val, best_bits = -1.0, 0
    evals = solves = 0
    for val, bits, restart_evals, restart_solves in outcomes:
        evals += restart_evals
        solves += restart_solves
        if val > best_val or (val == best_val and bits < best_bits):
            best_val, best_bits = val, bits
    mat = _signing_from_bits(X.n, edges, best_bits)
    return SearchResult(SignedAdjacency(mat), best_val, evals, "hill-climb", solves)


# ---------------------------------------------------------------------------
# serialization


def signing_to_json(M: SignedAdjacency) -> str:
    """``{"n":N,"signs":[[u,v,s],...]}`` with u < v, sorted lexicographically."""
    obj = {"n": M.size, "signs": [[u, v, s] for u, v, s in M.edges_with_signs()]}
    return json.dumps(obj, separators=(",", ":"))


def signing_from_json(text: str) -> SignedAdjacency:
    """Parse the output of signing_to_json; every entry must be three ints.

    A vertex count above 2^HUANG_DIMENSION_CAP, the size of the largest
    signing that huang_signing writes and verify_signing checks, is refused
    before the matrix is allocated; spectrum applies its own smaller cap."""
    n, signs = _json_records(text, "signing", "signs", 3, _SIGNING_FILE_CAP)
    m = np.zeros((n, n), dtype=np.int8)
    for u, v, s in signs:
        if not 0 <= u < n or not 0 <= v < n or u == v:
            raise ValueError(f"bad edge ({u},{v})")
        if s not in (-1, 1):
            raise ValueError(f"bad sign {s!r} on edge ({u},{v})")
        if m[u, v]:
            raise ValueError(f"duplicate edge ({u},{v})")
        m[u, v] = s
        m[v, u] = s
    return SignedAdjacency(m)


def spectrum_to_csv(spec: Spectrum) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "eigenvalue"])
    for i, v in enumerate(spec.eigenvalues):
        writer.writerow([i, f"{v:.12g}"])
    return buf.getvalue()
