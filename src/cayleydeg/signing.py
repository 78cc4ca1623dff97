"""Signed adjacency matrices, exact verification, spectra, and sign search.

A signing of a graph X assigns +1 or -1 to each edge; the signed adjacency
matrix M is symmetric with zero diagonal and |M| equal to the adjacency
indicator of X.  The property of interest is M M = c I, checked in exact
integer arithmetic, which forces every eigenvalue to have modulus sqrt(c).
For the n-dimensional hypercube such a signing exists: the block recursion
B_1 = [[0,1],[1,0]], B_k = [[B_{k-1}, I], [I, -B_{k-1}]] gives
M[u, u ^ 2^i] = (-1)^popcount(u >> (i + 1)), which huang_signing fills in.

verify_signing walks adjacency lists: each length-2 walk u-v-w adds
M[u,v] M[v,w] to entry (u, w) of M M, so the check costs O(n deg^2) integer
operations after one scan for the nonzeros.  It works in int64 and refuses
a matrix whose row nonzero count times largest squared entry exceeds
2^63 - 1, since that bounds every entry of M M and every partial sum.

spectrum reads the eigenvalues off that identity when it holds.  For an
integer symmetric M whose length-2 walks number at most n^2 (so the check
costs no more than the float copy LAPACK would need), let c be the squared
norm of row 0; if the walk check proves M M = c I, every eigenvalue is
+-sqrt(c) (0 if c = 0), and their counts k+ + k- = n and
(k+ - k-) sqrt(c) = tr M are solved in integers.  Every other input goes to
LAPACK through numpy (eigvalsh).  The tests compare both paths against an
independent cyclic Jacobi solver kept in the test suite.

The hill climb of signing_search keeps a single-edge flip M' only if its
smallest eigenvalue modulus beats the sweep's best so far, best_val, and
most flips cannot.  Flipping edge (u, v) of the sweep's M is the rank-2
update M' = M + B C B^T with B = [e_u e_v], C = d [[0,1],[1,0]] and
d = -2 M_uv.  Haynsworth's inertia additivity (Linear Algebra Appl. 1,
1968), applied to the block matrix
[[M - xI, B], [B^T, -C^-1]] (whose corner -C^-1 has one negative
eigenvalue), counts the eigenvalues of M' below x:

    N(M', x) = N(M, x) + neg(S(x)) - 1,  S(x) = -C^-1 - B^T (M - xI)^-1 B,

with S(x) 2 x 2.  If M = Q Lambda Q^T, entry (a, b) of (M - xI)^-1 is
sum_i Q_ai Q_bi / (lambda_i - x).  So M' has an eigenvalue in [-t, t)
exactly when #{|lambda_i| < t} + neg(S(t)) - neg(S(-t)) >= 1: one eigh per
sweep and one resolvent per value of t give the count for every edge.
While best_val > _FILTER_FLOOR = eps, a flip whose count at
t = best_val - delta (delta = _FILTER_MARGIN) is at least 1 is skipped;
every other flip is scored by eigvalsh exactly as without the screen, so
the search returns the same bits.  The skip is safe under these bounds, with
unit roundoff u = 2^-53, n vertices and maximum degree D:

- eigh and eigvalsh are backward stable (LAPACK Users' Guide, 4.7):
  eigh's Lambda and Q satisfy Q~ Lambda Q~^T = M + E for an orthogonal Q~
  with ||Q - Q~|| <= p(n) u and ||E|| <= p(n) u ||M|| <= p(n) u D, and each
  eigenvalue that eigvalsh computes is within p(n) u D of the exact one,
  with p(n) a modest function of n, here taken as at most n^2.
- So the count is exact for M + E when S is formed from Q~ in exact
  arithmetic.  With gap = min_i |lambda_i - x| (at most 2n), each computed
  entry of S is within beta = 8 n^2 u / gap of that: 2 p(n) u / gap from
  Q - Q~, (n + 4) u / gap from rounding the quotients and the sum, and u / 2
  from adding -1/d, with room to spare for rounding the bands below.
- neg(S) is 1 if det S < 0, and otherwise 0 or 2 by the sign of the trace.
  Entries within beta move det = ac - b^2 of S = [[a, b], [b, c]] by at
  most beta (|a| + |c| + 2|b| + 2 beta) and the trace a + c by 2 beta; their
  evaluation errs by at most 3 u (|ac| + b^2) and u |a + c|.  A count whose
  determinant or trace lies inside these bands is not a skip: that flip is
  solved.  A gap of 0 puts every decision inside the band.

A skip thus shows that M + E + (M' - M) has an eigenvalue of modulus at
most t, so M' has one of modulus at most t + n^2 u D (Weyl), and eigvalsh
scores M' at most t + 2 n^2 u D.  At the search cap (n = 512, D = 511),
2 n^2 u D is below 3e-8, far below delta: a flip that LAPACK would score
above best_val is never skipped.

Signing JSON is read by the record reader of graph JSON (cayleydeg.graphs).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._parallel import parallel_map
from .errors import InvariantBreach, check_cap
from .graphs import CUBE_DIMENSION_CAP as HUANG_DIMENSION_CAP, Graph, _json_records

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

SPECTRUM_SIZE_CAP = 2048
SEARCH_SIZE_CAP = 512
EXHAUSTIVE_EDGE_CAP = 20
_WALK_BLOCK = 1 << 13
_SYMMETRY_TILE = 128  # side of the square tiles _is_symmetric compares
_INT64_MAX = (1 << 63) - 1
# delta and eps of the inertia screen (module docstring): delta is far above
# the 3e-8 that eigh's and eigvalsh's errors add up to at the search cap, and
# eps keeps t = best_val - delta well above 0.  Below eps (a graph whose
# signings are all singular, such as a star) every flip is solved.
_FILTER_MARGIN = 1e-6
_FILTER_FLOOR = 0.05


@dataclass(frozen=True)
class SignedAdjacency:
    """A symmetric {-1,0,1} matrix with zero diagonal, validated on creation
    and kept as a read-only int8 copy of the caller's array."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        _check_signed(m)
        out = m.astype(np.int8, copy=True)
        out.setflags(write=False)
        object.__setattr__(self, "matrix", out)

    @classmethod
    def _adopt(cls, m: np.ndarray) -> "SignedAdjacency":
        """A signing that takes over m, a fresh int8 array that no caller
        keeps: validated as __init__ validates, but not copied."""
        _check_signed(m)
        m.setflags(write=False)
        M = object.__new__(cls)
        object.__setattr__(M, "matrix", m)
        return M

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


def _check_signed(m: np.ndarray) -> None:
    """ValueError unless m is a square symmetric {-1,0,1} integer array with
    zero diagonal; no check builds an n x n temporary."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"signed adjacency must be square, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError("signed adjacency entries must be integers")
    if m.size and (m.min() < -1 or m.max() > 1):
        raise ValueError("signed adjacency entries must be in {-1, 0, 1}")
    if not _is_symmetric(m):
        raise ValueError("signed adjacency must be symmetric")
    if np.diagonal(m).any():
        raise ValueError("signed adjacency must have zero diagonal")


def _is_symmetric(mat: np.ndarray) -> bool:
    """Whether a square array equals its transpose (nan equal to nan).

    Tile (i, j) on or above the diagonal is compared with the transpose of
    tile (j, i), so no temporary exceeds one tile and both tiles stay in
    cache: 13 ms for the q12 signing on a 2-core machine, against 144 ms
    for m != m.T.
    """
    n, t = mat.shape[0], _SYMMETRY_TILE
    return all(
        np.array_equal(mat[i : i + t, j : j + t], mat[j : j + t, i : i + t].T, equal_nan=True)
        for i in range(0, n, t)
        for j in range(i, n, t)
    )


def huang_signing(n: int) -> SignedAdjacency:
    """The recursive signing of the n-dimensional hypercube with M M = n I.

    Vertices are bitmasks; block halves split on the most significant bit, so
    the support equals the hypercube adjacency (vertices adjacent when their
    masks differ in exactly one bit).  The matrix is filled in place from the
    sign rule of the module docstring, with no block recursion.
    """
    if n < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {n}")
    check_cap("hypercube", n, HUANG_DIMENSION_CAP, "dimensions")
    u = np.arange(1 << n)
    m = np.zeros((u.size, u.size), dtype=np.int8)
    parity = np.zeros_like(u)  # popcount(u >> (i + 1)) mod 2
    for i in reversed(range(n)):
        m[u, u ^ (1 << i)] = 1 - 2 * parity
        parity ^= (u >> i) & 1
    return SignedAdjacency._adopt(m)


def _square_size(mat: np.ndarray, caller: str) -> int:
    """The size of a square 2-D array; ValueError naming the caller otherwise."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{caller} requires a square matrix, got shape {mat.shape}")
    return mat.shape[0]


def verify_signing(M: SignedAdjacency | np.ndarray, c: int) -> bool:
    """Exact integer check that M M = c I.  No floating point is involved.

    Entry (u, w) of M M is the sum of M[u,v] M[v,w] over the length-2 walks
    u-v-w, so only the nonzeros are visited and no n x n product is formed.
    ValueError if those sums could leave int64 (module docstring).
    """
    mat = M.matrix if isinstance(M, SignedAdjacency) else np.asarray(M)
    if not np.issubdtype(mat.dtype, np.integer):
        raise ValueError("verify_signing requires an integer matrix")
    _square_size(mat, "verify_signing")
    return _squares_to(mat, c)


def _product_bound(mat: np.ndarray, deg: np.ndarray) -> int:
    """The most nonzeros in a row of mat times its largest squared entry, in
    Python ints: a bound on every entry of M M and every partial sum of one."""
    if mat.size == 0:
        return 0
    top = max(int(mat.max()), -int(mat.min()))
    return int(deg.max()) * top * top


def _squares_to(mat: np.ndarray, c: int) -> bool:
    """verify_signing on a square integer array, by the walk check."""
    n = mat.shape[0]
    rows, cols, vals = _nonzeros(mat)  # row-major, so grouped by row
    deg = np.bincount(rows, minlength=n).astype(np.int32)
    bound = _product_bound(mat, deg)
    if bound > _INT64_MAX:
        raise ValueError(
            f"verify_signing works in int64: entries of M M may reach {bound}, "
            f"above 2^63 - 1"
        )
    row_start = np.cumsum(deg) - deg
    fanout = deg[cols]  # walks that start with each entry
    entry_at_row = np.append(row_start, rows.size)
    # walks[i]: the walks that start with entries before i; int64, since the
    # walks number up to n^3, and cast from fanout in place, not by a copy
    walks = np.zeros(rows.size + 1, dtype=np.int64)
    walks[1:] = fanout
    np.cumsum(walks, out=walks)
    walks_at_row = walks[entry_at_row]
    del walks
    diag = np.zeros(n, dtype=np.int64)
    # Rows of M M are independent, so they are checked in blocks of whole
    # rows with at most _WALK_BLOCK = 2^13 walks (or one row, if it has
    # more): about 0.3 MB of walk arrays, and no slower than 2^16 walks on
    # the q12 signing.  A row has at most n^2 walks, so memory is
    # O(max(_WALK_BLOCK, n^2)) even for dense input, which has n^3 walks.
    r = 0
    while r < n:
        end = np.searchsorted(walks_at_row, walks_at_row[r] + _WALK_BLOCK, side="right")
        r_next = max(r + 1, int(end) - 1)
        lo, hi = entry_at_row[r], entry_at_row[r_next]
        r = r_next
        keys, sums = _walk_sums(rows, cols, vals, row_start, fanout, lo, hi, n)
        on_diag = keys // n == keys % n
        if sums[~on_diag].any():
            return False
        diag[keys[on_diag] // n] = sums[on_diag]
    return bool((diag == c).all())


def _nonzeros(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of mat in row-major order: int32 rows and columns (an
    index is below n < 2^31) and int64 values.  They are read one band of
    rows, about 8 _WALK_BLOCK = 2^16 entries, at a time into arrays sized by
    one count, so np.nonzero's int64 indices never exist for the whole
    matrix."""
    n = mat.shape[0]
    size = np.count_nonzero(mat)
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    vals = np.empty(size, dtype=np.int64)
    band = max(1, 8 * _WALK_BLOCK // max(n, 1))
    at = 0
    for r in range(0, n, band):
        block = mat[r : r + band]
        u, v = np.nonzero(block)
        end = at + u.size
        rows[at:end] = u + r
        cols[at:end] = v
        vals[at:end] = block[u, v]
        at = end
    return rows, cols, vals


def _walk_sums(rows, cols, vals, row_start, fanout, lo, hi, n) -> tuple[np.ndarray, np.ndarray]:
    """The entries of M M reached by the length-2 walks that start with
    nonzeros lo..hi of (rows, cols, vals): keys u n + w, ascending, and sums.

    Walk j pairs entry first[j] = (u, v) with entry second[j] = (v, w).  The
    arrays are built in place and dropped early, so that at most four
    walk-sized arrays are alive at once, and none outlives the call.
    """
    f = fanout[lo:hi]
    first = np.repeat(np.arange(lo, hi), f)
    walk_start = np.cumsum(f) - f
    second = np.repeat(row_start[cols[lo:hi]] - walk_start, f)
    second += np.arange(second.size)
    keys, terms = rows[first].astype(np.int64), vals[first]  # keys reach n^2
    del first
    keys *= n
    keys += cols[second]
    terms *= vals[second]
    del second
    order = np.argsort(keys)
    keys = keys[order]
    terms = terms[order]
    del order
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(terms, starts)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, plus the smallest modulus."""

    eigenvalues: np.ndarray
    min_modulus: float

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def spectrum(M: SignedAdjacency | np.ndarray) -> Spectrum:
    """Eigenvalues of a signed adjacency matrix, in ascending order.

    An integer matrix that the walk check proves to square to c I gets its
    eigenvalues from that certificate (module docstring); any other matrix
    gets them from LAPACK (eigvalsh, which returns them in ascending order).
    Sizes above SPECTRUM_SIZE_CAP raise BudgetExceeded.  Input that is not
    a square 2-D array raises ValueError, as in verify_signing, and so does
    an array that is not symmetric, since eigvalsh reads one triangle only;
    RuntimeError means the eigensolver failed to converge.
    """
    mat = M.matrix if isinstance(M, SignedAdjacency) else np.asarray(M)
    n = _square_size(mat, "spectrum")
    check_cap("signing", n, SPECTRUM_SIZE_CAP)
    if not isinstance(M, SignedAdjacency) and not _is_symmetric(mat):
        raise ValueError("spectrum requires a symmetric matrix")
    if n == 0:
        return Spectrum(np.zeros(0), 0.0)
    if np.issubdtype(mat.dtype, np.integer):
        certified = _certified_spectrum(mat)
        if certified is not None:
            return certified
    try:
        vals = np.linalg.eigvalsh(mat.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    return Spectrum(eigenvalues=vals, min_modulus=float(np.abs(vals).min()))


def _certified_spectrum(mat: np.ndarray) -> Spectrum | None:
    """The spectrum of a nonempty symmetric integer array with M M = c I,
    derived from c and tr M; None if the walk check is dearer than the float
    copy, could leave int64, or fails."""
    n = mat.shape[0]
    deg = np.array([np.count_nonzero(row) for row in mat])  # no n x n temporary
    if int(deg @ deg) > n * n or _product_bound(mat, deg) > _INT64_MAX:
        return None
    c = sum(x * x for x in mat[0].tolist())
    if not _squares_to(mat, c):
        return None
    if c == 0:  # a symmetric M with M M = 0 is 0
        return Spectrum(np.zeros(n), 0.0)
    # k+ + k- = n and (k+ - k-) sqrt(c) = tr M, so k+ - k- is tr M / r when
    # c = r^2, and 0 when sqrt(c) is irrational
    trace = sum(np.diagonal(mat).tolist())
    r = math.isqrt(c)
    diff, rest = divmod(trace, r) if r * r == c else (0, trace)
    if rest or (n + diff) % 2 or abs(diff) > n:
        raise InvariantBreach(f"M M = {c} I but tr M = {trace} fits no spectrum of size {n}")
    root = math.sqrt(c)
    vals = np.full(n, root)
    vals[: (n - diff) // 2] = -root
    return Spectrum(eigenvalues=vals, min_modulus=root)


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


def _flips_that_cannot_win(
    m: np.ndarray, lam: np.ndarray, q: np.ndarray, us: np.ndarray, vs: np.ndarray, t: float
) -> np.ndarray:
    """For each edge (us[k], vs[k]), whether flipping it in m surely leaves
    an eigenvalue of modulus at most t: the inertia count of the module
    docstring, from eigh's decomposition lam, q of m.  A count whose 2 x 2
    determinant or trace is inside its rounding band is not sure."""
    u = np.finfo(np.float64).eps / 2
    half = m[us, vs] / 2  # -1/d
    count = np.count_nonzero(np.abs(lam) < t)  # + neg(S(t)) - neg(S(-t))
    sure = True
    # a zero gap gives an infinite band or nan entries, which compare False
    with np.errstate(all="ignore"):
        for x, sign in ((t, 1), (-t, -1)):
            shift = lam - x
            band = 8 * lam.size**2 * u / np.abs(shift).min()
            r = (q / shift) @ q.T  # the resolvent (M - xI)^-1, n x n
            # S(x) = [[a, b], [b, c]]
            a, c, b = -np.diagonal(r)[us], -np.diagonal(r)[vs], half - r[us, vs]
            ac, bb = a * c, b * b
            det, tr = ac - bb, a + c
            det_band = band * (abs(a) + abs(c) + 2 * abs(b) + 2 * band) + 3 * u * (abs(ac) + bb)
            sure &= (abs(det) > det_band) & ((det < 0) | (abs(tr) > 2 * band + u * abs(tr)))
            count = count + sign * np.where(det < 0, 1, np.where(tr < 0, 2, 0))
    return sure & (count >= 1)


def _climb_worker(args: tuple) -> tuple[float, int, int, int]:
    """One hill-climb restart; returns (min_modulus, bits, evaluations,
    eigensolves).

    A candidate flips one edge of the sweep's float64 matrix M.  It is kept
    only if its modulus beats the sweep's best so far, best_val; while
    best_val > _FILTER_FLOOR, the candidates that the inertia count at
    t = best_val - _FILTER_MARGIN shows cannot beat it skip their eigensolve.
    M is decomposed once per sweep, and the count is redone only when
    best_val improves.  A solved candidate flips M in place and back.
    """
    edges, n, seed, restart, budget = args
    rng = random.Random(f"{seed}:{restart}")
    bits = rng.getrandbits(len(edges))
    m = _signing_from_bits(n, edges, bits).astype(np.float64)
    us, vs = np.array(edges, dtype=np.intp).T
    cur = _min_modulus(m)
    evals = solves = 1
    improved = True
    while improved and evals < budget:
        improved = False
        best_flip = -1
        best_val = cur
        stop = min(len(edges), budget - evals)
        evals += stop
        eig = None
        i = 0
        while i < stop:
            todo = range(i, stop)
            if best_val > _FILTER_FLOOR:
                if eig is None:
                    eig = np.linalg.eigh(m)
                skip = _flips_that_cannot_win(
                    m, *eig, us[i:stop], vs[i:stop], best_val - _FILTER_MARGIN
                )
                todo = (np.flatnonzero(~skip) + i).tolist()
            i = stop
            for j in todo:
                _flip(m, edges[j])
                cand = _min_modulus(m)
                _flip(m, edges[j])
                solves += 1
                if cand > best_val:
                    best_val = cand
                    best_flip = j
                    i = j + 1
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
    check_cap("graph", X.n, SEARCH_SIZE_CAP)
    if not exhaustive and budget < 1:
        raise ValueError(f"evaluation budget must be at least 1, got {budget}")
    if not exhaustive and restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    edges = X.edges()
    ne = len(edges)
    if ne == 0:
        zero = np.zeros((X.n, X.n), dtype=np.int8)
        return SearchResult(SignedAdjacency._adopt(zero), 0.0, 0, "exhaustive")

    if exhaustive:
        check_cap("graph", ne, EXHAUSTIVE_EDGE_CAP, "edges")
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
        return SearchResult(SignedAdjacency._adopt(mat), best_val, 1 << ne, "exhaustive", 1 << ne)

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
    return SearchResult(SignedAdjacency._adopt(mat), best_val, evals, "hill-climb", solves)


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
    n, signs = _json_records(text, "signing", "signs", 3, 1 << HUANG_DIMENSION_CAP)
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
    return SignedAdjacency._adopt(m)


def spectrum_to_csv(spec: Spectrum) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "eigenvalue"])
    for i, v in enumerate(spec.eigenvalues):
        writer.writerow([i, f"{v:.12g}"])
    return buf.getvalue()
