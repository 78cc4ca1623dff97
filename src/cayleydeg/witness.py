"""Constructive witnesses for the induced-degree bound on abelian Cayley graphs.

The pipeline certifies, for a majority subset U of an abelian group G with
symmetric generating set S, a vertex u in U together with k >= sqrt(d)
neighbors of u inside U, where d = t + (number of inverse pairs) counts the
"directions" of S.  It runs in three steps:

1. cover_shift: in a product of cycles, the translates U_r = {r + sum_{i in T}
   e_i : T subset of directions} tile the group with 2^d-fold multiplicity, so
   sum_r |U_r n U| = 2^d |U| exactly.  When |U| > |G|/2 the average beats
   2^(d-1), hence some shift r has |U_r n U| > 2^(d-1).

2. cube_witness: the translate U_r induces a copy of the d-dimensional
   hypercube, and any subset of more than half its vertices contains a vertex
   of induced degree at least sqrt(d).  Brute force extracts the best vertex
   and its in-subset cube neighbors; k^2 >= d is asserted in exact integer
   arithmetic and a failure is a fatal invariant breach.

3. abelian_witness: a general cyclic-product G is pulled back through the
   linear map A : Z_m^d -> G sending basis vector i to the i-th direction
   representative s_i of S, with m the lcm of the moduli.  The lift is
   argued, not tabulated: A is a surjective homomorphism, so its fibers all
   have m^d / |G| points, the preimage of U is again a majority subset, and
   the lifted cover count at r is c[A(r)] for the box sum c of U along
   s_0, ..., s_{d-1} in G.  The shift, the cube copy and the signs are read
   off G with O(d |G|) work besides the 2^d-corner cube step, never building
   the m^d points (make_lift still tabulates A, for tests and tracing).
   Lifted indices are computed for the reported corner only; the corners
   are ordered by a 2^d key of bit flips, so the only budget is 2^d <=
   DEFAULT_LIFT_CAP, refused before any work.
   Checked exactly instead of a fiber count: every q_j = [H_j : H_{j+1}] of
   the chain H_j = <s_j, ..., s_{d-1}> divides m and H_0 = G; sum_g c[g] =
   2^d |U|; the best count exceeds 2^(d-1); the cube copy's membership count
   and its neighbor reconstruction; and, mapped down, the witness is
   re-verified in G (distinct neighbors, all in U, adjacent, k^2 >= d).
   Distinctness of the mapped neighbors holds because the direction
   representatives contain no inverse pair.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ._parallel import parallel_map
from .errors import BudgetExceeded, InvariantBreach
from .graphs import _as_vertex_set
from .groups import FiniteGroup, GeneratingSet, _check_moduli, make_generating_set, make_group

__all__ = [
    "LinearLift",
    "WitnessReport",
    "cover_shift",
    "cover_counts",
    "cube_witness",
    "make_lift",
    "abelian_witness",
    "random_witness_suite",
    "DEFAULT_LIFT_CAP",
]

DEFAULT_LIFT_CAP = 1 << 22


def _membership_array(n: int, U) -> np.ndarray:
    """The int8 indicator of U over 0..n-1, unpacked from its VertexSet mask."""
    data = np.frombuffer(_as_vertex_set(n, U).mask.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(data, count=n, bitorder="little").view(np.int8)


def cover_counts(moduli: Sequence[int], U) -> np.ndarray:
    """|U_r n U| for every shift r, as a flat array in mixed-radix order.

    U_r is the set of r + sum_{i in T} e_i over all subsets T of the
    coordinate directions.  Since distinct T give distinct offsets (every
    modulus is at least 2), the count is a d-fold box sum, computed one axis
    at a time.
    """
    moduli = _check_moduli(moduli)
    return _cover_counts(moduli, _membership_array(math.prod(moduli), U))


def _cover_counts(moduli: tuple[int, ...], ind: np.ndarray) -> np.ndarray:
    """cover_counts for validated moduli and a flat int8 membership array."""
    acc = ind.astype(np.int64).reshape(moduli)
    for axis in range(len(moduli)):
        acc += np.roll(acc, -1, axis=axis)
    return acc.reshape(-1)


def cover_shift(moduli: Sequence[int], U) -> tuple[int, int]:
    """Best covering shift for a majority subset U of a product of cycles.

    Returns (r, count) where count = |U_r n U| is maximal and r is the
    smallest mixed-radix index attaining it.  Requires |U| > |G|/2; the
    returned count then exceeds 2^(d-1), because the covering identity
    sum_r |U_r n U| = 2^d |U| forces the maximum above the average.
    """
    moduli = _check_moduli(moduli)
    return _cover_shift(moduli, _membership_array(math.prod(moduli), U))


def _cover_shift(moduli: tuple[int, ...], ind: np.ndarray) -> tuple[int, int]:
    """cover_shift for validated moduli and a flat int8 membership array."""
    n = ind.size
    d = len(moduli)
    size = int(ind.sum())
    if 2 * size <= n:
        raise ValueError(
            f"subset has {size} of {n} vertices; a strict majority is required"
        )
    counts = _cover_counts(moduli, ind)
    r = int(np.argmax(counts))  # argmax returns the first, i.e. smallest, index
    best = int(counts[r])
    if not best > (1 << (d - 1)):
        raise InvariantBreach(
            f"covering bound failed: best shift count {best} <= 2^{d - 1}"
        )
    return r, best


@dataclass(frozen=True)
class WitnessReport:
    """A certified high-degree vertex inside a majority subset.

    vertex has the k listed neighbors inside the subset, all distinct and all
    adjacent in the Cayley graph.  d and t describe the generating set;
    bound_satisfied records the exact integer comparison k^2 >= d.  The trace
    keeps the covering shift, the size of the chosen cube copy's
    intersection with the subset, the lifted vertex the cube step found, and
    the sign (+1 or -1) chosen for each direction index.
    """

    vertex: int
    neighbors: tuple[int, ...]
    k: int
    d: int
    t: int
    bound_satisfied: bool
    trace: dict
    checks: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


def cube_witness(moduli: Sequence[int], U) -> WitnessReport:
    """Witness for a majority subset of a product of cycles with S = {+-e_i}.

    Picks the covering shift r, restricts U to the hypercube copy
    {r + sum_{i in T} e_i}, and brute-forces the member of maximum induced
    degree there (ties to the smallest group index).  U is a VertexSet or an
    iterable of mixed-radix member indices, never a 0/1 grid.  The
    more-than-half occupancy of the cube guarantees k^2 >= d; violating that
    is treated as an internal invariant breach.
    """
    moduli = _check_moduli(moduli)
    ind = _membership_array(math.prod(moduli), U)
    r, cube_points = _cover_shift(moduli, ind)
    # verts[T] is the mixed-radix index of r + e_T for every subset-mask T
    # (bit i of T is coordinate i), built by doubling so no 2^d x d table is
    # materialized
    verts = np.zeros(1, dtype=np.int64)
    stride = ind.size
    for m, x in zip(moduli, np.unravel_index(r, moduli)):
        stride //= m
        verts = np.concatenate([verts + int(x) * stride, verts + (int(x) + 1) % m * stride])
    u_mask, k, steps = _cube_best(len(moduli), verts, ind[verts].astype(bool), cube_points)
    u = int(verts[u_mask])
    return WitnessReport(
        vertex=u,
        neighbors=tuple(int(verts[nb_mask]) for _, _, nb_mask in steps),
        k=k,
        d=len(moduli),
        t=sum(1 for m in moduli if m == 2),
        bound_satisfied=True,
        trace={
            "shift": r,
            "cube_points": cube_points,
            "lifted_vertex": u,
            "signs": [(i, sign) for i, sign, _ in steps],
        },
        checks={"adjacency": True, "distinct": True, "bound": True},
    )


def _cube_best(
    d: int, key: np.ndarray, member: np.ndarray, cube_points: int
) -> tuple[int, int, list[tuple[int, int, int]]]:
    """The hypercube half of the witness, shared by both certificates.

    key[T] orders the d-cube corner with subset-mask T as its lifted index
    does, and member[T] says whether that corner lies in the subset.  Returns
    (u_mask, k, steps): the member of maximum induced cube degree k (ties to
    the smallest key) and one (i, sign, neighbor mask) step per in-subset
    cube neighbor, in direction order.
    """
    if int(member.sum()) != cube_points:
        raise InvariantBreach("cube membership count disagrees with cover count")

    size = 1 << d
    idx = np.arange(size, dtype=np.int64)
    deg = np.zeros(size, dtype=np.int32)
    for i in range(d):
        deg += member[idx ^ (1 << i)]
    deg_members = np.where(member, deg, -1)
    k = int(deg_members.max())
    if k * k < d:
        raise InvariantBreach(
            f"max induced cube degree {k} fails k^2 >= d for d = {d}"
        )

    cand = np.flatnonzero(deg_members == k)
    u_mask = int(cand[np.argmin(key[cand])])

    steps = []
    for i in range(d):
        nb_mask = u_mask ^ (1 << i)
        if member[nb_mask]:
            steps.append((i, -1 if (u_mask >> i) & 1 else 1, nb_mask))
    if len(steps) != k:
        raise InvariantBreach("neighbor reconstruction disagrees with cube degree")
    return u_mask, k, steps


@dataclass(frozen=True)
class LinearLift:
    """The linear map A : Z_m^d -> G with A(e_i) = images[i].

    m is the lcm of the moduli of G (so every element order divides m), and
    values[x] tabulates A over all m^d source points in mixed-radix order
    with coordinate 0 most significant.  All fibers have size m^d / |G|.
    """

    group: FiniteGroup
    m: int
    d: int
    images: tuple[int, ...]
    values: np.ndarray
    fiber_size: int

    @property
    def source_size(self) -> int:
        return self.m**self.d


def _check_lift(G: FiniteGroup, S: GeneratingSet) -> tuple[int, int]:
    """(m, d) for the lift of S.  Refuses a group that is not a cyclic
    product and a set that does not generate, before any work."""
    if not G.moduli:
        raise ValueError("lifts are defined for cyclic-product groups only")
    if not S.generates:
        raise ValueError("the generating set does not generate; fibers would be unequal")
    return math.lcm(*G.moduli), S.d


def make_lift(G: FiniteGroup, S: GeneratingSet, cap: int = DEFAULT_LIFT_CAP) -> LinearLift:
    """Build the lift of a generating set of a cyclic-product group.

    Direction representatives are the order-2 elements of S followed by one
    member per inverse pair, matching GeneratingSet.images().  Errors if the
    source m^d exceeds cap or S does not generate.
    """
    m, d = _check_lift(G, S)
    size = m**d
    if size > cap:
        raise BudgetExceeded(
            f"lift source size {m}^{d} = {size} exceeds the cap {cap}"
        )
    images = S.images()

    # appending coordinate i as the least significant digit: column j of the
    # new table is L_s applied j times to the old one, for s = images[i]
    values = np.zeros(1, dtype=np.intp)
    for row in G.translations(images):
        grown = np.empty((values.size, m), dtype=np.intp)
        grown[:, 0] = values
        for j in range(1, m):
            grown[:, j] = row[grown[:, j - 1]]
        values = grown.reshape(-1)

    fibers = np.bincount(values, minlength=G.order)
    expected = size // G.order
    if size % G.order != 0 or not (fibers == expected).all():
        raise InvariantBreach(
            "lift fibers are not uniform despite a generating set"
        )
    return LinearLift(
        group=G, m=m, d=d, images=images, values=values, fiber_size=expected
    )


def _least_preimage_order(
    G: FiniteGroup, images: tuple[int, ...], m: int
) -> tuple[np.ndarray, list[int]]:
    """The elements of G sorted by their least preimage under the lift A,
    with the radices q_j of that order.

    H_j = <s_j, ..., s_{d-1}> is the disjoint union of the cosets
    k*s_j + H_{j+1} for k < q_j, the order of s_j modulo H_{j+1}.  The least
    preimage of k*s_j + h has digit j equal to k and the least preimage of h
    after it, so listing H_{j+1} once per coset, k ascending, lists H_j in
    least-preimage order.  Position p of the final list then has the
    preimage whose digits are p in mixed radix (q_0, ..., q_{d-1}).  Each
    step is a sum of residue coordinates: at most rank*|G| entries, no
    Python loop over k.  H_0 = G and every q_j dividing m (the uniform
    fibers of size m^d/|G| that make_lift counts) are checked exactly.
    """
    coords = G._coords
    mods = np.array(G.moduli)[:, None]
    ks = np.arange(m + 1)
    listed = np.zeros(1, dtype=np.intp)  # H_d = {0}
    in_h = np.zeros(G.order, dtype=bool)
    in_h[0] = True
    radices = []
    for s in reversed(images):
        multiples = coords[:, s, None] * ks % mods  # k*s for k = 0..m
        reached = in_h[np.ravel_multi_index(tuple(multiples[:, 1:]), G.moduli)]
        q = 1 + int(np.argmax(reached))  # the least k >= 1 with k*s in H_{j+1}
        cosets = (multiples[:, :q, None] + coords[:, None, listed]) % mods[:, :, None]
        listed = np.ravel_multi_index(tuple(cosets.reshape(len(G.moduli), -1)), G.moduli)
        in_h[listed] = True
        radices.append(q)
    radices.reverse()
    if listed.size != G.order or not in_h.all() or any(m % q for q in radices):
        raise InvariantBreach("lift fibers are not uniform despite a generating set")
    return listed, radices


def abelian_witness(G: FiniteGroup, S: GeneratingSet, U) -> WitnessReport:
    """Certified witness for a majority subset of a cyclic-product Cayley graph.

    Runs the cube witness of the preimage of U in Z_m^d and maps the result
    down, working on G alone: the lifted cover count at r is c[A(r)] for
    the box sum c of U along the direction representatives, the shift is
    the least preimage of the first maximum of c, and the cube copy is read
    off A(r) along the translation rows.  Lifted indices are computed for
    the reported corner only; the cube's 2^d corners, at most
    DEFAULT_LIFT_CAP, are the only budget.  For each chosen direction the +1
    sign is preferred when both neighbors u +- s_i are in U.  The neighbors
    are re-verified: membership in U, pairwise distinctness, adjacency via
    the group operation, and the exact bound k^2 >= d.
    """
    if not G.moduli:
        raise ValueError("abelian witnesses require a cyclic-product group")
    if 1 << S.d > DEFAULT_LIFT_CAP:
        raise BudgetExceeded(
            f"witness cube has 2^{S.d} = {1 << S.d} corners, above the cap {DEFAULT_LIFT_CAP}"
        )
    u_ind = _membership_array(G.order, U)
    size = int(np.count_nonzero(u_ind))
    if 2 * size <= G.order:
        raise ValueError(
            f"subset has {size} of {G.order} vertices; a strict majority is required"
        )
    m, d = _check_lift(G, S)
    images = S.images()
    rows = G.translations(images)
    listed, radices = _least_preimage_order(G, images, m)

    counts = u_ind.astype(np.int64)
    for row in rows:
        counts += counts[row]
    if int(counts.sum()) != (1 << d) * size:
        raise InvariantBreach("covering identity failed: the cover counts do not sum to 2^d |U|")
    p = int(np.argmax(counts[listed]))  # the first maximum has the least preimage
    cube_points = int(counts[listed[p]])
    if not cube_points > (1 << (d - 1)):
        raise InvariantBreach(
            f"covering bound failed: best shift count {cube_points} <= 2^{d - 1}"
        )
    digits = [int(x) for x in np.unravel_index(p, radices)]
    r = sum(x * m ** (d - 1 - j) for j, x in enumerate(digits))

    # key orders the corners as their lifted indices do: bit j of corner T
    # raises digit j, unless that digit is m - 1 and wraps to 0
    corners = listed[p : p + 1]
    key = np.zeros(1, dtype=np.int64)
    for j, row in enumerate(rows):
        corners = np.concatenate([corners, row[corners]])
        w = 1 << (d - 1 - j)
        lo, hi = (w, 0) if digits[j] == m - 1 else (0, w)
        key = np.concatenate([key + lo, key + hi])
    u_mask, k, steps = _cube_best(d, key, u_ind[corners].astype(bool), cube_points)
    h = sum((x + (u_mask >> j & 1)) % m * m ** (d - 1 - j) for j, x in enumerate(digits))
    u = int(corners[u_mask])

    signs, neighbors = [], []
    for i, _, nb_mask in steps:
        # corners[nb_mask] is u - s_i whenever u + s_i is not in U
        plus = int(rows[i, u])
        sign, v = (1, plus) if u_ind[plus] else (-1, int(corners[nb_mask]))
        signs.append((i, sign))
        neighbors.append(v)

    checks = {}
    checks["distinct"] = len(set(neighbors)) == k and u not in neighbors
    in_u = all(u_ind[v] for v in (u, *neighbors))
    # the Cayley neighbors of u are s*u = u*s for s in S
    adjacency = set(neighbors) <= set(G.translations([u])[0, S.sorted_elements()].tolist())
    checks["adjacency"] = bool(adjacency and in_u)
    checks["bound"] = k * k >= d
    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        raise InvariantBreach(f"witness verification failed: {', '.join(failed)}")

    return WitnessReport(
        vertex=u,
        neighbors=tuple(neighbors),
        k=k,
        d=d,
        t=S.t,
        bound_satisfied=True,
        trace={
            "shift": r,
            "cube_points": cube_points,
            "lifted_vertex": h,
            "signs": signs,
        },
        checks=checks,
    )


def _suite_worker(item: tuple[int, int]) -> str:
    """One randomized instance: build, certify, and describe it on one line."""
    index, seed = item
    rng = random.Random(f"{seed}:{index}")
    # every 25th instance allows a larger lift source m^d, which the
    # certificate never builds
    size_target = (1 << 20) if index % 25 == 24 else (1 << 16)

    while True:
        k = rng.randint(1, 3)
        moduli = [rng.randint(2, 8) for _ in range(k)]
        m = math.lcm(*moduli)
        d_max = int(math.log(size_target) / math.log(m))
        if d_max >= k:
            break

    G = make_group(moduli)
    inverses = G.inverses.tolist()
    elems = set()
    for i in range(k):
        g = G.encode([1 if j == i else 0 for j in range(k)])
        elems |= {g, inverses[g]}
    # extras keep m^d under the size target: each unit adds at most one image
    room = min(2, d_max - k)
    n_extra = rng.randint(0, room) if room > 0 else 0
    if n_extra:
        pool = [g for g in range(1, G.order) if g not in elems]
        rng.shuffle(pool)
        for g in pool[:n_extra]:
            elems |= {g, inverses[g]}

    S = make_generating_set(G, sorted(elems))
    U = sorted(rng.sample(range(G.order), G.order // 2 + 1))
    rep = abelian_witness(G, S, U)

    if 2 * rep.k * rep.k < S.size + S.t:
        raise InvariantBreach(
            f"instance {index}: 2k^2 = {2 * rep.k * rep.k} < |S| + t = {S.size + S.t}"
        )
    gens = ",".join(map(str, S.sorted_elements()))
    return (
        f"{index:04d} group={G.name} S=[{gens}] |U|={len(U)} "
        f"u={rep.vertex} k={rep.k} d={rep.d} t={rep.t} ok"
    )


def random_witness_suite(count: int = 200, seed: int = 0, jobs: int = 1) -> list[str]:
    """Certify `count` random abelian instances; returns one report line each.

    Instance I is derived from (seed, I) alone, so the output is identical
    for any job count.  Any failed certificate raises InvariantBreach.
    """
    if count < 1:
        raise ValueError("count must be positive")
    items = [(i, seed) for i in range(count)]
    return parallel_map(_suite_worker, items, jobs)
