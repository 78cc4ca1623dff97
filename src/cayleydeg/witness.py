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
   representative of S, with m the lcm of the moduli.  A is surjective with
   fibers of equal size m^d / |G| (verified exactly by counting), so the
   preimage of U is again a majority subset and the cube witness maps down to
   a witness in G.  Distinctness of the mapped neighbors holds because the
   direction representatives contain no inverse pair.
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
from .graphs import VertexSet, _as_vertex_set
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


def _membership_array(moduli: Sequence[int], U) -> np.ndarray:
    """Normalize U (VertexSet, iterable, or boolean/int array) to an int8 grid."""
    n = math.prod(moduli)
    if isinstance(U, np.ndarray):
        if U.size != n:
            raise ValueError(f"membership array has {U.size} entries, expected {n}")
        ind = (U.reshape(n) != 0).astype(np.int8)
    else:
        members = _as_vertex_set(n, U).members() if isinstance(U, VertexSet) else list(U)
        ind = np.zeros(n, dtype=np.int8)
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            ind[v] = 1
    return ind


def cover_counts(moduli: Sequence[int], U) -> np.ndarray:
    """|U_r n U| for every shift r, as a flat array in mixed-radix order.

    U_r is the set of r + sum_{i in T} e_i over all subsets T of the
    coordinate directions.  Since distinct T give distinct offsets (every
    modulus is at least 2), the count is a d-fold box sum, computed one axis
    at a time.
    """
    moduli = _check_moduli(moduli)
    return _cover_counts(moduli, _membership_array(moduli, U))


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
    return _cover_shift(moduli, _membership_array(moduli, U))


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
    degree there (ties to the smallest group index).  The more-than-half
    occupancy of the cube guarantees k^2 >= d; violating that is treated as
    an internal invariant breach.
    """
    moduli = _check_moduli(moduli)
    r, cube_points, u, k, steps = _cube_vertex(moduli, _membership_array(moduli, U))
    return WitnessReport(
        vertex=u,
        neighbors=tuple(nb for _, _, nb in steps),
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


def _cube_vertex(
    moduli: tuple[int, ...], ind: np.ndarray
) -> tuple[int, int, int, int, list[tuple[int, int, int]]]:
    """The cube step of cube_witness for validated moduli and a flat int8
    membership array.

    Returns (r, cube_points, u, k, steps): the covering shift and its count,
    the chosen member u of the cube copy at r with its k in-subset cube
    neighbors, and one (i, sign, neighbor) step per such neighbor, in
    direction order, where neighbor = u + sign * e_i.
    """
    d = len(moduli)
    r, cube_points = _cover_shift(moduli, ind)

    # group index of r + e_T for each subset-mask T (bit i of the mask is
    # coordinate i); built by doubling so no 2^d x d table is materialized
    pv = [1] * d
    for i in range(d - 2, -1, -1):
        pv[i] = pv[i + 1] * moduli[i + 1]
    r_res = [(r // pv[i]) % moduli[i] for i in range(d)]
    verts = np.zeros(1, dtype=np.int64)
    for i in range(d):
        zero_off = r_res[i] * pv[i]
        one_off = ((r_res[i] + 1) % moduli[i]) * pv[i]
        verts = np.concatenate([verts + zero_off, verts + one_off])

    member = ind[verts].astype(bool)
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
    u_mask = int(cand[np.argmin(verts[cand])])

    steps = []
    for i in range(d):
        nb_mask = u_mask ^ (1 << i)
        if member[nb_mask]:
            steps.append((i, -1 if (u_mask >> i) & 1 else 1, int(verts[nb_mask])))
    if len(steps) != k:
        raise InvariantBreach("neighbor reconstruction disagrees with cube degree")
    return r, cube_points, int(verts[u_mask]), k, steps


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


def make_lift(G: FiniteGroup, S: GeneratingSet, cap: int = DEFAULT_LIFT_CAP) -> LinearLift:
    """Build the lift of a generating set of a cyclic-product group.

    Direction representatives are the order-2 elements of S followed by one
    member per inverse pair, matching GeneratingSet.images().  Errors if the
    source m^d exceeds cap or S does not generate.
    """
    if not G.moduli:
        raise ValueError("lifts are defined for cyclic-product groups only")
    if not S.generates:
        raise ValueError("the generating set does not generate; fibers would be unequal")
    m = math.lcm(*G.moduli)
    d = S.d
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


def abelian_witness(
    G: FiniteGroup,
    S: GeneratingSet,
    U,
    cap: int = DEFAULT_LIFT_CAP,
) -> WitnessReport:
    """Certified witness for a majority subset of a cyclic-product Cayley graph.

    Lifts U through the linear map, runs the cube witness in Z_m^d, and maps
    the result down.  For each chosen direction the +1 sign is preferred when
    both lifted neighbors land in the preimage.  The mapped neighbors are
    re-verified: membership in U, pairwise distinctness, adjacency via the
    group operation, and the exact bound k^2 >= d.
    """
    if not G.moduli:
        raise ValueError("abelian witnesses require a cyclic-product group")
    U = _as_vertex_set(G.order, U)
    if 2 * U.size <= G.order:
        raise ValueError(
            f"subset has {U.size} of {G.order} vertices; a strict majority is required"
        )
    lift = make_lift(G, S, cap=cap)
    m, d = lift.m, lift.d

    u_ind = np.zeros(G.order, dtype=np.int8)
    u_ind[U.members()] = 1
    pre = u_ind[lift.values]

    r, cube_points, h, k, steps = _cube_vertex((m,) * d, pre)

    signs = []
    lifted_neighbors = []
    for i, _, _ in steps:
        place = m ** (d - 1 - i)  # coordinate i of Z_m^d, coordinate 0 most significant
        digit = (h // place) % m
        for sign in (1, -1):
            h_next = h + ((digit + sign) % m - digit) * place
            if pre[h_next]:
                signs.append((i, sign))
                lifted_neighbors.append(h_next)
                break
        else:
            raise InvariantBreach(
                f"neither lifted neighbor along direction {i} is in the preimage"
            )

    u = int(lift.values[h])
    neighbors = [int(lift.values[hn]) for hn in lifted_neighbors]

    checks = {}
    checks["distinct"] = len(set(neighbors)) == k and u not in neighbors
    in_u = u in U and all(v in U for v in neighbors)
    # the Cayley neighbors of u are s*u for s in S
    adjacency = set(neighbors) <= set(G.translations(S.sorted_elements())[:, u].tolist())
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
    # every 25th instance exercises a larger lift
    size_target = (1 << 20) if index % 25 == 24 else (1 << 16)

    while True:
        k = rng.randint(1, 3)
        moduli = [rng.randint(2, 8) for _ in range(k)]
        m = math.lcm(*moduli)
        d_max = int(math.log(size_target) / math.log(m))
        if d_max >= k:
            break

    G = make_group(moduli)
    elems = set()
    for i in range(k):
        g = G.encode([1 if j == i else 0 for j in range(k)])
        elems.add(g)
        elems.add(G.inv(g))
    # extras keep m^d under the size target: each unit adds at most one image
    room = min(2, d_max - k)
    n_extra = rng.randint(0, room) if room > 0 else 0
    if n_extra:
        pool = [g for g in range(1, G.order) if g not in elems]
        rng.shuffle(pool)
        for g in pool[:n_extra]:
            elems.add(g)
            elems.add(G.inv(g))

    S = make_generating_set(G, sorted(elems))
    U = sorted(rng.sample(range(G.order), G.order // 2 + 1))
    rep = abelian_witness(G, S, U, cap=size_target)

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
