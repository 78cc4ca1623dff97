"""Constructive witnesses for the induced-degree bound on abelian Cayley graphs.

The pipeline certifies, for a majority subset U of an abelian group G with
symmetric generating set S, a vertex u in U together with k >= sqrt(d)
neighbors of u inside U, where d = t + (number of inverse pairs) counts the
"directions" of S.  It runs in three steps:

1. cover_shift: in a product of cycles, the translates U_r = {r + sum_{i in T}
   e_i : T subset of directions} tile the group with 2^d-fold multiplicity, so
   sum_r |U_r n U| = 2^d |U| exactly.  When |U| > |G|/2 the average beats
   2^(d-1), hence some shift r has |U_r n U| > 2^(d-1).  Both certificates
   check the identity and the bound in one place, _best_cover.

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

The certificate is one kernel, _certify, that takes a batch of subsets of
Cayley graphs whose sets share the direction count d, end to end in one
flat membership array, and runs every step above, the checks included,
once on the whole batch: the batch is the disjoint union of one copy of
Cay(G, S) per subset, with each key's translation rows and listing shifted
to its rows' offsets.  The cube step is shared with cube_witness.
abelian_witness is the kernel on one key and one row; random_witness_suite
groups its instances by (presentation, S) key and certifies the keys of
one d in batches of up to _BATCH_ENTRIES membership entries, so the
kernel's fixed cost is paid once a batch, not once a graph.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from ._parallel import parallel_map
from .errors import InvariantBreach, check_cap
from .graphs import _VERTEX_SET_CAP, _as_vertex_set
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

# one cap for the lift's m^d points, the witness cube's 2^d corners and the
# points of a product of cycles, which is also the most vertices a listed
# subset may range over
DEFAULT_LIFT_CAP = _VERTEX_SET_CAP
# above every corner key, for the cube step's argmin over its candidates
_NO_KEY = (1 << 63) - 1


def _membership_array(n: int, U) -> np.ndarray:
    """The int8 indicator of U over 0..n-1, unpacked from its VertexSet mask."""
    data = np.frombuffer(_as_vertex_set(n, U).mask.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(data, count=n, bitorder="little").view(np.int8)


def _grid_indicator(moduli: Sequence[int], U) -> tuple[tuple[int, ...], np.ndarray]:
    """Validated moduli and the int8 indicator of U over their product,
    which is refused above DEFAULT_LIFT_CAP points before any allocation."""
    moduli = _check_moduli(moduli)
    size = math.prod(moduli)
    check_cap("product of cycles", size, DEFAULT_LIFT_CAP)
    return moduli, _membership_array(size, U)


def cover_counts(moduli: Sequence[int], U) -> np.ndarray:
    """|U_r n U| for every shift r, as a flat int32 array in mixed-radix order.

    U_r is the set of r + sum_{i in T} e_i over all subsets T of the
    coordinate directions.  Since distinct T give distinct offsets (every
    modulus is at least 2), the count is a d-fold box sum, computed one axis
    at a time.  A product of moduli above DEFAULT_LIFT_CAP raises
    BudgetExceeded before U is read, here and in cover_shift and cube_witness.
    """
    return _cover_counts(*_grid_indicator(moduli, U))


def _cover_counts(moduli: tuple[int, ...], ind: np.ndarray) -> np.ndarray:
    """cover_counts for validated moduli and a flat int8 membership array;
    int32, since no count exceeds 2^d <= DEFAULT_LIFT_CAP.

    Each axis is added in place, never through a rolled copy of the whole
    array: slice i + 1 into slice i in ascending order, then a saved copy
    of the first slice into the last, so at most 1/m of the array extra."""
    acc = ind.astype(np.int32)
    post = acc.size
    for m in moduli:
        post //= m
        a = acc.reshape(-1, m, post)
        first = a[:, 0].copy()
        for i in range(m - 1):
            a[:, i] += a[:, i + 1]
        a[:, m - 1] += first
        del first  # free before the next axis saves its own
    return acc


def cover_shift(moduli: Sequence[int], U) -> tuple[int, int]:
    """Best covering shift for a majority subset U of a product of cycles.

    Returns (r, count) where count = |U_r n U| is maximal and r is the
    smallest mixed-radix index attaining it.  Requires |U| > |G|/2; the
    returned count then exceeds 2^(d-1), because the covering identity
    sum_r |U_r n U| = 2^d |U| forces the maximum above the average.
    """
    return _cover_shift(*_grid_indicator(moduli, U))


def _cover_shift(moduli: tuple[int, ...], ind: np.ndarray) -> tuple[int, int]:
    """cover_shift for validated moduli and a flat int8 membership array."""
    starts, lengths = np.zeros(1, dtype=np.intp), np.array([ind.size])
    sizes = _majority(ind, starts, lengths)
    r, best = _best_cover(_cover_counts(moduli, ind), starts, lengths, sizes, len(moduli))
    return int(r[0]), int(best[0])


def _majority(member: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """|U| for each segment of a flat int8 membership array, the segments
    starting at starts with the given lengths; refuses the first segment
    whose U is not a strict majority of its vertices."""
    sizes = np.add.reduceat(member, starts, dtype=np.intp)
    small = 2 * sizes <= lengths
    if small.any():
        r = int(np.argmax(small))
        raise ValueError(
            f"subset has {sizes[r]} of {lengths[r]} vertices; a strict majority is required"
        )
    return sizes


def _best_cover(
    counts: np.ndarray, starts: np.ndarray, lengths: np.ndarray, sizes: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """(i, counts[i]) at the first maximum of each segment of flat cover
    counts, for subsets of the given sizes along d directions, checking
    sum(counts) = 2^d |U| and counts[i] > 2^(d-1) exactly on every segment:
    the covering step of both certificates.  i is a flat index."""
    if (np.add.reduceat(counts, starts, dtype=np.int64) != sizes << d).any():
        raise InvariantBreach("covering identity failed: the cover counts do not sum to 2^d |U|")
    best = np.maximum.reduceat(counts, starts)
    low = best <= 1 << (d - 1)
    if low.any():
        raise InvariantBreach(
            f"covering bound failed: best shift count {best[np.argmax(low)]} <= 2^{d - 1}"
        )
    # every segment holds its maximum, so the first hit at or after its
    # start is its own first maximum
    hits = (counts == best.repeat(lengths)).nonzero()[0]
    return hits[hits.searchsorted(starts)], best


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
    moduli, ind = _grid_indicator(moduli, U)
    d = len(moduli)
    r, cube_points = _cover_shift(moduli, ind)
    # verts[T] is the mixed-radix index of r + e_T for every subset-mask T
    # (bit i of T is coordinate i), built by doubling so no 2^d x d table is
    # materialized
    verts = np.zeros(1, dtype=np.int64)
    stride = ind.size
    for m, x in zip(moduli, np.unravel_index(r, moduli)):
        stride //= m
        verts = np.concatenate([verts + int(x) * stride, verts + (int(x) + 1) % m * stride])
    u_mask, k, has = _cube_step(d, verts[None], ind[verts].astype(bool)[None], [cube_points])
    u_mask, k = int(u_mask[0]), int(k[0])
    steps = [i for i in range(d) if has[0, i]]
    u = int(verts[u_mask])
    return WitnessReport(
        vertex=u,
        neighbors=tuple(int(verts[u_mask ^ 1 << i]) for i in steps),
        k=k,
        d=d,
        t=sum(1 for m in moduli if m == 2),
        bound_satisfied=True,
        trace={
            "shift": r,
            "cube_points": cube_points,
            "lifted_vertex": u,
            "signs": [(i, -1 if u_mask >> i & 1 else 1) for i in steps],
        },
        checks={"adjacency": True, "distinct": True, "bound": True},
    )


def _cube_step(
    d: int, key: np.ndarray, member: np.ndarray, cube_points
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hypercube half of the witness, shared by both certificates, on
    k cube copies at once.

    Row r of key orders the d-cube corners, subset-mask T at column T, as
    their lifted indices do, and row r of member says which corners lie in
    subset r, which cube_points[r] counts.  Returns (u_mask, deg, has): the
    member of maximum induced cube degree in each row (ties to the smallest
    key), that degree, and a k x d array whose entry i says whether the
    corner u_mask ^ 2^i is in the subset too, one step per direction.  The
    degrees add one direction at a time, by swapping the halves of an axis
    of length 2, so no index table of the corners is built.
    """
    if (member.sum(axis=1) != cube_points).any():
        raise InvariantBreach("cube membership count disagrees with cover count")

    deg = np.zeros(member.shape, dtype=np.int32)
    for i in range(d):
        shape = (len(member), -1, 2, 1 << i)  # axis 2 is bit i of T
        view = deg.reshape(shape)
        view += member.reshape(shape)[:, :, ::-1]
    deg = np.where(member, deg, -1)
    best = deg.max(axis=1)
    low = best * best < d
    if low.any():
        raise InvariantBreach(
            f"max induced cube degree {best[np.argmax(low)]} fails k^2 >= d for d = {d}"
        )

    u_mask = np.where(deg == best[:, None], key, _NO_KEY).argmin(axis=1)
    has = member[np.arange(len(member))[:, None], u_mask[:, None] ^ (1 << np.arange(d))]
    if (has.sum(axis=1) != best).any():
        raise InvariantBreach("neighbor reconstruction disagrees with cube degree")
    return u_mask, best, has


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
    check_cap("lift source", size, cap, "points")
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
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The elements of G sorted by their least preimage under the lift A, as
    a read-only array, with the radices q_j of that order.

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
    if listed.size != G.order or not in_h.all() or any(m % q for q in radices):
        raise InvariantBreach("lift fibers are not uniform despite a generating set")
    # cached as int16, like the residues: every index is below
    # MAX_GROUP_ORDER < 2^15
    listed = listed.astype(np.int16)
    listed.flags.writeable = False
    return listed, tuple(reversed(radices))


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
    the group operation, and the exact bound k^2 >= d.  This is the
    certificate kernel _certify on one key and one row.
    """
    if not G.moduli:
        raise ValueError("abelian witnesses require a cyclic-product group")
    d = S.d
    check_cap("witness cube", 1 << d, DEFAULT_LIFT_CAP, "corners")
    u, k, nbrs, has, plus_in, digits, u_mask, cube_points = [
        a.tolist()[0] for a in _certify(d, [(G, S, 1)], _membership_array(G.order, U))]
    m = math.lcm(*G.moduli)
    shift = lifted = 0  # the shift and u's corner in Z_m^d, by Horner's rule
    for j, x in enumerate(digits):
        shift = shift * m + x
        lifted = lifted * m + (x + (u_mask >> (d - 1 - j) & 1)) % m
    steps = [i for i in range(d) if has[i]]
    return WitnessReport(
        vertex=u,
        neighbors=tuple([nbrs[i] for i in steps]),
        k=k,
        d=d,
        t=S.t,
        bound_satisfied=True,
        trace={
            "shift": shift,
            "cube_points": cube_points,
            "lifted_vertex": lifted,
            "signs": [(i, 1 if plus_in[i] else -1) for i in steps],
        },
        checks={"distinct": True, "adjacency": True, "bound": True},
    )


def _certify(
    d: int, keys: Sequence[tuple[FiniteGroup, GeneratingSet, int]], member: np.ndarray
) -> tuple[np.ndarray, ...]:
    """abelian_witness for a batch of subsets of Cayley graphs whose sets
    all have d directions, for cyclic products G whose 2^d cube corners are
    within DEFAULT_LIFT_CAP.

    keys lists (G, S, count) and member is the flat int8 membership of all
    the subsets end to end: count rows of |G| entries for each key in turn.
    So the batch is one Cayley graph, the disjoint union of one copy of
    Cay(G, S) per row, and each key's direction translation rows and cached
    least-preimage listing are shifted by each of its rows' offsets.  Every
    step runs once on the whole batch: the box sums, the first maximum of
    each row in least-preimage order, the digits in each row's own radices
    and the corner keys from its own m, the corners, the cube step, the
    signs and every re-verification.  Two translation tables are read per
    key: the direction rows, from which the cube corners and the neighbors
    are taken, and, for the adjacency check at u, the rows of all of S, a
    read of its own.

    Returns (u, k, nbrs, has, plus_in, digits, u_mask, cube_points), one
    row per subset: the vertex u of G and its degree k; per direction j,
    the neighbor across j, whether it is in U (a step of the witness) and
    whether u + s_j is; the digits of the shift's least preimage; the
    corner of u in the cube copy; and the copy's count of members.  The
    batch's large arrays are dropped as soon as they are read.
    """
    # one entry per row: the rows of a key share its arrays
    tables, listings, info = [], [], []
    for G, S, count in keys:
        m, _ = _check_lift(G, S)
        images = S.images()
        listed, radices = G._shared(
            "least preimage order", lambda: _least_preimage_order(G, images, m), images)
        places = [math.prod(radices[j + 1:]) for j in range(d)]
        tables += [G.translations(images)] * count
        listings += [listed] * count
        info += [(G.order, m - 1, *radices, *places)] * count
    info = np.array(info)
    lengths, top = info[:, 0], info[:, 1]
    radices, places = info[:, 2:2 + d], info[:, 2 + d:]
    starts = lengths.cumsum() - lengths
    sizes = _majority(member, starts, lengths)

    # the direction rows and listing of the disjoint union: entry i of row r
    # is vertex i - starts[r] of its key's group
    shift = starts.repeat(lengths)
    rows = np.concatenate(tables, axis=1)
    del tables
    rows += shift
    listed = shift + np.concatenate(listings)
    del shift

    cover = member.astype(np.int32)
    # rows[j] by index: a loop variable would keep the rows alive past del
    for j in range(d):
        cover += cover[rows[j]]
    # each listing is a permutation of its row, so the first maximum has
    # the least preimage
    first, cube_points = _best_cover(cover[listed], starts, lengths, sizes, d)
    del cover
    digits = (first - starts)[:, None] // places % radices

    # corner T of a cube copy carries direction j at bit d-1-j, the place of
    # digit j, so the order of the corners' lifted indices is T with the
    # bits of the digits at m - 1 flipped: raising those wraps them to 0
    bit = 1 << np.arange(d - 1, -1, -1)
    key = np.arange(1 << d) ^ ((digits == top[:, None]) @ bit)[:, None]
    corners = np.empty((len(starts), 1 << d), dtype=np.intp)
    corners[:, 0] = listed[first]
    del listed
    for j in range(d):
        corners[:, 1 << j:2 << j] = rows[d - 1 - j][corners[:, :1 << j]]
    every = np.arange(len(starts))[:, None]
    in_subset = member.view(bool)  # the entries are 0 and 1
    u_mask, k, has = _cube_step(d, key, in_subset[corners], cube_points)
    has = has[:, ::-1]  # in direction order
    u = corners[every[:, 0], u_mask]

    # the corner across direction j is u - s_j whenever u + s_j is not in U
    plus = rows[:, u].T
    del rows
    plus_in = in_subset[plus]
    nbrs = np.where(plus_in, plus, corners[every, u_mask[:, None] ^ bit])

    # u and the neighbors, with distinct negative placeholders for the
    # steps not taken, are distinct (each equals itself only), and are all
    # in U
    listed_nbrs = np.concatenate([np.where(has, nbrs, -1 - np.arange(d)), u[:, None]], axis=1)
    distinct = (listed_nbrs[:, :, None] == listed_nbrs[:, None, :]).sum(axis=(1, 2)) == d + 1
    in_u = in_subset[np.where(listed_nbrs < 0, u[:, None], listed_nbrs)].all(axis=1)
    # the Cayley neighbors of u are s*u = u*s for s in S, read at u from
    # each key's own table; -1 pads the shorter sets
    u = u - starts
    nbrs = nbrs - starts[:, None]
    around = np.empty((len(starts), 2 * d), dtype=np.intp)
    around.fill(-1)
    r = 0
    for G, S, count in keys:
        table = G.translations(S.sorted_elements())
        around[r:r + count, :len(table)] = table.T[u[r:r + count]]
        r += count
    adjacent = ((nbrs[:, :, None] == around[:, None, :]).any(axis=2) | ~has).all(axis=1)
    adjacent &= in_u
    bound = k * k >= d
    verified = distinct & adjacent & bound
    if not verified.all():
        r = int(np.argmin(verified))
        checks = {"distinct": distinct, "adjacency": adjacent, "bound": bound}
        names = [name for name, ok in checks.items() if not ok[r]]
        raise InvariantBreach(f"witness verification failed: {', '.join(names)}")
    return u, k, nbrs, has, plus_in, digits, u_mask, cube_points


# the most membership entries, subset rows times group order, that the
# suite certifies in one kernel call; a row longer than this is a call alone
_BATCH_ENTRIES = 1 << 12


def _suite_block(block: tuple[int, int, int]) -> list[str]:
    """Instances start..stop-1 of a suite: draw each, then certify them in
    batches of Cayley graphs with one direction count, and describe each on
    one line.

    Instance I draws exactly what it would alone, from Random(f"{seed}:{I}").
    Within the block a presentation's group and basis are built once.  Each
    instance appends its index and its subset, as packed bits, to the
    records of its (presentation, S) key.  Then each key's GeneratingSet is
    validated once, and its records join the pending batch of its d.  A
    batch is certified in one _certify call once it holds _BATCH_ENTRIES
    membership entries, and a key whose rows do not fit is cut across
    batches; the rows are unpacked only inside their batch, and each line
    is written from the row's u and k.
    """
    start, stop, seed = block
    presentations: dict[tuple[int, ...], tuple] = {}
    keys: dict[tuple, bytearray] = {}
    for index in range(start, stop):
        rng = random.Random(f"{seed}:{index}")
        # every 25th instance allows a larger lift source m^d, which the
        # certificate never builds
        size_target = (1 << 20) if index % 25 == 24 else (1 << 16)

        while True:
            k = rng.randint(1, 3)
            moduli = tuple(rng.randint(2, 8) for _ in range(k))
            m = math.lcm(*moduli)
            d_max = int(math.log(size_target) / math.log(m))
            if d_max >= k:
                break

        if moduli not in presentations:
            G = make_group(moduli)
            basis = set()
            for i in range(k):
                g = G.encode([1 if j == i else 0 for j in range(k)])
                basis |= {g, G.inv(g)}
            presentations[moduli] = G, basis
        G, basis = presentations[moduli]
        elems = set(basis)
        # extras keep m^d under the size target: each unit adds at most one image
        room = min(2, d_max - k)
        n_extra = rng.randint(0, room) if room > 0 else 0
        if n_extra:
            pool = [g for g in range(1, G.order) if g not in basis]
            rng.shuffle(pool)
            for g in pool[:n_extra]:
                elems |= {g, G.inv(g)}

        # a group is hashed by identity, and one is built per presentation
        key = G, tuple(sorted(elems))
        records = keys.get(key)
        if records is None:
            records = keys[key] = bytearray()
        # distinct members, so the sum of their bits is the packed subset
        bits = sum(map((1).__lshift__, rng.sample(range(G.order), G.order // 2 + 1)))
        records += index.to_bytes(8, "little") + bits.to_bytes((G.order + 7) // 8, "little")

    lines = [""] * (stop - start)
    # the open batch of each d: its (G, S, count, records) and its entries
    pending: dict[int, list] = {}
    entries: dict[int, int] = {}

    def certify(d: int) -> None:
        batch = pending.pop(d)
        del entries[d]
        counts = [count for _, _, count, _ in batch]
        lengths = np.repeat([G.order for G, _, _, _ in batch], counts)
        widths = 8 + (lengths + 7) // 8
        begin = np.cumsum(widths) - widths  # each record's first byte
        data = np.frombuffer(b"".join(records for *_, records in batch), dtype=np.uint8)
        indices = data[begin[:, None] + np.arange(8)].view("<i8")[:, 0].tolist()
        # entry i of row r is bit i - starts[r] after the record's index
        starts = np.cumsum(lengths) - lengths
        at = np.repeat(8 * (begin + 8) - starts, lengths)
        at += np.arange(at.size)
        member = np.unpackbits(data, bitorder="little")[at].view(np.int8)
        del data, at
        u, k, *_ = _certify(d, [(G, S, count) for G, S, count, _ in batch], member)
        results = zip(indices, u.tolist(), k.tolist())
        for G, S, count, _ in batch:
            gens = ",".join(map(str, S.sorted_elements()))
            for index, u, k in islice(results, count):
                if 2 * k * k < S.size + S.t:
                    raise InvariantBreach(
                        f"instance {index}: 2k^2 = {2 * k * k} < |S| + t = {S.size + S.t}"
                    )
                lines[index - start] = (
                    f"{index:04d} group={G.name} S=[{gens}] |U|={G.order // 2 + 1} "
                    f"u={u} k={k} d={d} t={S.t} ok"
                )

    while keys:
        key = next(iter(keys))
        records = memoryview(keys.pop(key))
        G, members = key
        S = make_generating_set(G, members)
        width = 8 + (G.order + 7) // 8
        while records:
            held = entries.get(S.d, 0)
            room = (_BATCH_ENTRIES - held) // G.order
            if not room and held:
                certify(S.d)
                continue
            # the rows that fit, or one row longer than the bound alone
            count = min(len(records) // width, room or 1)
            pending.setdefault(S.d, []).append((G, S, count, records[:count * width]))
            entries[S.d] = held + count * G.order
            records = records[count * width:]
            if entries[S.d] >= _BATCH_ENTRIES:
                certify(S.d)
    for d in sorted(pending):
        certify(d)
    return lines


def random_witness_suite(count: int = 200, seed: int = 0, jobs: int = 1) -> list[str]:
    """Certify `count` random abelian instances; returns one report line each.

    Instance I is derived from (seed, I) alone.  The instances are cut into
    one contiguous block per job, and each block certifies its subsets in
    batches of (presentation, S) keys with one direction count; a
    certificate reads nothing but its own row, so the lines are identical
    for any job count.  Any failed certificate raises InvariantBreach.
    """
    if count < 1:
        raise ValueError("count must be positive")
    blocks = max(1, min(jobs or 1, count))
    bounds = [count * b // blocks for b in range(blocks + 1)]
    items = [(bounds[b], bounds[b + 1], seed) for b in range(blocks)]
    return [line for lines in parallel_map(_suite_block, items, jobs) for line in lines]
