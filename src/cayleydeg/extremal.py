"""Exact and heuristic minimization of induced max degree over majority subsets.

f(X) is the minimum over all vertex subsets U of size exactly s = n//2 + 1 of
the maximum degree of the induced subgraph X(U).  Restricting to that exact
size loses nothing: induced max degree is monotone under taking supersets, so
any majority subset U (|U| > n/2) contains a size-s subset U0 with
max-deg X(U0) <= max-deg X(U), and size-s subsets are themselves majority
subsets.  Hence min over |U| = s equals min over |U| > n/2.

Each method has one entry point: min_max_degree is the exact f by an
exhaustive scan over all C(n, s) subsets (the reference; its witness is the
lexicographically least minimizer), branch_and_bound is a sound and complete
decision procedure for f <= target at one target, and heuristic_search is a
seeded swap heuristic that yields an upper bound only.  For Cayley graphs the
exhaustive scan can be restricted to subsets containing vertex 0, since
right translation is a graph automorphism carrying any subset to one
through 0.

The exhaustive scan unranks the subsets in lexicographic chunks of uint8
membership rows and counts induced degrees as sums of the rows that each
vertex's neighbor slots index (Graph.neighbor_slots), so its memory is
bounded by the chunk size, not by C(n, s), for any n.  A scan scores the
generating sets of one group as a block, in one walk over the chunks and
with no Cayley graph built: the degrees of Cay(G, S) into a chunk are the
sum over x in S of member[L_x], L_x the left translation by x (the
translation rows are a Cayley graph's neighbor slots).  The sets are
visited in sorted order and the sums of the leading elements that
consecutive sets share are kept, so each row is gathered and added once
per distinct prefix, not once per set.  verify_conjecture is a block of one
set.

Branch-and-bound keeps its include/exclude search on an explicit stack, so
its depth is not bounded by Python's recursion limit, and keeps the mask of
members already at the target degree, so it refuses an inclusion with one
AND.  The heuristic keeps the degree of every vertex into the current subset
and scores each candidate swap from that vector in O(1).  It stops as soon
as its best subset meets a lower bound on f: the larger of the caller's
lower_bound and the bound read off the sorted degrees d_1 <= ... <= d_n and
the edge count e (_degree_floor), the largest of 0, d_s - (n - s) and
ceil(2 (e - d_{s+1} - ... - d_n) / s).  Its best subset changes only on a
strict decrease, which no subset can then make, so the rest of the budget
could not change its result.  At s = n that bound is the max degree itself,
so the one subset is evaluated once.  The agreement suite passes the exact f
it has just computed as that lower bound.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from ._parallel import parallel_map
from .errors import BudgetExceeded, check_cap
from .graphs import Graph, VertexSet, build_cayley, builtin_graph, induced_max_degree
from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GeneratingSet,
    enumerate_symmetric_generating_sets,
    make_group,
)

__all__ = [
    "ExtremalResult",
    "ConjectureReport",
    "BnBOutcome",
    "ScanSummary",
    "min_max_degree",
    "branch_and_bound",
    "heuristic_search",
    "verify_conjecture",
    "scan",
    "abelian_scan_items",
    "named_group_scan_items",
    "graph_scan_items",
    "iter_abelian_moduli",
    "oracle_agreement_suite",
    "DEFAULT_SUBSET_BUDGET",
]

DEFAULT_SUBSET_BUDGET = 10**8

_INT64_MAX = (1 << 63) - 1

# _CHUNK_BYTES bounds one (vertex, subset) array of a chunk: uint8 memberships
# or degrees (twice that for the degrees of n >= 256).  The scorer sums the
# gathered rows of _SLOT_BATCH slots at a time, so its largest temporary is
# _SLOT_BATCH times that, 1 MiB.  A block of generating sets of one group
# (_verify_block) keeps the prefix sums of its sets instead, one chunk of
# degrees per shared leading element plus the base, and one gathered row and
# one set's degrees at a time: at most n + 2 chunks, 7 for a scan at order 16
# with --max-set-size 5 (blocks have n <= 67, past which C(n - 1, n//2)
# leaves int64).  The translated chunks member[L_x] are not kept: all of them
# would be n - 1 chunks, so each is gathered again per prefix instead.  A
# cached chunk of m subsets keeps its (n + 1) x m membership array, about
# _CHUNK_BYTES (smaller n have at most 35 subsets), so the _CACHED_CHUNKS
# cached chunks stay under 17 MiB.  Only runs of at most _CACHED_CHUNKS chunks
# go through the cache: a longer run would evict every chunk, its own
# included, before reusing any.
_CHUNK_BYTES = 1 << 17
_SLOT_BATCH = 8
_CACHED_CHUNKS = 128


@lru_cache(maxsize=_CACHED_CHUNKS)
def _rank_table(pool: int, k: int) -> np.ndarray:
    """table[p, j] = C(pool-1-p, k-1-j): the ranks of k-subsets of 0..pool-1
    that take p as member j+1 once their first j members lie below p.

    The entries clipped to _INT64_MAX belong to no rank below
    C(pool, k) <= _INT64_MAX, so the clip never changes an unranked subset.
    """
    table = np.array(
        [
            [min(math.comb(pool - 1 - p, k - 1 - j), _INT64_MAX) if j < k else 0
             for j in range(k + 1)]
            for p in range(pool)
        ],
        dtype=np.int64,
    ).reshape(pool, k + 1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=_CACHED_CHUNKS)
def _subset_chunk(n: int, s: int, fix_zero: bool, start: int, stop: int) -> np.ndarray:
    """The s-subsets of 0..n-1 of lexicographic ranks start..stop-1.

    With fix_zero, only subsets containing vertex 0 are ranked.  Returns the
    read-only uint8 array member, with member[v, i] = 1 when vertex v is in
    subset i, and a zero row n, which the padding of neighbor slots reads.

    Ranks are unranked in one pass per vertex: among the ranks left at a
    vertex, those that take it (counted by _rank_table) come before those
    that skip it, which is the order of itertools.combinations.
    """
    lo = 1 if fix_zero else 0
    table = _rank_table(n - lo, s - lo)
    rank = np.arange(start, stop, dtype=np.int64)
    taken = np.zeros(rank.size, dtype=np.intp)
    member = np.zeros((n + 1, rank.size), dtype=np.uint8)
    member[:lo] = 1
    ahead = np.empty(rank.size, dtype=np.int64)
    for v in range(lo, n):
        np.take(table[v - lo], taken, out=ahead, mode="clip")
        take = np.less(rank, ahead, out=member[v].view(np.bool_))
        np.copyto(ahead, 0, where=take)
        rank -= ahead
        taken += take
    member.setflags(write=False)
    return member


def _check_budget(n: int, s: int, fix_zero: bool, budget: int) -> None:
    """Refuse an exhaustive scan whose subsets, C(n-1, s-1) with vertex 0
    fixed and C(n, s) otherwise, exceed budget or int64.  budget is read
    with operator.index, so a float or None is a TypeError."""
    budget = operator.index(budget)
    pool, k = (n - 1, s - 1) if fix_zero else (n, s)
    total = math.comb(pool, k)
    if total > budget:
        raise BudgetExceeded(
            f"C({pool},{k}) = {total} subsets exceed the budget {budget}; "
            "try branch_and_bound or heuristic_search"
        )
    if total > _INT64_MAX:
        raise BudgetExceeded(
            f"C({pool},{k}) = {total} subsets do not fit in int64 ranks; "
            "try branch_and_bound or heuristic_search"
        )


def _slot_sums(member: np.ndarray, slots: np.ndarray, dtype) -> np.ndarray:
    """The sum of member[slots[j]] over j, kept at members and 0 elsewhere:
    one graph's degrees into every subset of the chunk, gathered
    _SLOT_BATCH slots at a time."""
    deg = np.add.reduce(member[slots[:_SLOT_BATCH]], axis=0, dtype=dtype)
    for j in range(_SLOT_BATCH, len(slots), _SLOT_BATCH):
        deg += np.add.reduce(member[slots[j : j + _SLOT_BATCH]], axis=0, dtype=dtype)
    deg *= member[:-1]  # row n is the zero row
    return deg


def _prefix_plan(picks: Sequence[list[int]]) -> list[tuple[int, int]]:
    """(k, keep) for every pick in sorted order, keep the number of leading
    elements pick k has in common with the next one (0 for the last)."""
    order = sorted(range(len(picks)), key=picks.__getitem__)
    keeps = [
        next((d for d, (a, b) in enumerate(zip(picks[k], picks[nxt])) if a != b),
             min(len(picks[k]), len(picks[nxt])))
        for k, nxt in zip(order, order[1:])
    ]
    return list(zip(order, keeps + [0]))


def _prefix_sums(member: np.ndarray, rows: np.ndarray, picks: Sequence[list[int]], plan):
    """(k, n at members plus the sum of member[rows[p]] over p in picks[k])
    for each (k, keep) of plan, the picks in sorted order (_prefix_plan).

    stack[d] holds the base plus the first d terms of the current pick.
    The keep levels that the next pick shares are kept for it, so a term is
    gathered and added once per distinct prefix, not once per pick.  No
    stack entry is changed in place.
    """
    n = len(member) - 1
    stack = [member[:n] * np.uint8(n)]  # n <= 67 (int64 ranks), so 2n - 1 fits
    for k, keep in plan:
        pick = picks[k]
        while len(stack) <= keep:
            stack.append(stack[-1] + member[rows[pick[len(stack) - 1]]])
        deg = stack[-1]
        rest = pick[len(stack) - 1 :]
        if rest:
            deg = deg + member[rows[rest[0]]]
            for p in rest[1:]:
                deg += member[rows[p]]
        yield k, deg
        del stack[keep + 1 :]


def _exhaustive(
    n: int, s: int, fix_zero: bool, count: int, degrees, offset: int = 0
) -> list[tuple[int, VertexSet]]:
    """Least max induced degree over s-subsets, and the lex-least minimizer,
    for each of count graphs on 0..n-1 at once.

    The subsets are unranked in lexicographic chunks, once for all the
    graphs.  degrees(member) yields (k, deg) for every graph k, deg[v, i]
    being offset plus the degree of v into subset i when v is a member and
    at most offset otherwise; so a column's max is offset plus the subset's
    max induced degree.  A strict < across chunks keeps each graph's first
    minimizer.
    """
    total = math.comb(n - 1, s - 1) if fix_zero else math.comb(n, s)
    step = max(1, _CHUNK_BYTES // n)
    cached = total <= _CACHED_CHUNKS * step
    chunk = _subset_chunk if cached else _subset_chunk.__wrapped__
    best = [offset + n] * count  # above every induced degree
    witness: list[np.ndarray | None] = [None] * count
    for start in range(0, total, step):
        member = chunk(n, s, fix_zero, start, min(start + step, total))
        for k, deg in degrees(member):
            top = deg.max(axis=0)
            i = int(top.argmin())
            if top[i] < best[k]:
                best[k] = int(top[i])
                # a view of a cached chunk; a copy, so that no graph keeps an
                # uncached chunk alive
                witness[k] = member[:n, i] if cached else member[:n, i].copy()
    return [
        (f - offset,
         VertexSet(n, int.from_bytes(np.packbits(w, bitorder="little").tobytes(), "little")))
        for f, w in zip(best, witness)
    ]


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of a subset-degree minimization."""

    subset_size: int
    f_value: int
    witness_subset: VertexSet
    method: str
    optimal: bool


def min_max_degree(
    X: Graph,
    s: int,
    *,
    budget: int = DEFAULT_SUBSET_BUDGET,
    contains_zero: bool = False,
) -> ExtremalResult:
    """Exact f over subsets of size exactly s, by the exhaustive scan.

    Returns the lexicographically least witness.  With contains_zero only
    subsets through vertex 0 are scanned.  Refuses to start if the number of
    subsets exceeds budget or int64.
    """
    s = operator.index(s)
    if not 1 <= s <= X.n:
        raise ValueError(f"subset size {s} out of range 1..{X.n}")
    _check_budget(X.n, s, contains_zero, budget)
    slots, dtype = X.neighbor_slots(), np.min_scalar_type(X.n)  # holds every induced degree (< n)
    [(f, witness)] = _exhaustive(
        X.n, s, contains_zero, 1, lambda member: [(0, _slot_sums(member, slots, dtype))]
    )
    return ExtremalResult(s, f, witness, "exhaustive", True)


@dataclass(frozen=True)
class BnBOutcome:
    """Decision result: does some size-s subset induce max degree <= target?"""

    status: str  # "true", "false", or "undecided"
    witness: VertexSet | None
    nodes: int


def branch_and_bound(
    X: Graph, s: int, target: int, node_budget: int | None = None
) -> BnBOutcome:
    """Sound and complete decision procedure for the threshold question.

    Vertices are branched in index order, include before exclude, on an
    explicit stack (no recursion, so any n works).  A branch dies when some
    committed vertex would exceed target induced degree (degrees only grow
    as vertices are added) or when the remaining vertices cannot fill the
    subset.  If the node budget runs out the result is 'undecided'.

    The mask sat holds the members whose induced degree already equals
    target, so a vertex can join exactly when it has at most target
    neighbours in the subset and none of them is in sat: one AND, not a
    walk over its neighbours.  Only the joining vertex and its neighbours
    change degree, so including it re-counts just their degrees to extend
    sat, and undoing it restores mask and sat from its stack frame in O(1).
    """
    s, target = operator.index(s), operator.index(target)
    if node_budget is not None:
        node_budget = operator.index(node_budget)
        if node_budget < 0:
            raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    if not 0 <= s <= X.n:
        raise ValueError(f"subset size {s} out of range 0..{X.n}")
    if target < 0:
        raise ValueError(f"target degree must be nonnegative, got {target}")
    if s == 0:
        return BnBOutcome("true", VertexSet(X.n, 0), 0)

    adj = X.adj_masks
    n = X.n
    nodes = 0
    # one frame per included vertex, innermost last: (vertex, sat before it
    # joined); excluding a vertex needs no frame
    stack: list[tuple[int, int]] = []
    idx = count = mask = sat = 0
    while count < s:
        if idx < n and count + (n - idx) >= s:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return BnBOutcome("undecided", None, nodes)
            nbrs = adj[idx] & mask
            newdeg = nbrs.bit_count()
            if newdeg <= target and not nbrs & sat:  # include
                stack.append((idx, sat))
                mask |= 1 << idx
                if newdeg == target:
                    sat |= 1 << idx
                while nbrs:  # each was below target and gains one
                    low = nbrs & -nbrs
                    if (adj[low.bit_length() - 1] & mask).bit_count() == target:
                        sat |= low
                    nbrs ^= low
                count += 1
            idx += 1  # past the vertex just included, or exclude it
            continue
        # dead end: undo the innermost inclusion and take its exclude branch
        if not stack:
            return BnBOutcome("false", None, nodes)
        j, sat = stack.pop()
        mask ^= 1 << j
        count -= 1
        idx = j + 1
    return BnBOutcome("true", VertexSet(n, mask), nodes)


def _degree_floor(X: Graph, s: int) -> int:
    """A lower bound on f at size s, from the degree sequence of X alone.

    With degrees d_1 <= ... <= d_n and r = n - s, every s-subset U holds a
    vertex of degree at least d_s, which loses at most r neighbours outside
    U; and X(U) keeps at least e - (d_{s+1} + ... + d_n) of the e edges, so
    its max degree is at least the ceiling of twice that over s.
    """
    d = sorted(a.bit_count() for a in X.adj_masks)
    kept = X.edge_count - sum(d[s:])
    return max(0, d[s - 1] - (X.n - s), -(-2 * kept // s))


def heuristic_search(
    X: Graph,
    s: int,
    seed: int = 0,
    budget: int = 10_000,
    lower_bound: int = 0,
) -> ExtremalResult:
    """Seeded local search over size-s subsets; an upper bound on f.

    Each step scores every single swap (one member u out, one non-member w
    in, both ascending) by the pair (induced max degree, induced degree sum)
    and moves to the first best strict improvement of that pair; restarts
    from fresh random subsets until the evaluation budget is spent, or until
    the best max degree found meets the stop value: the larger of
    lower_bound and the floor of _degree_floor, the largest of 0,
    d_s - (n - s) and ceil(2 (e - d_{s+1} - ... - d_n) / s).
    Deterministic for a fixed seed.

    The early stop never changes the result while lower_bound <= f: the
    best subset is replaced only on a strict decrease of its max degree,
    which cannot go below a lower bound on f, and the random generator is
    local to the call.  So a caller that holds f, or a certified bound on
    it, passes it as lower_bound, and the search ends the moment it gets
    there.  A lower_bound above f may stop at a worse subset, whose max
    degree is still an upper bound on f; one of s - 1 or more, which every
    s-subset meets, stops after the first subset drawn.

    A swap is scored in O(1) from the degree vector deg[v] = |adj(v) & U|,
    kept for every vertex and updated in O(n) per move.  Once per u, top is
    the largest deg[x] - [x~u] over the other members x and reach holds the
    x that attain it; the swap then has max degree
    max(top + [adj(w) & reach != 0], deg[w] - [w~u]) and degree sum
    sum(U) - 2 deg[u] + 2 (deg[w] - [w~u]).  At s = n the floor is the max
    degree, so the only subset is evaluated once.
    """
    s, budget, lower_bound = map(operator.index, (s, budget, lower_bound))
    if not 1 <= s <= X.n:
        raise ValueError(f"subset size {s} out of range 1..{X.n}")
    if budget < 1:
        raise ValueError(f"evaluation budget must be at least 1, got {budget}")
    rng = random.Random(seed)
    adj = X.adj_masks
    n = X.n
    # a score (max degree, degree sum) is kept as top * scale + sum: a degree
    # sum is below n * n, so integer order is the order of the pairs
    scale = n * n

    # capped at s - 1, which every subset meets, so one is always drawn
    stop = max(_degree_floor(X, s), min(lower_bound, s - 1))
    evals = 0
    best_top = n  # above every induced degree
    best_mask = 0

    while evals < budget and best_top > stop:
        mask = 0
        for v in rng.sample(range(n), s):
            mask |= 1 << v
        deg = [(a & mask).bit_count() for a in adj]
        members = [v for v in range(n) if mask >> v & 1]
        cur = max(deg[v] for v in members) * scale + sum(deg[v] for v in members)
        evals += 1
        if cur // scale < best_top:
            best_top, best_mask = cur // scale, mask
        while evals < budget and best_top > stop:
            outs = [w for w in range(n) if not mask >> w & 1]
            move = -1  # no candidate scored yet (scores are >= 0)
            for u in members:
                au = adj[u]
                top = reach = 0
                for x in members:
                    if x != u:
                        d = deg[x] - (au >> x & 1)
                        if d > top:
                            top, reach = d, 1 << x
                        elif d == top:
                            reach |= 1 << x
                base = cur % scale - 2 * deg[u]
                ws = outs[: budget - evals]  # the budget may end the sweep here
                for w in ws:
                    aw = adj[w]
                    dw = deg[w] - (aw >> u & 1)
                    t = top + 1 if aw & reach else top
                    key = (dw if dw > t else t) * scale + base + 2 * dw
                    if move < 0 or key < move:
                        move, move_out, move_in = key, u, w
                evals += len(ws)
                if evals >= budget:
                    break
            if move >= cur:
                break
            mask ^= (1 << move_out) | (1 << move_in)
            for a, step in ((adj[move_out], -1), (adj[move_in], 1)):
                while a:
                    low = a & -a
                    deg[low.bit_length() - 1] += step
                    a ^= low
            members = [v for v in range(n) if mask >> v & 1]
            cur = move
            if cur // scale < best_top:
                best_top, best_mask = cur // scale, mask

    return ExtremalResult(s, best_top, VertexSet(n, best_mask), "heuristic", False)


@dataclass(frozen=True)
class ConjectureReport:
    """Exact f for one regular graph, with the integer bound comparisons.

    set_size is the degree |S|.  weak_ok is 2 f^2 >= |S|; strong_ok is
    2 f^2 >= |S| + t and is only evaluated for abelian groups (None
    otherwise); margin = 2 f^2 - |S|, and tight means that margin is 0.
    order2_count is t, None for a catalog graph, which has no group.
    """

    label: str
    n: int
    set_size: int
    order2_count: int | None
    s: int
    f: int
    witness: VertexSet
    weak_ok: bool
    strong_ok: bool | None
    margin: int

    @property
    def tight(self) -> bool:
        return self.margin == 0


def _bound_report(
    label: str, res: ExtremalResult, set_size: int, t: int | None, abelian: bool
) -> ConjectureReport:
    """The bound comparisons for an exact result on a set_size-regular graph."""
    f = res.f_value
    return ConjectureReport(
        label=label,
        n=res.witness_subset.n,
        set_size=set_size,
        order2_count=t,
        s=res.subset_size,
        f=f,
        witness=res.witness_subset,
        weak_ok=2 * f * f >= set_size,
        strong_ok=(2 * f * f >= set_size + t) if abelian else None,
        margin=2 * f * f - set_size,
    )


def _cayley_label(G: FiniteGroup, members: Sequence[int]) -> str:
    """The graph label of Cay(G, S): the group name, then the members of S,
    sorted, in brackets."""
    return f"{G.name}[{','.join(map(str, members))}]"


def verify_conjecture(
    G: FiniteGroup, S: GeneratingSet, budget: int = DEFAULT_SUBSET_BUDGET
) -> ConjectureReport:
    """Exact bound check for the Cayley graph of (G, S).

    Exhaustive enumeration is restricted to subsets containing vertex 0,
    which is sound because right translation by any group element is an
    automorphism of the Cayley graph.
    """
    return _verify_block(G, [S], budget)[0]


def _verify_block(
    G: FiniteGroup, sets: Sequence[GeneratingSet], budget: int
) -> list[ConjectureReport]:
    """verify_conjecture for every set of a block of one group G, in order.

    The sets share one chunk walk.  The Cayley graph of S has the
    translation rows L_x[g] = x*g, x in S, as its neighbor slots, so the
    degree of g in U is the sum over x in S of member[L_x[g]], summed with
    the prefixes the sets share (_prefix_sums).  No Cayley graph is built.
    """
    n = G.order
    s = n // 2 + 1
    _check_budget(n, s, True, budget)
    rows = G.translations(range(n))
    picks = [list(S.sorted_elements()) for S in sets]
    plan = _prefix_plan(picks)
    results = _exhaustive(
        n, s, True, len(picks), lambda member: _prefix_sums(member, rows, picks, plan), offset=n
    )
    return [
        _bound_report(
            _cayley_label(G, pick), ExtremalResult(s, f, witness, "exhaustive", True),
            S.size, t=S.t, abelian=G.is_abelian,
        )
        for S, pick, (f, witness) in zip(sets, picks, results)
    ]


# ---------------------------------------------------------------------------
# scanning families of instances

CSV_HEADER = "graph,n,regularity,s,f,method,weak_ok,strong_ok,margin,witness"


@dataclass
class ScanSummary:
    instances: int
    weak_failures: int
    min_margin: int | None
    errors: list[str]
    violations: list[dict]


def iter_abelian_moduli(max_order: int, min_order: int = 2) -> list[tuple[int, ...]]:
    """Every cyclic-product presentation (moduli >= 2, non-increasing) with
    order in [min_order, max_order], ordered by order then lexicographically.
    A max_order above MAX_GROUP_ORDER raises BudgetExceeded before any is listed."""
    check_cap(f"z{max_order}", max_order, MAX_GROUP_ORDER, "elements")

    def divisors(n: int) -> list[int]:  # those >= 2, ascending
        low = [m for m in range(2, math.isqrt(n) + 1) if n % m == 0]
        return low + [n // m for m in reversed(low) if m * m != n] + [n]

    def presentations(left: int, cap: int, acc: tuple[int, ...]):
        # acc, then non-increasing moduli <= cap with product left; the next
        # modulus ascends, so the order is lexicographic (none prefixes another)
        if left == 1:
            yield acc
            return
        for m in divisors(left):
            if m > cap:
                break
            yield from presentations(left // m, m, acc + (m,))

    return [p for order in range(max(2, min_order), max_order + 1)
            for p in presentations(order, order, ())]


def abelian_scan_items(
    max_order: int, min_order: int = 2, max_size: int | None = None
) -> list[tuple]:
    """Scan items for every symmetric generating set of every cyclic-product
    group with order in range (see named_group_scan_items)."""
    return named_group_scan_items(iter_abelian_moduli(max_order, min_order), max_size=max_size)


def named_group_scan_items(specs: Sequence, max_size: int | None = None) -> list[tuple]:
    """Scan items for every symmetric generating set of each group spec (a
    name or a moduli list, as make_group takes).

    A Cayley item is ("cayley", G, S) with G a FiniteGroup and S the
    GeneratingSet that enumerate_symmetric_generating_sets built, valid by
    construction; a catalog graph item is ("graph", name).  Every group is
    built and its enumeration cap checked before any item is.
    """
    walks = [(G, enumerate_symmetric_generating_sets(G, max_size=max_size))
             for G in map(make_group, specs)]
    return [("cayley", G, S) for G, walk in walks for S in walk]


def graph_scan_items(names: Sequence[str]) -> list[tuple]:
    return [("graph", name) for name in names]


def _item_graph(item: tuple) -> Graph:
    """The graph of a scan item, built afresh."""
    if item[0] == "cayley":
        return build_cayley(item[1], item[2]).graph
    return builtin_graph(item[1])


def _scan_worker(args: tuple) -> list[ConjectureReport | str]:
    """The reports of one (block of scan items, budget) pair, in item order;
    an item that raised ValueError has the error line naming its CSV label.

    A block is one catalog graph, or consecutive Cayley items of one group,
    which _verify_block scores together (a refusal then names every item).
    """
    block, budget = args
    if block[0][0] == "graph":
        [(_, name)] = block
        try:
            X = builtin_graph(name)
            res = min_max_degree(X, X.n // 2 + 1, budget=budget)
            return [_bound_report(name, res, X.max_degree(), t=None, abelian=False)]
        except ValueError as exc:  # recorded per instance; the scan keeps going
            return [f"{name}: {exc}"]
    G = block[0][1]
    sets = [item[2] for item in block]
    try:
        return _verify_block(G, sets, budget)
    except ValueError as exc:
        return [f"{_cayley_label(G, S.sorted_elements())}: {exc}" for S in sets]


def _scan_blocks(items: Sequence[tuple], jobs: int) -> list[list[tuple]]:
    """The items cut into blocks: each catalog graph alone, and each run of
    consecutive Cayley items of one group (the same FiniteGroup object) in
    pieces of at most ceil(len(items) / (4 jobs)) items when jobs > 1, so
    that every worker gets several blocks even when one group holds most of
    the items."""
    cap = len(items) if jobs <= 1 else -(-len(items) // (4 * jobs))
    blocks: list[list[tuple]] = []
    for item in items:
        last = blocks[-1] if blocks else [("graph",)]
        if item[0] == last[0][0] == "cayley" and item[1] is last[0][1] and len(last) < cap:
            last.append(item)
        else:
            blocks.append([item])
    return blocks


def scan(
    items: Sequence[tuple],
    budget: int = DEFAULT_SUBSET_BUDGET,
    out_csv: str | Path | None = None,
    violations_dir: str | Path | None = None,
    jobs: int = 1,
) -> tuple[ScanSummary, str]:
    """Run the conjecture check over a family of instances.

    Items come from the *_scan_items functions.  A Cayley item's
    GeneratingSet is used as it is: it was validated where it was made.
    Consecutive Cayley items of one group are scored as one block, in one
    exhaustive walk (_verify_block); with jobs > 1 the runs are cut so
    that every worker gets several blocks (_scan_blocks).

    Returns (summary, csv_text).  Weak-bound failures are findings, not
    errors: they are counted, and each is re-verified with
    induced_max_degree on a freshly built graph and emitted as a standalone
    JSON document (written under violations_dir when given).  An instance
    that raises ValueError (an unknown catalog name, or BudgetExceeded) is
    recorded in the summary under its CSV label and the scan continues; an
    InvariantBreach propagates.
    Output is byte-identical for any jobs count.
    """
    # a path that cannot be written fails here, before any instance is checked
    if out_csv is not None:
        Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
    if violations_dir is not None:
        Path(violations_dir).mkdir(parents=True, exist_ok=True)
    blocks = _scan_blocks(items, jobs)
    reports = [rep for reps in parallel_map(_scan_worker, [(b, budget) for b in blocks], jobs=jobs)
               for rep in reps]
    done = [rep for rep in reports if not isinstance(rep, str)]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for rep in done:
        writer.writerow(
            [
                rep.label,
                rep.n,
                rep.set_size,
                rep.s,
                rep.f,
                "exhaustive",
                int(rep.weak_ok),
                "" if rep.strong_ok is None else int(rep.strong_ok),
                rep.margin,
                " ".join(map(str, rep.witness.members())),
            ]
        )
    violations = [
        _violation_record(rep, _item_graph(item))
        for item, rep in zip(items, reports)
        if not isinstance(rep, str) and not rep.weak_ok
    ]

    csv_text = buf.getvalue()
    if out_csv is not None:
        Path(out_csv).write_text(csv_text)
    if violations_dir is not None:
        for i, rec in enumerate(violations):
            (Path(violations_dir) / f"violation_{i:04d}.json").write_text(
                json.dumps(rec, separators=(",", ":")) + "\n"
            )
    summary = ScanSummary(
        instances=len(done),
        weak_failures=len(violations),
        min_margin=min((rep.margin for rep in done), default=None),
        errors=[rep for rep in reports if isinstance(rep, str)],
        violations=violations,
    )
    return summary, csv_text


def _violation_record(rep: ConjectureReport, X: Graph) -> dict:
    """Re-verify a weak-bound failure on its graph X and package it as a
    standalone record."""
    deg, _ = induced_max_degree(X, rep.witness)
    return {
        "graph": rep.label,
        "n": rep.n,
        "regularity": rep.set_size,
        "s": rep.s,
        "f": rep.f,
        "reverified_degree": deg,
        "reverified": deg == rep.f,
        "margin": rep.margin,
        "subset": rep.witness.members(),
    }


# ---------------------------------------------------------------------------
# agreement suite between the exact engines (used by the acceptance gate)


def _agreement_worker(args: tuple) -> str:
    index, seed = args
    rng = random.Random(f"{seed}:{index}")
    n = rng.randint(4, 12)
    p = rng.uniform(0.2, 0.7)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    X = Graph(n, edges)
    parts = [f"g={index} n={n} e={X.edge_count}"]
    for s in range(1, n + 1):
        exact = min_max_degree(X, s)
        f = exact.f_value
        edeg, _ = induced_max_degree(X, exact.witness_subset)
        if exact.witness_subset.size != s or edeg != f:
            parts.append(f"s={s} EXACT-BAD-WITNESS")
        for target in range(s):
            out = branch_and_bound(X, s, target)
            want = "true" if target >= f else "false"
            if out.status != want:
                parts.append(f"s={s} target={target} MISMATCH {out.status} != {want}")
                continue
            if out.status == "true":
                deg, _ = induced_max_degree(X, out.witness)
                if out.witness.size != s or deg > target:
                    parts.append(f"s={s} target={target} BAD-WITNESS")
        # f is a lower bound, so the heuristic stops once it reaches f
        heur = heuristic_search(X, s, seed=index, budget=400, lower_bound=f)
        hdeg, _ = induced_max_degree(X, heur.witness_subset)
        if heur.witness_subset.size != s or hdeg != heur.f_value:
            parts.append(f"s={s} HEURISTIC-BAD-WITNESS")
        if heur.f_value < f:
            parts.append(f"s={s} HEURISTIC-BELOW-EXACT {heur.f_value} < {f}")
        parts.append(f"s={s} f={f} h={heur.f_value}")
    return " ".join(parts)


def oracle_agreement_suite(count: int = 100, seed: int = 0, jobs: int = 1) -> list[str]:
    """Compare branch-and-bound and the heuristic against the exhaustive engine
    on seeded random graphs; one report line per graph."""
    return parallel_map(_agreement_worker, [(i, seed) for i in range(count)], jobs=jobs)
