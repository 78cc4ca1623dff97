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

The exhaustive scan unranks the subsets in lexicographic chunks of 64-bit
mask words and counts induced degrees with np.bitwise_count, so its memory
is bounded by the chunk size, not by C(n, s), for any n.  Branch-and-bound
keeps its include/exclude search on an explicit stack, so its depth is not
bounded by Python's recursion limit.  The heuristic keeps the degree of
every vertex into the current subset and scores each candidate swap from
that vector in O(1).  It stops as soon as its best subset meets a lower
bound on f read off the sorted degrees d_1 <= ... <= d_n and the edge count
e (_degree_floor): the largest of 0, d_s - (n - s) and
ceil(2 (e - d_{s+1} - ... - d_n) / s).  Its best subset changes only on a
strict decrease, which no subset can then make, so the rest of the budget
could not change its result.  At s = n that bound is the max degree itself,
so the one subset is evaluated once.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from ._parallel import parallel_map
from .errors import BudgetExceeded
from .graphs import Graph, VertexSet, build_cayley, builtin_graph, induced_max_degree
from .groups import (
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

# Bytes of the largest temporary the exhaustive engine makes: one uint64 per
# (vertex, subset) of a chunk.  A cached chunk of m subsets keeps
# m * (8 * words + n) bytes, at most _CHUNK_BYTES / 4 for n >= 8 (smaller n
# have at most 35 subsets), so the _CACHED_CHUNKS cached chunks stay under
# 16 MiB.  Only runs of at most _CACHED_CHUNKS chunks go through the cache: a
# longer run would evict every chunk, its own included, before reusing any.
_CHUNK_BYTES = 1 << 20
_CACHED_CHUNKS = 64


@lru_cache(maxsize=64)
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
def _subset_chunk(
    n: int, s: int, fix_zero: bool, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """The s-subsets of 0..n-1 of lexicographic ranks start..stop-1.

    With fix_zero, only subsets containing vertex 0 are ranked.  Returns
    (words, member): words[w, i] is bits 64w..64w+63 of subset i's mask and
    member[v, i] is 1 when vertex v is in subset i, both read-only.

    Ranks are unranked in one pass per vertex: among the ranks left at a
    vertex, those that take it (counted by _rank_table) come before those
    that skip it, which is the order of itertools.combinations.
    """
    lo = 1 if fix_zero else 0
    table = _rank_table(n - lo, s - lo)
    rank = np.arange(start, stop, dtype=np.int64)
    taken = np.zeros(rank.size, dtype=np.intp)
    member = np.zeros((n, rank.size), dtype=np.uint8)
    member[:lo] = 1
    ahead = np.empty(rank.size, dtype=np.int64)
    for v in range(lo, n):
        np.take(table[v - lo], taken, out=ahead, mode="clip")
        take = np.less(rank, ahead, out=member[v].view(np.bool_))
        np.copyto(ahead, 0, where=take)
        rank -= ahead
        taken += take
    # vertex v is bit v % 8 of byte v // 8 of the little-endian mask words
    packed = np.zeros((rank.size, 8 * ((n + 63) // 64)), dtype=np.uint8)
    packed[:, : (n + 7) // 8] = np.packbits(member, axis=0, bitorder="little").T
    words = np.ascontiguousarray(packed.view("<u8").T, dtype=np.uint64)
    words.setflags(write=False)
    member.setflags(write=False)
    return words, member


def _exhaustive(X: Graph, s: int, fix_zero: bool) -> tuple[int, VertexSet]:
    """Least max induced degree over s-subsets, and the lex-least minimizer.

    Chunks of subsets in lexicographic order are scored with one popcount
    per (vertex, mask word): the degree of v in U is |adj(v) & U|, counted
    only for members v.  A strict < across chunks keeps the first minimizer.
    """
    n = X.n
    total = math.comb(n - 1, s - 1) if fix_zero else math.comb(n, s)
    nwords = (n + 63) // 64
    adj = np.array(
        [[(a >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(nwords)] for a in X.adj_masks],
        dtype=np.uint64,
    ).reshape(n, nwords)
    dtype = np.min_scalar_type(n)  # holds every induced degree (< n)
    step = max(1, _CHUNK_BYTES // (8 * n * nwords))
    chunk = _subset_chunk if total <= _CACHED_CHUNKS * step else _subset_chunk.__wrapped__
    best = n  # above every induced degree
    best_mask = 0
    for start in range(0, total, step):
        words, member = chunk(n, s, fix_zero, start, min(start + step, total))
        deg = np.bitwise_count(words[0] & adj[:, 0, None]).astype(dtype, copy=False)
        for w in range(1, nwords):
            deg += np.bitwise_count(words[w] & adj[:, w, None])
        deg *= member
        top = deg.max(axis=0)
        i = int(top.argmin())
        if top[i] < best:
            best = int(top[i])
            best_mask = sum(int(words[w, i]) << (64 * w) for w in range(nwords))
    return best, VertexSet(n, best_mask)


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
    if not 1 <= s <= X.n:
        raise ValueError(f"subset size {s} out of range 1..{X.n}")
    pool, k = (X.n - 1, s - 1) if contains_zero else (X.n, s)
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
    f, witness = _exhaustive(X, s, contains_zero)
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
    committed vertex already exceeds target induced degree (degrees only
    grow as vertices are added) or when the remaining vertices cannot fill
    the subset.  If the node budget runs out the result is 'undecided'.
    """
    if not 0 <= s <= X.n:
        raise ValueError(f"subset size {s} out of range 0..{X.n}")
    if target < 0:
        raise ValueError(f"target degree must be nonnegative, got {target}")
    if s == 0:
        return BnBOutcome("true", VertexSet(X.n, 0), 0)

    adj = X.adj_masks
    n = X.n
    degs = [0] * n
    nodes = 0
    # one frame per included vertex, innermost last: (vertex, neighbours
    # whose degree it raised); excluding a vertex needs no frame
    stack: list[tuple[int, list[int]]] = []
    idx = count = mask = 0
    while count < s:
        if idx < n and count + (n - idx) >= s:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return BnBOutcome("undecided", None, nodes)
            nbrs = adj[idx] & mask
            newdeg = nbrs.bit_count()
            if newdeg <= target:
                bumped = []
                m = nbrs
                while m:
                    low = m & -m
                    j = low.bit_length() - 1
                    if degs[j] + 1 > target:
                        break
                    bumped.append(j)
                    m ^= low
                if not m:  # every neighbour stays within target: include
                    for j in bumped:
                        degs[j] += 1
                    degs[idx] = newdeg
                    stack.append((idx, bumped))
                    mask |= 1 << idx
                    count += 1
                    idx += 1
                    continue
            idx += 1  # exclude
            continue
        # dead end: undo the innermost inclusion and take its exclude branch
        if not stack:
            return BnBOutcome("false", None, nodes)
        j, bumped = stack.pop()
        degs[j] = 0
        for b in bumped:
            degs[b] -= 1
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
) -> ExtremalResult:
    """Seeded local search over size-s subsets; an upper bound on f.

    Each step scores every single swap (one member u out, one non-member w
    in, both ascending) by the pair (induced max degree, induced degree sum)
    and moves to the first best strict improvement of that pair; restarts
    from fresh random subsets until the evaluation budget is spent, or until
    the best max degree found meets the floor of _degree_floor, the largest
    of 0, d_s - (n - s) and ceil(2 (e - d_{s+1} - ... - d_n) / s).
    Deterministic for a fixed seed.

    The early stop never changes the result: the best subset is replaced
    only on a strict decrease of its max degree, which cannot go below a
    lower bound on f, and the random generator is local to the call.

    A swap is scored in O(1) from the degree vector deg[v] = |adj(v) & U|,
    kept for every vertex and updated in O(n) per move.  Once per u, top is
    the largest deg[x] - [x~u] over the other members x and reach holds the
    x that attain it; the swap then has max degree
    max(top + [adj(w) & reach != 0], deg[w] - [w~u]) and degree sum
    sum(U) - 2 deg[u] + 2 (deg[w] - [w~u]).  At s = n the floor is the max
    degree, so the only subset is evaluated once.
    """
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

    floor = _degree_floor(X, s)
    evals = 0
    best_top = n  # above every induced degree
    best_mask = 0

    while evals < budget and best_top > floor:
        mask = 0
        for v in rng.sample(range(n), s):
            mask |= 1 << v
        deg = [(a & mask).bit_count() for a in adj]
        members = [v for v in range(n) if mask >> v & 1]
        cur = max(deg[v] for v in members) * scale + sum(deg[v] for v in members)
        evals += 1
        if cur // scale < best_top:
            best_top, best_mask = cur // scale, mask
        while evals < budget and best_top > floor:
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


def _cayley_label(G: FiniteGroup, S: GeneratingSet) -> str:
    """The graph label of Cay(G, S): the group name, then S in brackets."""
    return f"{G.name}[{','.join(map(str, S.sorted_elements()))}]"


def verify_conjecture(
    G: FiniteGroup, S: GeneratingSet, budget: int = DEFAULT_SUBSET_BUDGET
) -> ConjectureReport:
    """Exact bound check for the Cayley graph of (G, S).

    Exhaustive enumeration is restricted to subsets containing vertex 0,
    which is sound because right translation by any group element is an
    automorphism of the Cayley graph.
    """
    X = build_cayley(G, S)
    s = G.order // 2 + 1
    res = min_max_degree(X.graph, s, budget=budget, contains_zero=True)
    return _bound_report(_cayley_label(G, S), res, S.size, t=S.t, abelian=G.is_abelian)


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
    order in [min_order, max_order], ordered by order then lexicographically."""
    out = []
    for order in range(max(2, min_order), max_order + 1):
        stack = [(order, order, ())]
        found = []
        while stack:
            left, cap, acc = stack.pop()
            if left == 1:
                found.append(acc)
                continue
            for m in range(min(left, cap), 1, -1):
                if left % m == 0:
                    stack.append((left // m, m, acc + (m,)))
        out.extend(sorted(found))
    return out


def abelian_scan_items(
    max_order: int, min_order: int = 2, max_size: int | None = None
) -> list[tuple]:
    """Scan items for every symmetric generating set of every cyclic-product
    group with order in range (see named_group_scan_items)."""
    moduli = [list(m) for m in iter_abelian_moduli(max_order, min_order)]
    return named_group_scan_items(moduli, max_size=max_size)


def named_group_scan_items(specs: Sequence, max_size: int | None = None) -> list[tuple]:
    """Scan items for every symmetric generating set of each group spec (a
    name or a moduli list, as make_group takes).

    A Cayley item is ("cayley", G, S) with G a FiniteGroup and S the
    GeneratingSet that enumerate_symmetric_generating_sets built, valid by
    construction; a catalog graph item is ("graph", name).
    """
    items = []
    for spec in specs:
        G = make_group(spec)
        for S in enumerate_symmetric_generating_sets(G, max_size=max_size):
            items.append(("cayley", G, S))
    return items


def graph_scan_items(names: Sequence[str]) -> list[tuple]:
    return [("graph", name) for name in names]


def _item_label(item: tuple) -> str:
    """The graph label a scan item gets in the CSV."""
    if item[0] == "cayley":
        return _cayley_label(item[1], item[2])
    return str(item[1])


def _item_graph(item: tuple) -> Graph:
    """The graph of a scan item, built afresh."""
    if item[0] == "cayley":
        return build_cayley(item[1], item[2]).graph
    return builtin_graph(item[1])


def _scan_row(item: tuple, budget: int) -> ConjectureReport | str:
    """The report of one scan item, or the error line naming its CSV label."""
    kind = item[0]
    try:
        if kind == "cayley":
            _, G, S = item
            return verify_conjecture(G, S, budget=budget)
        if kind == "graph":
            _, name = item
            X = builtin_graph(name)
            if not X.is_regular():
                raise ValueError(f"catalog graph {name} is not regular")
            res = min_max_degree(X, X.n // 2 + 1, budget=budget)
            return _bound_report(name, res, X.max_degree(), t=None, abelian=False)
        raise ValueError(f"unknown scan item kind {kind!r}")
    except ValueError as exc:  # recorded per instance; the scan keeps going
        return f"{_item_label(item)}: {exc}"


def _scan_worker(args: tuple) -> ConjectureReport | str:
    item, budget = args
    return _scan_row(item, budget)


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

    Returns (summary, csv_text).  Weak-bound failures are findings, not
    errors: they are counted, and each is re-verified with
    induced_max_degree on a freshly built graph and emitted as a standalone
    JSON document (written under violations_dir when given).  An instance
    that raises ValueError (a catalog graph that is not regular, or
    BudgetExceeded) is recorded in the summary under its CSV label and the
    scan continues; an InvariantBreach propagates.
    Output is byte-identical for any jobs count.
    """
    # a path that cannot be written fails here, before any instance is checked
    if out_csv is not None:
        Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
    if violations_dir is not None:
        Path(violations_dir).mkdir(parents=True, exist_ok=True)
    rows = parallel_map(_scan_worker, [(it, budget) for it in items], jobs=jobs)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    errors: list[str] = []
    violations: list[dict] = []
    weak_failures = 0
    min_margin: int | None = None
    count = 0
    for item, rep in zip(items, rows):
        if isinstance(rep, str):
            errors.append(rep)
            continue
        count += 1
        if min_margin is None or rep.margin < min_margin:
            min_margin = rep.margin
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
        if not rep.weak_ok:
            weak_failures += 1
            violations.append(_violation_record(rep, _item_graph(item)))

    csv_text = buf.getvalue()
    if out_csv is not None:
        Path(out_csv).write_text(csv_text)
    if violations_dir is not None:
        for i, rec in enumerate(violations):
            (Path(violations_dir) / f"violation_{i:04d}.json").write_text(
                json.dumps(rec, separators=(",", ":")) + "\n"
            )
    summary = ScanSummary(
        instances=count,
        weak_failures=weak_failures,
        min_margin=min_margin,
        errors=errors,
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
        heur = heuristic_search(X, s, seed=index, budget=400)
        hdeg, _ = induced_max_degree(X, heur.witness_subset)
        if heur.f_value < f or hdeg != heur.f_value:
            parts.append(f"s={s} HEURISTIC-BELOW-EXACT {heur.f_value} < {f}")
        parts.append(f"s={s} f={f} h={heur.f_value}")
    return " ".join(parts)


def oracle_agreement_suite(count: int = 100, seed: int = 0, jobs: int = 1) -> list[str]:
    """Compare branch-and-bound and the heuristic against the exhaustive engine
    on seeded random graphs; one report line per graph."""
    return parallel_map(_agreement_worker, [(i, seed) for i in range(count)], jobs=jobs)
