"""Exact and heuristic minimization of induced max degree over majority subsets.

f(X) is the minimum over all vertex subsets U of size exactly s = n//2 + 1 of
the maximum degree of the induced subgraph X(U).  Restricting to that exact
size loses nothing: induced max degree is monotone under taking supersets, so
any majority subset U (|U| > n/2) contains a size-s subset U0 with
max-deg X(U0) <= max-deg X(U), and size-s subsets are themselves majority
subsets.  Hence min over |U| = s equals min over |U| > n/2.

Three methods are provided: an exhaustive scan over all C(n, s) subsets (the
reference; witness is the lexicographically least minimizer), a sound and
complete branch-and-bound decision procedure, and a seeded swap heuristic
that yields an upper bound only.  For Cayley graphs the exhaustive scan can
be restricted to subsets containing vertex 0, since right translation is a
graph automorphism carrying any subset to one through 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from ._parallel import parallel_map
from .errors import BudgetExceeded
from .graphs import Graph, VertexSet, build_cayley, builtin_graph, induced_max_degree
from .groups import (
    FiniteGroup,
    enumerate_symmetric_generating_sets,
    make_generating_set,
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

_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount32(a: np.ndarray) -> np.ndarray:
    return (_POP16[a & 0xFFFF] + _POP16[(a >> 16) & 0xFFFF]).astype(np.int32)


@lru_cache(maxsize=32)
def _subset_masks(n: int, s: int, fix_zero: bool) -> np.ndarray:
    """All s-subsets of 0..n-1 as uint32 masks, in lexicographic order.

    With fix_zero, only subsets containing vertex 0.  Lexicographic order of
    the sorted member tuples means the first minimizer found is the
    lexicographically least one.
    """
    if fix_zero:
        combos = combinations(range(1, n), s - 1)
        base = 1
    else:
        combos = combinations(range(n), s)
        base = 0
    out = np.fromiter(
        (base | sum(1 << v for v in c) for c in combos),
        dtype=np.uint32,
        count=math.comb(n - 1, s - 1) if fix_zero else math.comb(n, s),
    )
    out.setflags(write=False)
    return out


def _eval_subsets(X: Graph, subs: np.ndarray) -> np.ndarray:
    """Max induced degree for each subset mask (n <= 32)."""
    best = np.full(len(subs), -1, dtype=np.int32)
    adj = X.adj_masks
    for v in range(X.n):
        deg = _popcount32(subs & np.uint32(adj[v]))
        in_u = ((subs >> np.uint32(v)) & 1).astype(bool)
        np.maximum(best, np.where(in_u, deg, -1), out=best)
    return best


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of a subset-degree minimization."""

    graph_id: str
    subset_size: int
    f_value: int
    witness_subset: VertexSet
    method: str
    optimal: bool


def min_max_degree(
    X: Graph,
    s: int,
    method: str = "exhaustive",
    budget: int = DEFAULT_SUBSET_BUDGET,
    contains_zero: bool = False,
    seed: int = 0,
    label: str = "graph",
) -> ExtremalResult:
    """Minimize induced max degree over subsets of size exactly s.

    The exhaustive method is exact and returns the lexicographically least
    witness; it refuses to start if C(n, s) exceeds budget.  branch-and-bound
    is exact via iterative deepening over the decision procedure.  heuristic
    returns an upper bound only.
    """
    if not 1 <= s <= X.n:
        raise ValueError(f"subset size {s} out of range 1..{X.n}")
    if method == "exhaustive":
        total = math.comb(X.n - 1, s - 1) if contains_zero else math.comb(X.n, s)
        if total > budget:
            raise BudgetExceeded(
                f"C({X.n},{s}) = {total} subsets exceed the budget {budget}; "
                "try the branch-and-bound or heuristic method"
            )
        f, witness = _exhaustive(X, s, contains_zero)
        return ExtremalResult(label, s, f, witness, "exhaustive", True)
    if method == "branch-and-bound":
        for target in range(s):
            out = branch_and_bound(X, s, target, node_budget=budget)
            if out.status == "undecided":
                raise BudgetExceeded(
                    f"branch-and-bound hit the node budget {budget} at target {target}"
                )
            if out.status == "true":
                return ExtremalResult(label, s, target, out.witness, "branch-and-bound", True)
        raise AssertionError("unreachable: target s-1 always succeeds")
    if method == "heuristic":
        return heuristic_search(X, s, seed=seed, budget=min(budget, 10**5), label=label)
    raise ValueError(f"unknown method {method!r}")


def _exhaustive(X: Graph, s: int, fix_zero: bool) -> tuple[int, VertexSet]:
    if X.n <= 32:
        subs = _subset_masks(X.n, s, fix_zero)
        vals = _eval_subsets(X, subs)
        f = int(vals.min())
        first = int(np.argmax(vals == f))
        return f, VertexSet(X.n, int(subs[first]))
    # wide graphs: straight lexicographic iteration over Python int masks
    best = None
    best_mask = 0
    combos = (
        ((0,) + c for c in combinations(range(1, X.n), s - 1))
        if fix_zero
        else combinations(range(X.n), s)
    )
    adj = X.adj_masks
    for c in combos:
        mask = 0
        for v in c:
            mask |= 1 << v
        top = 0
        for v in c:
            dv = (adj[v] & mask).bit_count()
            if dv > top:
                top = dv
        if best is None or top < best:
            best = top
            best_mask = mask
    assert best is not None
    return best, VertexSet(X.n, best_mask)


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

    Vertices are branched in index order, include before exclude.  A branch
    dies when some committed vertex already exceeds target induced degree
    (degrees only grow as vertices are added) or when the remaining vertices
    cannot fill the subset.  If the node budget runs out the result is
    'undecided'.
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
    exhausted = False

    def rec(idx: int, count: int, mask: int) -> int | None:
        nonlocal nodes, exhausted
        if count == s:
            return mask
        if idx == n or count + (n - idx) < s:
            return None
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            return None
        nbrs = adj[idx] & mask
        newdeg = nbrs.bit_count()
        if newdeg <= target:
            ok = True
            bumped = []
            m = nbrs
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if degs[j] + 1 > target:
                    ok = False
                    break
                bumped.append(j)
                m ^= low
            if ok:
                for j in bumped:
                    degs[j] += 1
                degs[idx] = newdeg
                got = rec(idx + 1, count + 1, mask | (1 << idx))
                degs[idx] = 0
                for j in bumped:
                    degs[j] -= 1
                if got is not None:
                    return got
        if exhausted:
            return None
        return rec(idx + 1, count, mask)

    found = rec(0, 0, 0)
    if found is not None:
        return BnBOutcome("true", VertexSet(n, found), nodes)
    if exhausted:
        return BnBOutcome("undecided", None, nodes)
    return BnBOutcome("false", None, nodes)


def heuristic_search(
    X: Graph,
    s: int,
    seed: int = 0,
    budget: int = 10_000,
    label: str = "graph",
) -> ExtremalResult:
    """Seeded local search over size-s subsets; an upper bound on f.

    Each step scores every single swap (one vertex out, one in) by the pair
    (induced max degree, induced degree sum) and moves to the best strict
    improvement of that pair; restarts from fresh random subsets until the
    evaluation budget is spent.  Deterministic for a fixed seed.
    """
    if not 1 <= s <= X.n:
        raise ValueError(f"subset size {s} out of range 1..{X.n}")
    if budget < 1:
        raise ValueError(f"evaluation budget must be at least 1, got {budget}")
    rng = random.Random(seed)
    adj = X.adj_masks
    n = X.n

    def score(mask: int) -> tuple[int, int]:
        top = 0
        total = 0
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            dv = (adj[v] & mask).bit_count()
            total += dv
            if dv > top:
                top = dv
            m ^= low
        return top, total

    evals = 0
    best_val: int | None = None
    best_mask = 0

    while evals < budget:
        members = rng.sample(range(n), s)
        mask = 0
        for v in members:
            mask |= 1 << v
        cur = score(mask)
        evals += 1
        if best_val is None or cur[0] < best_val:
            best_val, best_mask = cur[0], mask
        improved = True
        while improved and evals < budget:
            improved = False
            move_best: tuple[int, int] | None = None
            move_mask = 0
            for u in range(n):
                if not (mask >> u) & 1:
                    continue
                without = mask & ~(1 << u)
                for w in range(n):
                    if (mask >> w) & 1:
                        continue
                    cand_mask = without | (1 << w)
                    cand = score(cand_mask)
                    evals += 1
                    if move_best is None or cand < move_best:
                        move_best = cand
                        move_mask = cand_mask
                    if evals >= budget:
                        break
                if evals >= budget:
                    break
            if move_best is not None and move_best < cur:
                mask, cur = move_mask, move_best
                improved = True
                if cur[0] < best_val:
                    best_val, best_mask = cur[0], mask

    return ExtremalResult(label, s, int(best_val), VertexSet(n, best_mask), "heuristic", False)


@dataclass(frozen=True)
class ConjectureReport:
    """Exact f for one Cayley graph, with the integer bound comparisons.

    weak_ok is 2 f^2 >= |S|; strong_ok is 2 f^2 >= |S| + t and is only
    evaluated for abelian groups (None otherwise); margin = 2 f^2 - |S|,
    and tight means that margin is 0.
    """

    label: str
    n: int
    set_size: int
    order2_count: int
    s: int
    f: int
    witness: VertexSet
    weak_ok: bool
    strong_ok: bool | None
    margin: int

    @property
    def tight(self) -> bool:
        return self.margin == 0


def verify_conjecture(
    G: FiniteGroup, S, budget: int = DEFAULT_SUBSET_BUDGET
) -> ConjectureReport:
    """Exact bound check for the Cayley graph of (G, S).

    Exhaustive enumeration is restricted to subsets containing vertex 0,
    which is sound because right translation by any group element is an
    automorphism of the Cayley graph.
    """
    X = build_cayley(G, S)
    s = G.order // 2 + 1
    label = f"{G.name}[{','.join(map(str, S.sorted_elements()))}]"
    res = min_max_degree(
        X.graph, s, method="exhaustive", budget=budget, contains_zero=True, label=label
    )
    f = res.f_value
    size = len(S.elements)
    weak = 2 * f * f >= size
    strong = (2 * f * f >= size + S.t) if G.is_abelian else None
    return ConjectureReport(
        label=label,
        n=G.order,
        set_size=size,
        order2_count=S.t,
        s=s,
        f=f,
        witness=res.witness_subset,
        weak_ok=weak,
        strong_ok=strong,
        margin=2 * f * f - size,
    )


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
    group with order in range.

    A Cayley item is ("cayley", G, elements) with G a FiniteGroup; a catalog
    graph item is ("graph", name).
    """
    items = []
    for moduli in iter_abelian_moduli(max_order, min_order):
        G = make_group(list(moduli))
        for S in enumerate_symmetric_generating_sets(G, max_size=max_size):
            items.append(("cayley", G, S.sorted_elements()))
    return items


def named_group_scan_items(names: Sequence[str], max_size: int | None = None) -> list[tuple]:
    items = []
    for name in names:
        G = make_group(name)
        for S in enumerate_symmetric_generating_sets(G, max_size=max_size):
            items.append(("cayley", G, S.sorted_elements()))
    return items


def graph_scan_items(names: Sequence[str]) -> list[tuple]:
    return [("graph", name) for name in names]


def _item_label(item: tuple) -> str:
    """The graph label a scan item gets in the CSV."""
    if item[0] == "cayley":
        _, G, elems = item
        return f"{G.name}[{','.join(map(str, sorted(elems)))}]"
    return str(item[1])


def _item_graph(item: tuple) -> Graph:
    """The graph of a scan item, built afresh."""
    if item[0] == "cayley":
        _, G, elems = item
        return build_cayley(G, make_generating_set(G, elems)).graph
    return builtin_graph(item[1])


def _scan_row(item: tuple, budget: int) -> dict:
    kind = item[0]
    try:
        if kind == "cayley":
            _, G, elems = item
            S = make_generating_set(G, elems)
            rep = verify_conjecture(G, S, budget=budget)
            return {
                "graph": rep.label,
                "n": rep.n,
                "regularity": rep.set_size,
                "s": rep.s,
                "f": rep.f,
                "method": "exhaustive",
                "weak_ok": rep.weak_ok,
                "strong_ok": rep.strong_ok,
                "margin": rep.margin,
                "witness": rep.witness,
            }
        if kind == "graph":
            _, name = item
            X = builtin_graph(name)
            if not X.is_regular():
                raise ValueError(f"catalog graph {name} is not regular")
            reg = X.max_degree()
            s = X.n // 2 + 1
            res = min_max_degree(X, s, method="exhaustive", budget=budget, label=name)
            f = res.f_value
            return {
                "graph": name,
                "n": X.n,
                "regularity": reg,
                "s": s,
                "f": f,
                "method": "exhaustive",
                "weak_ok": 2 * f * f >= reg,
                "strong_ok": None,
                "margin": 2 * f * f - reg,
                "witness": res.witness_subset,
            }
        raise ValueError(f"unknown scan item kind {kind!r}")
    except ValueError as exc:  # recorded per instance; the scan keeps going
        return {"error": f"{_item_label(item)}: {exc}"}


def _scan_worker(args: tuple) -> dict:
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

    Returns (summary, csv_text).  Weak-bound failures are findings, not
    errors: they are counted, and each is re-verified with
    induced_max_degree and emitted as a standalone JSON document (written
    under violations_dir when given).  An instance that raises ValueError
    (bad input, or BudgetExceeded) is recorded in the summary under its CSV
    label and the scan continues; an InvariantBreach propagates.
    Output is byte-identical for any jobs count.
    """
    rows = parallel_map(_scan_worker, [(it, budget) for it in items], jobs=jobs)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    errors: list[str] = []
    violations: list[dict] = []
    weak_failures = 0
    min_margin: int | None = None
    count = 0
    for item, row in zip(items, rows):
        if "error" in row:
            errors.append(row["error"])
            continue
        count += 1
        margin = row["margin"]
        if min_margin is None or margin < min_margin:
            min_margin = margin
        witness: VertexSet = row["witness"]
        writer.writerow(
            [
                row["graph"],
                row["n"],
                row["regularity"],
                row["s"],
                row["f"],
                row["method"],
                int(row["weak_ok"]),
                "" if row["strong_ok"] is None else int(row["strong_ok"]),
                margin,
                " ".join(map(str, witness.members())),
            ]
        )
        if not row["weak_ok"]:
            weak_failures += 1
            violations.append(_violation_record(row, _item_graph(item)))

    csv_text = buf.getvalue()
    if out_csv is not None:
        Path(out_csv).write_text(csv_text)
    if violations_dir is not None:
        vdir = Path(violations_dir)
        vdir.mkdir(parents=True, exist_ok=True)
        for i, rec in enumerate(violations):
            (vdir / f"violation_{i:04d}.json").write_text(
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


def _violation_record(row: dict, X: Graph) -> dict:
    """Re-verify a weak-bound failure on its graph X and package it as a
    standalone record."""
    witness: VertexSet = row["witness"]
    deg, _ = induced_max_degree(X, witness)
    return {
        "graph": row["graph"],
        "n": row["n"],
        "regularity": row["regularity"],
        "s": row["s"],
        "f": row["f"],
        "reverified_degree": deg,
        "reverified": deg == row["f"],
        "margin": row["margin"],
        "subset": witness.members(),
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
        exact = min_max_degree(X, s, method="exhaustive", label=f"g{index}")
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
