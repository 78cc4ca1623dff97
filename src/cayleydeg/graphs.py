"""Simple undirected graphs, Cayley graph construction, vertex subsets,
induced degree queries, a counterexample family, and DOT/JSON serialization.

Vertices are indices 0..n-1.  Adjacency is kept once, as one integer
bitmask per vertex: induced-subgraph degree counting is a popcount, and
neighbor lists, degrees, edges and components are read off the masks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .groups import FiniteGroup, GeneratingSet

__all__ = [
    "Graph",
    "CayleyGraph",
    "VertexSet",
    "CounterexampleInstance",
    "build_cayley",
    "induced_max_degree",
    "components",
    "counterexample_graph",
    "counterexample_checks",
    "builtin_graph",
    "export_graph",
    "import_graph",
]


class VertexSet:
    """An immutable subset of 0..n-1 backed by an integer bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside 0..n-1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *_):
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        # slots plus the setattr guard defeat default pickling
        return (VertexSet, (self.n, self.mask))

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> list[int]:
        return _bit_indices(self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __iter__(self):
        return iter(self.members())

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{','.join(map(str, self.members()))}}})"


def _bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _as_vertex_set(n: int, U) -> VertexSet:
    if isinstance(U, VertexSet):
        if U.n != n:
            raise ValueError(f"vertex set is over {U.n} vertices, graph has {n}")
        return U
    return VertexSet.from_members(n, U)


class Graph:
    """An undirected simple graph; adj_masks[v] has bit u set when u ~ v."""

    __slots__ = ("n", "adj_masks", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            count += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj_masks", tuple(masks))
        object.__setattr__(self, "edge_count", count)

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.edges()))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bit_indices(self.adj_masks[v]))

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, sorted."""
        return [(u, v) for u, m in enumerate(self.adj_masks) for v in _bit_indices(m) if u < v]

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj_masks), default=0)

    def is_regular(self) -> bool:
        return len({m.bit_count() for m in self.adj_masks}) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj_masks == other.adj_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj_masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class CayleyGraph:
    """A Cayley graph together with the group and generating set it came from."""

    graph: Graph
    group: FiniteGroup
    gens: GeneratingSet


def build_cayley(G: FiniteGroup, S: GeneratingSet) -> CayleyGraph:
    """Cayley graph on G with edges {g, s*g} for every s in S.

    The set S is symmetric, so each edge arises from s and its inverse; the
    result is an |S|-regular simple graph (connected exactly when S
    generates).
    """
    rows = G.translations(S.sorted_elements())
    g = np.broadcast_to(np.arange(G.order), rows.shape)
    # s*g = h exactly when s^-1*h = g, so every edge shows up once from each
    # end; keep it at its smaller end
    up = g < rows
    graph = Graph(G.order, zip(g[up].tolist(), rows[up].tolist()))
    return CayleyGraph(graph=graph, group=G, gens=S)


def induced_max_degree(X: Graph, U) -> tuple[int, int | None]:
    """Maximum degree of the subgraph induced by U, with its argmax vertex.

    Returns (degree, vertex) where vertex is the smallest index attaining the
    maximum.  An edgeless induced subgraph reports degree 0 at the smallest
    member of U; an empty U reports (0, None).
    """
    U = _as_vertex_set(X.n, U)
    if U.mask == 0:
        return 0, None
    best = -1
    arg = None
    for v in U.members():
        deg = (X.adj_masks[v] & U.mask).bit_count()
        if deg > best:
            best = deg
            arg = v
    return best, arg


def components(X: Graph) -> list[VertexSet]:
    """Connected components, listed in order of their smallest vertex."""
    unseen = (1 << X.n) - 1
    out = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reached = 0
            for u in _bit_indices(frontier):
                reached |= X.adj_masks[u]
            frontier = reached & ~comp
            comp |= frontier
        unseen &= ~comp
        out.append(VertexSet(X.n, comp))
    return out


@dataclass(frozen=True)
class CounterexampleInstance:
    """A regular bipartite graph where one majority subset induces max degree 1.

    Parts A and C have n+1 vertices, B and D have n.  Edges are a perfect
    matching between A and C, all of A x D, and all of B x C, which makes the
    graph (n+1)-regular and bipartite with sides L = A u B and R = C u D.
    The distinguished subset A u C has size 2(n+1) = |L| + 1, a majority of
    one side plus matching partners, yet induces only the matching.
    """

    n: int
    graph: Graph
    part_a: VertexSet
    part_b: VertexSet
    part_c: VertexSet
    part_d: VertexSet
    subset: VertexSet

    def to_json(self) -> str:
        obj = {
            "n": self.graph.n,
            "edges": [[u, v] for u, v in self.graph.edges()],
            "parts": {
                "A": self.part_a.members(),
                "B": self.part_b.members(),
                "C": self.part_c.members(),
                "D": self.part_d.members(),
            },
            "subset": self.subset.members(),
        }
        return json.dumps(obj, separators=(",", ":"))


def counterexample_graph(n: int) -> CounterexampleInstance:
    """Build the counterexample instance with parameter n >= 1.

    Vertex layout: A = 0..n, B = n+1..2n, C = 2n+1..3n+1, D = 3n+2..4n+1,
    so the left side L = A u B occupies 0..2n and the right side R = C u D
    occupies 2n+1..4n+1.
    """
    if n < 1:
        raise ValueError(f"counterexample parameter must be >= 1, got {n}")
    a = list(range(0, n + 1))
    b = list(range(n + 1, 2 * n + 1))
    c = list(range(2 * n + 1, 3 * n + 2))
    d = list(range(3 * n + 2, 4 * n + 2))
    edges = [(a[i], c[i]) for i in range(n + 1)]
    edges += [(x, y) for x in a for y in d]
    edges += [(x, y) for x in b for y in c]
    size = 4 * n + 2
    graph = Graph(size, edges)
    return CounterexampleInstance(
        n=n,
        graph=graph,
        part_a=VertexSet.from_members(size, a),
        part_b=VertexSet.from_members(size, b),
        part_c=VertexSet.from_members(size, c),
        part_d=VertexSet.from_members(size, d),
        subset=VertexSet.from_members(size, a + c),
    )


def counterexample_checks(inst: CounterexampleInstance) -> dict[str, bool]:
    """The five defining checks of a counterexample instance, by name."""
    X = inst.graph
    n = inst.n
    left = inst.part_a.mask | inst.part_b.mask
    right = inst.part_c.mask | inst.part_d.mask
    regular = X.is_regular() and X.max_degree() == n + 1
    bipartite = all(
        (X.adj_masks[v] & left) == 0 for v in VertexSet(X.n, left).members()
    ) and all((X.adj_masks[v] & right) == 0 for v in VertexSet(X.n, right).members())
    size_ok = inst.subset.size == 2 * (n + 1) and inst.subset.size == left.bit_count() + 1
    deg, _ = induced_max_degree(X, inst.subset)
    induced_ok = deg == 1
    # the majority-side analog would demand induced degree sqrt((n+1)/2);
    # degree 1 beats it exactly when 2 * 1^2 < n + 1
    bound_violated = 2 < n + 1
    return {
        "regular": regular,
        "bipartite": bipartite,
        "subset_size": size_ok,
        "induced_max_degree": induced_ok,
        "bound_violated": bound_violated,
    }


def builtin_graph(name: str) -> Graph:
    """Catalog graphs: ``petersen``, ``cycle:m``, ``complete:m``.

    The Petersen graph uses the fixed ordering with outer 5-cycle 0..4,
    spokes i -- i+5, and inner edges (i+5) -- ((i+2) mod 5 + 5).
    """
    s = name.strip().lower()
    if s == "petersen":
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        return Graph(10, edges)
    head, _, arg = s.partition(":")
    if head in ("cycle", "complete") and arg:
        try:
            m = int(arg)
        except ValueError:
            raise ValueError(f"bad graph size in {name!r}") from None
        if head == "cycle":
            if m < 3:
                raise ValueError(f"cycle needs at least 3 vertices, got {m}")
            return Graph(m, [(i, (i + 1) % m) for i in range(m)])
        if m < 1:
            raise ValueError(f"complete graph needs at least 1 vertex, got {m}")
        return Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])
    raise ValueError(f"unknown builtin graph {name!r}")


def export_graph(X: Graph, format: str = "json") -> bytes:
    """Serialize a graph to JSON or DOT bytes.

    JSON: ``{"n":N,"edges":[[u,v],...]}`` with u < v and edges sorted
    lexicographically.  DOT: an undirected ``graph`` block declaring every
    vertex (so isolated vertices survive) followed by ``u -- v`` lines.
    """
    fmt = format.lower()
    if fmt == "json":
        obj = {"n": X.n, "edges": [[u, v] for u, v in X.edges()]}
        return json.dumps(obj, separators=(",", ":")).encode()
    if fmt == "dot":
        lines = ["graph {"]
        lines += [f"  {v};" for v in range(X.n)]
        lines += [f"  {u} -- {v};" for u, v in X.edges()]
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown graph format {format!r}")


_DOT_EDGE = re.compile(r"^(\d+)\s*--\s*(\d+)$")
_DOT_VERT = re.compile(r"^(\d+)$")


def import_graph(data: bytes | str, format: str = "json") -> Graph:
    """Parse a graph from JSON or DOT produced by export_graph."""
    text = data.decode() if isinstance(data, bytes) else data
    fmt = format.lower()
    if fmt == "json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed graph JSON: {exc}") from exc
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise ValueError("graph JSON must be an object with 'n' and 'edges'")
        n = obj["n"]
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"bad vertex count {n!r}")
        edges = []
        for e in obj["edges"]:
            if not (isinstance(e, list) and len(e) == 2):
                raise ValueError(f"malformed edge entry {e!r}")
            edges.append((e[0], e[1]))
        return Graph(n, edges)
    if fmt == "dot":
        body = text.strip()
        if not body.startswith("graph") or not body.endswith("}"):
            raise ValueError("malformed DOT: expected an undirected 'graph { ... }' block")
        inner = body[body.index("{") + 1 : body.rindex("}")]
        verts: set[int] = set()
        edges = []
        for raw in inner.split("\n"):
            stmt = raw.strip().rstrip(";").strip()
            if not stmt:
                continue
            m = _DOT_EDGE.match(stmt)
            if m:
                u, v = int(m.group(1)), int(m.group(2))
                verts.add(u)
                verts.add(v)
                edges.append((u, v))
                continue
            m = _DOT_VERT.match(stmt)
            if m:
                verts.add(int(m.group(1)))
                continue
            raise ValueError(f"malformed DOT statement {stmt!r}")
        n = max(verts) + 1 if verts else 0
        return Graph(n, edges)
    raise ValueError(f"unknown graph format {format!r}")
