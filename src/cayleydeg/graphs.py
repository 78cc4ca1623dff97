"""Simple undirected graphs, Cayley graph construction, vertex subsets,
induced degree queries, a counterexample family, a catalog of named graphs,
and DOT/JSON serialization.

Vertices are indices 0..n-1.  Adjacency is kept as one integer bitmask per
vertex: induced-subgraph degree counting is a popcount, and neighbor lists,
degrees, edges and components are read off the masks.  The exhaustive
engine reads a second, array form, the neighbor slots (Graph.neighbor_slots).
build_cayley hands a Cayley graph the translation rows of S as its slots and
ORs its masks from those rows in numpy, with no edge loop; any other graph
builds its slots from its masks on first use.
Graph and VertexSet are frozen dataclasses.  builtin_graph is the one catalog
behind every CLI --graph flag, and _json_records reads graph and signing JSON,
whose entries must be lists of ints.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import check_cap, load_json
from .groups import MAX_GROUP_ORDER, FiniteGroup, GeneratingSet

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
    "CUBE_DIMENSION_CAP",
]

CUBE_DIMENSION_CAP = 12  # of qN and Huang signings; 2^12 vertices cap the catalog
# the most vertices VertexSet.from_members allocates for, also the witness
# layer's cap on cube and lift points (witness.DEFAULT_LIFT_CAP)
_VERTEX_SET_CAP = 1 << 22


@dataclass(frozen=True, slots=True)
class VertexSet:
    """An immutable subset of 0..n-1 backed by an integer bitmask."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside 0..n-1")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "VertexSet":
        check_cap("vertex set", n, _VERTEX_SET_CAP)
        # digit n - v is vertex v; one linear parse, not a mask copy per member
        digits = bytearray(b"0") * (max(n, 0) + 1)
        for v in members:
            # operator.index refuses floats and numpy bools and unwraps numpy
            # ints, but takes a Python bool for 0 or 1, so that is refused here
            if type(v) is bool:
                raise ValueError(f"vertex {v} is a bool, not a vertex index")
            v = operator.index(v)
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            digits[n - v] = 49  # ord("1")
        return cls(n, int(digits, 2))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        check_cap("vertex set", n, _VERTEX_SET_CAP)
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

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{','.join(map(str, self.members()))}}})"


# _BYTE_BITS[b]: the positions of the set bits of the byte b, ascending
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending.

    One table lookup per nonzero byte, so the cost is linear in the bit
    length of mask (peeling off the lowest bit would copy the whole int once
    per set bit).
    """
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


def _as_vertex_set(n: int, U) -> VertexSet:
    """The one reading of a subset: a VertexSet over n, or member indices."""
    if isinstance(U, VertexSet):
        if U.n != n:
            raise ValueError(f"vertex set is over {U.n} vertices, graph has {n}")
        return U
    return VertexSet.from_members(n, U)


@dataclass(frozen=True, slots=True, init=False)
class Graph:
    """An undirected simple graph; adj_masks[v] has bit u set when u ~ v.

    More than MAX_GROUP_ORDER vertices, the order of the largest group, raise
    BudgetExceeded before anything is allocated."""

    n: int
    adj_masks: tuple[int, ...]
    edge_count: int = field(compare=False)
    _slots: np.ndarray | None = field(compare=False, repr=False)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        check_cap("graph", n, MAX_GROUP_ORDER)
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
        object.__setattr__(self, "_slots", None)

    @classmethod
    def _from_masks(
        cls, n: int, adj_masks: tuple[int, ...], edge_count: int, slots: np.ndarray | None = None
    ) -> "Graph":
        """A graph from adjacency masks that are already symmetric, loop-free
        and within 0..n-1, with edge_count their number of edges, and
        optionally its read-only neighbor slots; unchecked."""
        X = object.__new__(cls)
        object.__setattr__(X, "n", n)
        object.__setattr__(X, "adj_masks", adj_masks)
        object.__setattr__(X, "edge_count", edge_count)
        object.__setattr__(X, "_slots", slots)
        return X

    def __reduce__(self):
        # the slots are left out: an unpickled graph builds read-only ones
        return Graph._from_masks, (self.n, self.adj_masks, self.edge_count)

    def neighbor_slots(self) -> np.ndarray:
        """A read-only k x n index array, k the max degree (at least 1):
        column v lists the neighbors of v, then n, the index of no vertex,
        in its remaining slots.  So with a membership array that has a zero
        row n appended, sum_j member[slots[j]] is every vertex's degree into
        the member set.  Built from the masks once, on first use, and kept;
        a graph from build_cayley already has its translation rows."""
        if self._slots is None:
            n = self.n
            # the least dtype that holds n, since a dense graph keeps n k of them
            slots = np.full((max(self.max_degree(), 1), n), n, dtype=np.min_scalar_type(n))
            for v, m in enumerate(self.adj_masks):
                nbrs = _bit_indices(m)
                slots[: len(nbrs), v] = nbrs
            slots.flags.writeable = False
            object.__setattr__(self, "_slots", slots)
        return self._slots

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bit_indices(self.adj_masks[v]))

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, sorted."""
        return list(self._edge_pairs())

    def _edge_pairs(self) -> Iterator[tuple[int, int]]:
        """The edges in the order of edges(), one at a time, so that an
        export never holds the list and its serialization at once."""
        return ((u, v) for u, m in enumerate(self.adj_masks) for v in _bit_indices(m) if u < v)

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj_masks), default=0)

    def is_regular(self) -> bool:
        return len({m.bit_count() for m in self.adj_masks}) <= 1

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

    The set S is symmetric and identity-free, so each edge arises from s and
    its inverse and the result is an |S|-regular simple graph (connected
    exactly when S generates) with |G| |S| / 2 edges.  The translation rows
    of S are its neighbor slots, and its masks are OR-ed from them.
    """
    rows = G.translations(S.sorted_elements())
    rows.flags.writeable = False
    graph = Graph._from_masks(G.order, _row_masks(rows), G.order * S.size // 2, slots=rows)
    return CayleyGraph(graph=graph, group=G, gens=S)


def _row_masks(rows: np.ndarray) -> tuple[int, ...]:
    """Adjacency masks as Python ints: mask g has bit rows[j, g] for every j."""
    n = rows.shape[1]
    words = (n + 63) // 64
    bits = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    if words == 1:
        return tuple(np.bitwise_or.reduce(bits, axis=0).tolist())
    packed = np.zeros((n, words), dtype="<u8")
    np.bitwise_or.at(packed, (np.arange(n), rows >> 6), bits)
    data, width = packed.tobytes(), 8 * words
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))


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
    occupies 2n+1..4n+1.  More than 4096 vertices, the catalog's cap, raise
    BudgetExceeded before anything is built.  The adjacency masks are read
    off the part masks, since every edge list is a whole part or a matching.
    """
    if n < 1:
        raise ValueError(f"counterexample parameter must be >= 1, got {n}")
    size = 4 * n + 2
    check_cap("counterexample graph", size, 1 << CUBE_DIMENSION_CAP)
    a = (1 << (n + 1)) - 1
    b = ((1 << n) - 1) << (n + 1)
    c = a << (2 * n + 1)
    d = b << (2 * n + 1)
    # a_i ~ c_i and all of D; B ~ all of C; c_i ~ a_i and all of B; D ~ all of A
    masks = [1 << (2 * n + 1 + i) | d for i in range(n + 1)] + [c] * n
    masks += [1 << i | b for i in range(n + 1)] + [a] * n
    graph = Graph._from_masks(size, tuple(masks), (n + 1) * (2 * n + 1))
    return CounterexampleInstance(
        n=n,
        graph=graph,
        part_a=VertexSet(size, a),
        part_b=VertexSet(size, b),
        part_c=VertexSet(size, c),
        part_d=VertexSet(size, d),
        subset=VertexSet(size, a | c),
    )


def counterexample_checks(inst: CounterexampleInstance) -> dict[str, bool]:
    """The five defining checks of a counterexample instance, by name."""
    X = inst.graph
    n = inst.n
    left = inst.part_a.mask | inst.part_b.mask
    right = inst.part_c.mask | inst.part_d.mask
    regular = X.is_regular() and X.max_degree() == n + 1
    bipartite = not any(X.adj_masks[v] & (left if left >> v & 1 else right) for v in range(X.n))
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
    """Catalog graphs: ``petersen``, ``cycle:m``, ``complete:m``, and the
    hypercube ``qN`` for 1 <= N <= CUBE_DIMENSION_CAP.  A larger N, and cycles
    and complete graphs above 2^CUBE_DIMENSION_CAP vertices, the order of the
    largest qN, raise BudgetExceeded before any edge is listed.

    The Petersen graph uses the fixed ordering with outer 5-cycle 0..4,
    spokes i -- i+5, and inner edges (i+5) -- ((i+2) mod 5 + 5).  The
    vertices of qN are the N-bit masks, with u -- u xor 2^i: the Cayley
    graph of Z_2^N with its standard basis.
    """
    s = name.strip().lower()
    if s == "petersen":
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        return Graph(10, edges)
    if s[:1] == "q" and s[1:].isdigit():
        dim = int(s[1:])
        if dim < 1:
            raise ValueError(f"hypercube dimension must be >= 1, got {dim}")
        check_cap("hypercube", dim, CUBE_DIMENSION_CAP, "dimensions")
        size = 1 << dim
        edges = [(u, u | 1 << i) for u in range(size) for i in range(dim) if not u >> i & 1]
        return Graph(size, edges)
    head, _, arg = s.partition(":")
    if head in ("cycle", "complete") and arg:
        try:
            m = int(arg)
        except ValueError:
            raise ValueError(f"bad graph size in {name!r}") from None
        check_cap("graph", m, 1 << CUBE_DIMENSION_CAP)
        if head == "cycle":
            if m < 3:
                raise ValueError(f"cycle needs at least 3 vertices, got {m}")
            return Graph(m, ((i, (i + 1) % m) for i in range(m)))
        if m < 1:
            raise ValueError(f"complete graph needs at least 1 vertex, got {m}")
        full = (1 << m) - 1
        return Graph._from_masks(m, tuple(full ^ (1 << v) for v in range(m)), m * (m - 1) // 2)
    raise ValueError(f"unknown builtin graph {name!r}")


def export_graph(X: Graph, format: str = "json") -> bytes:
    """Serialize a graph to JSON or DOT bytes.

    JSON: ``{"n":N,"edges":[[u,v],...]}`` with u < v and edges sorted
    lexicographically.  DOT: an undirected ``graph`` block declaring every
    vertex (so isolated vertices survive) followed by ``u -- v`` lines.
    """
    fmt = format.lower()
    if fmt == "json":
        obj = {"n": X.n, "edges": [[u, v] for u, v in X._edge_pairs()]}
        return json.dumps(obj, separators=(",", ":")).encode()
    if fmt == "dot":
        lines = ["graph {"]
        lines += [f"  {v};" for v in range(X.n)]
        lines += [f"  {u} -- {v};" for u, v in X._edge_pairs()]
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown graph format {format!r}")


def _json_records(
    text: str, kind: str, key: str, width: int, cap: int
) -> tuple[int, list[list[int]]]:
    """N and the entries of ``{"n": N, key: [[i, ...], ...]}``, each entry a
    list of `width` ints (not bools); ranges are left to the caller.  N above
    `cap` is refused before the caller allocates for it."""
    obj = load_json(text, kind)
    if not isinstance(obj, dict) or "n" not in obj or key not in obj:
        raise ValueError(f"{kind} JSON must be an object with 'n' and '{key}'")
    n, entries = obj["n"], obj[key]
    if type(n) is not int or n < 0:
        raise ValueError(f"bad vertex count {n!r}")
    check_cap(kind, n, cap)
    if not isinstance(entries, list):
        raise ValueError(f"{kind} JSON '{key}' must be a list, got {type(entries).__name__}")
    for e in entries:
        if not (isinstance(e, list) and len(e) == width and all(type(x) is int for x in e)):
            raise ValueError(f"malformed {key[:-1]} entry {e!r}")
    return n, entries


_DOT_EDGE = re.compile(r"^(\d+)\s*--\s*(\d+)$")
_DOT_VERT = re.compile(r"^(\d+)$")


def import_graph(data: bytes | str, format: str = "json", cap: int = MAX_GROUP_ORDER) -> Graph:
    """Parse a graph from JSON or DOT produced by export_graph.  A graph over
    `cap` vertices is refused before it is built."""
    text = data.decode() if isinstance(data, bytes) else data
    fmt = format.lower()
    if fmt == "json":
        return Graph(*_json_records(text, "graph", "edges", 2, cap))
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
        check_cap("graph", n, cap)
        return Graph(n, edges)
    raise ValueError(f"unknown graph format {format!r}")
