"""Tests for graph primitives, Cayley construction, and serialization."""

import pickle
import random
from collections import deque

import numpy as np
import pytest

from cayleydeg.extremal import verify_conjecture
from cayleydeg.graphs import (
    Graph,
    VertexSet,
    build_cayley,
    builtin_graph,
    components,
    counterexample_checks,
    counterexample_graph,
    export_graph,
    import_graph,
    induced_max_degree,
)
from cayleydeg.groups import make_generating_set, make_group


def test_vertex_set_basics():
    A = VertexSet.from_members(8, [5, 1, 3])
    assert A.size == 3
    assert A.members() == [1, 3, 5]
    assert 3 in A and 2 not in A
    assert list(A) == [1, 3, 5]
    assert VertexSet.full(4).members() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        VertexSet.from_members(4, [4])


def test_from_members_keeps_its_errors():
    for bad in (np.True_, 1.0):
        with pytest.raises(TypeError):
            VertexSet.from_members(4, [1, bad])
    for bad in (-1, 2**70):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 0\.\.3$"):
            VertexSet.from_members(4, [1, bad])
    assert VertexSet.from_members(0, []) == VertexSet(0, 0)
    # members past the first byte, repeated, and in any order
    assert VertexSet.from_members(20, [19, 8, 0, 8, 7]).mask == 1 << 19 | 1 << 8 | 1 << 7 | 1


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_graph_degree_bookkeeping():
    X = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert X.edge_count == 4
    assert X.degree(0) == 3 and X.degree(3) == 1
    assert X.max_degree() == 3
    assert not X.is_regular()
    assert builtin_graph("cycle:5").is_regular()


def test_cayley_graph_is_hypercube():
    # Z_2^3 with the standard basis must be Q3: adjacency iff Hamming distance 1
    G = make_group([2, 2, 2])
    S = make_generating_set(G, [1, 2, 4])
    X = build_cayley(G, S).graph
    assert X.n == 8 and X.edge_count == 12
    for u in range(8):
        for v in range(u + 1, 8):
            expected = bin(u ^ v).count("1") == 1
            assert (v in X.neighbors(u)) == expected


def test_cayley_graph_regularity():
    rng = random.Random(4096)
    for spec in ["z10", "d5", "q8", "s4"]:
        G = make_group(spec)
        # random symmetric identity-free set
        elems = set()
        while len(elems) < 3:
            g = rng.randrange(1, G.order)
            elems.add(g)
            elems.add(G.inv(g))
        S = make_generating_set(G, elems, allow_nongenerating=True)
        X = build_cayley(G, S).graph
        assert X.is_regular()
        assert X.degree(0) == S.size


def test_components_of_nongenerating_set():
    G = make_group([12])
    S = make_generating_set(G, [4, 8], allow_nongenerating=True)
    X = build_cayley(G, S).graph
    comps = [c.members() for c in components(X)]
    assert comps == [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]

    G6 = make_group([6])
    S6 = make_generating_set(G6, [2, 4], allow_nongenerating=True)
    comps6 = [c.members() for c in components(build_cayley(G6, S6).graph)]
    assert comps6 == [[0, 2, 4], [1, 3, 5]]


def test_induced_max_degree_small_cases():
    X = builtin_graph("complete:5")
    deg, arg = induced_max_degree(X, [0, 2, 4])
    assert (deg, arg) == (2, 0)
    deg, arg = induced_max_degree(X, [3])
    assert (deg, arg) == (0, 3)
    deg, arg = induced_max_degree(X, [])
    assert (deg, arg) == (0, None)


def test_induced_max_degree_matches_naive():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(4, 12)
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    edges.add((u, v))
        X = Graph(n, sorted(edges))
        members = rng.sample(range(n), rng.randint(0, n))
        U = set(members)
        naive = max(
            (sum(1 for w in X.neighbors(v) if w in U) for v in U), default=0
        )
        deg, arg = induced_max_degree(X, members)
        assert deg == naive
        if members:
            assert arg in U


def _girth(X):
    """Shortest cycle length by BFS from every vertex."""
    best = None
    for root in range(X.n):
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in X.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def test_petersen_catalog_graph():
    X = builtin_graph("petersen")
    assert X.n == 10 and X.edge_count == 15
    assert X.is_regular() and X.degree(0) == 3
    assert _girth(X) == 5


def test_catalog_errors():
    with pytest.raises(ValueError):
        builtin_graph("cycle:2")
    with pytest.raises(ValueError):
        builtin_graph("unknown")


def test_counterexample_family_checks():
    for n in range(1, 6):
        inst = counterexample_graph(n)
        X = inst.graph
        assert X.n == 4 * n + 2
        assert X.is_regular() and X.degree(0) == n + 1
        checks = counterexample_checks(inst)
        structural = ["regular", "bipartite", "subset_size", "induced_max_degree"]
        assert all(checks[k] for k in structural), (n, checks)
        # degree 1 beats sqrt(n+1) exactly when 2 < n+1
        assert checks["bound_violated"] == (n >= 2)
        # the chosen majority-side subset induces a perfect matching
        deg, _ = induced_max_degree(X, inst.subset)
        assert deg == 1
        assert inst.subset.size == X.n // 2 + 1


def test_counterexample_n1_is_hexagon():
    X = counterexample_graph(1).graph
    assert X.n == 6 and X.edge_count == 6
    assert X.is_regular() and X.degree(0) == 2
    assert _girth(X) == 6  # a single 6-cycle


def test_counterexample_rejects_bad_n():
    with pytest.raises(ValueError):
        counterexample_graph(0)


def test_export_json_exact_bytes():
    X = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert export_graph(X, "json") == b'{"n":3,"edges":[[0,1],[0,2],[1,2]]}'


def test_json_round_trip():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(1, 9)
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        }
        X = Graph(n, sorted(edges))
        Y = import_graph(export_graph(X, "json"), "json")
        assert X == Y


def test_dot_round_trip_and_isolated_vertices():
    X = Graph(5, [(0, 3), (1, 3)])  # vertices 2 and 4 are isolated
    text = export_graph(X, "dot").decode()
    assert "graph {" in text
    Y = import_graph(text, "dot")
    assert Y == X


def test_import_errors():
    with pytest.raises(ValueError):
        import_graph('{"n": 2}', "json")
    # every entry must be a list of two ints
    for text, message in [
        ('{"n": 3, "edges": [["a", 1]]}', "malformed edge entry"),
        ('{"n": 3, "edges": [[0, 1.0]]}', "malformed edge entry"),
        ('{"n": 3, "edges": [[0, true]]}', "malformed edge entry"),
        ('{"n": 3, "edges": [[[0], 1]]}', "malformed edge entry"),
        ('{"n": 3, "edges": [[0, 1, 2]]}', "malformed edge entry"),
        ('{"n": true, "edges": []}', "bad vertex count True"),
        ('{"n": 3, "edges": null}', "'edges' must be a list"),
        ("null", "must be an object with 'n' and 'edges'"),
        ('{"n": 3, "edges": [[0, 3]]}', "endpoint outside"),
        ("{", "malformed graph JSON"),
    ]:
        with pytest.raises(ValueError, match=message):
            import_graph(text, "json")
    with pytest.raises(ValueError):
        import_graph("digraph { 0 -> 1; }", "dot")
    with pytest.raises(ValueError):
        import_graph("graph { 0 -- ; }", "dot")
    with pytest.raises(ValueError):
        export_graph(Graph(1, []), "xml")


def _scalar_mul(G, a, b):
    """Reference product: the table entry, or mixed-radix digit sums."""
    if G.table is not None:
        return G.table[a][b]
    out, place = 0, 1
    for m in reversed(G.moduli):
        out += (((a // place) % m + (b // place) % m) % m) * place
        place *= m
    return out


def test_build_cayley_matches_scalar_edge_loop():
    rng = random.Random(77)
    for spec in ["z12", "z4x2x2", "z3x3", "z2x2x2x2", "d5", "q8", "s4", "a4", "d1"]:
        G = make_group(spec)
        for _ in range(4):
            elems = set()
            for _ in range(rng.randint(1, 3)):
                g = rng.randrange(1, G.order)
                elems |= {g, G.inv(g)}
            S = make_generating_set(G, elems, allow_nongenerating=True)
            expected = set()
            for g in range(G.order):
                for s in S.elements:
                    h = _scalar_mul(G, s, g)
                    expected.add((min(g, h), max(g, h)))
            X = build_cayley(G, S).graph
            assert X.edges() == sorted(expected), (spec, sorted(elems))


def _reference_graph(n, edges):
    """Everything a Graph reports, computed from a set of edge tuples and
    neighbor sets, or the ValueError message the input must raise."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) has an endpoint outside 0..{n - 1}"
        if u == v:
            return f"loop at vertex {u} is not allowed"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge ({key[0]},{key[1]})"
        seen.add(key)
    nbrs = [set() for _ in range(n)]
    for u, v in seen:
        nbrs[u].add(v)
        nbrs[v].add(u)
    comps, unseen = [], set(range(n))
    while unseen:
        stack = [min(unseen)]
        comp = set(stack)
        while stack:
            for w in nbrs[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        unseen -= comp
        comps.append(sorted(comp))
    degrees = [len(a) for a in nbrs]
    edge_list = sorted(seen)
    dot = "graph {\n" + "".join(f"  {v};\n" for v in range(n))
    dot += "".join(f"  {u} -- {v};\n" for u, v in edge_list) + "}\n"
    return {
        "adj_masks": tuple(sum(1 << w for w in a) for a in nbrs),
        "edge_count": len(seen),
        "neighbors": [tuple(sorted(a)) for a in nbrs],
        "degrees": degrees,
        "edges": edge_list,
        "max_degree": max(degrees, default=0),
        "is_regular": len(set(degrees)) <= 1,
        "components": comps,
        "json": f'{{"n":{n},"edges":[{",".join(f"[{u},{v}]" for u, v in edge_list)}]}}'.encode(),
        "dot": dot.encode(),
    }


def _graph_report(X):
    return {
        "adj_masks": X.adj_masks,
        "edge_count": X.edge_count,
        "neighbors": [X.neighbors(v) for v in range(X.n)],
        "degrees": [X.degree(v) for v in range(X.n)],
        "edges": X.edges(),
        "max_degree": X.max_degree(),
        "is_regular": X.is_regular(),
        "components": [c.members() for c in components(X)],
        "json": export_graph(X, "json"),
        "dot": export_graph(X, "dot"),
    }


def test_graph_constructor_matches_set_reference():
    rng = random.Random(88)
    for trial in range(300):
        n = rng.randint(1, 80)
        p = rng.choice([0.3, 0.03])  # sparse graphs have several components
        edges = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        rng.shuffle(edges)
        if trial % 3 == 1 and edges:  # a repeated edge, in either orientation
            u, v = rng.choice(edges)
            edges.insert(rng.randrange(len(edges) + 1), rng.choice([(u, v), (v, u)]))
        elif trial % 3 == 2:  # a loop or an endpoint out of range
            bad = rng.choice([(n - 1, n - 1), (0, n), (-1, 0)])
            edges.insert(rng.randrange(len(edges) + 1), bad)
        expect = _reference_graph(n, edges)
        if isinstance(expect, str):
            with pytest.raises(ValueError) as err:
                Graph(n, edges)
            assert str(err.value) == expect
            continue
        X = Graph(n, edges)
        assert _graph_report(X) == expect
        for m in X.adj_masks:
            assert VertexSet(n, m).members() == [v for v in range(n) if m >> v & 1]
        # equal, and then equal-hashing, exactly when the edge sets are equal
        Y = Graph(n, [(v, u) for u, v in reversed(edges)])
        assert X == Y and hash(X) == hash(Y)
        assert X != Graph(n + 1, edges)
        # == and hash are the ones Graph and VertexSet defined by hand
        assert hash(X) == hash((n, X.adj_masks))
        for m in X.adj_masks:
            assert hash(VertexSet(n, m)) == hash((n, m))
            assert (VertexSet(n, m) == VertexSet(n, X.adj_masks[0])) == (m == X.adj_masks[0])
        rotated = [((u + 1) % n, (v + 1) % n) for u, v in edges]
        Z = Graph(n, rotated)
        assert (X == Z) == (_reference_graph(n, rotated)["edges"] == expect["edges"])
        assert (X == Z) == (X.adj_masks == Z.adj_masks)
        assert X != Z or hash(X) == hash(Z)
        if edges:
            assert X != Graph(n, edges[1:])


def test_value_types_refuse_assignment():
    X = Graph(3, [(0, 1)])
    U = VertexSet(3, 0b101)
    for obj, name in [(X, "n"), (X, "adj_masks"), (X, "edge_count"), (U, "n"), (U, "mask")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    for obj in (X, U):
        # a name that is not a field: AttributeError, or TypeError from
        # Python 3.11's frozen slots dataclasses
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 0
    assert X == Graph(3, [(0, 1)]) and U == VertexSet(3, 0b101)


def test_value_types_pickle_at_every_protocol(monkeypatch):
    X = builtin_graph("petersen")
    U = VertexSet.from_members(10, [0, 2, 7])
    G = make_group("z6")
    report = verify_conjecture(G, make_generating_set(G, [1, 5, 3]))
    blobs = [(obj, pickle.dumps(obj, p)) for obj in (X, U, report)
             for p in range(pickle.HIGHEST_PROTOCOL + 1)]

    def rebuild(*args):
        raise AssertionError("unpickling rebuilt a Graph from its edges")

    monkeypatch.setattr(Graph, "__init__", rebuild)
    for orig, blob in blobs:
        obj = pickle.loads(blob)
        assert obj == orig and hash(obj) == hash(orig) and repr(obj) == repr(orig)
    assert pickle.loads(blobs[0][1]).edge_count == 15


def test_value_type_reprs():
    assert repr(Graph(4, [(0, 1), (2, 3)])) == "Graph(n=4, edges=2)"
    assert repr(builtin_graph("petersen")) == "Graph(n=10, edges=15)"
    assert repr(VertexSet(5, 0b10110)) == "VertexSet(5, {1,2,4})"
    assert repr(VertexSet(0)) == "VertexSet(0, {})"
    with pytest.raises(ValueError, match="mask has bits outside"):
        VertexSet(3, 8)
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        VertexSet(-1)


def test_hypercube_catalog_is_the_cayley_graph_of_z2_power():
    for dim in range(1, 9):
        G = make_group([2] * dim)
        expected = build_cayley(G, make_generating_set(G, [1 << i for i in range(dim)])).graph
        X = builtin_graph(f"q{dim}")
        assert X == expected and X.edge_count == expected.edge_count == dim << (dim - 1)
    assert builtin_graph(" Q12 ").n == 4096
    for name in ("q0", "q13"):
        with pytest.raises(ValueError, match="hypercube dimension"):
            builtin_graph(name)


def _peeled_bits(mask):
    """Set-bit positions, lowest first, by peeling off one bit per step."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bit_indices_match_the_peel():
    from cayleydeg.graphs import _bit_indices

    rng = random.Random(64)
    widths = list(range(0, 70)) + [127, 128, 129, 1000, 4096, 9973, 10_000]
    for n in widths:
        masks = [0, (1 << n) - 1]
        masks += [rng.getrandbits(n) for _ in range(5)]
        if n:  # sparse masks, and one bit alone at the top
            masks += [sum(1 << v for v in rng.sample(range(n), min(n, 3))), 1 << (n - 1)]
        for mask in masks:
            assert _bit_indices(mask) == _peeled_bits(mask), (n, mask)
            assert VertexSet(n, mask).members() == _peeled_bits(mask)


def test_complete_catalog_graph_matches_its_edge_list():
    for m in range(1, 65):
        X = builtin_graph(f"complete:{m}")
        expected = Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])
        assert X == expected and X.edge_count == expected.edge_count == m * (m - 1) // 2
        assert X.is_regular() and X.max_degree() == m - 1
    with pytest.raises(ValueError, match="complete graph needs at least 1 vertex"):
        builtin_graph("complete:0")
