"""Input errors raised by the library functions themselves, each with its
exact message (the CLI's own input errors are tested in test_cli.py)."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cayleydeg
from cayleydeg.errors import BudgetExceeded
from cayleydeg.extremal import (
    abelian_scan_items,
    branch_and_bound,
    heuristic_search,
    min_max_degree,
    verify_conjecture,
)
from cayleydeg.graphs import Graph, VertexSet, builtin_graph, import_graph, induced_max_degree
from cayleydeg.groups import (
    element_order,
    enumerate_symmetric_generating_sets,
    make_generating_set,
    make_group,
)
from cayleydeg.signing import huang_signing, signing_search, spectrum, verify_signing
from cayleydeg.witness import abelian_witness, make_lift

C5 = builtin_graph("cycle:5")
Z4X2 = make_group("z4x2")
Q8 = make_group("q8")
D4 = make_group("d4")
Z8X8 = make_group("z8x8")
Z2_5 = make_group([2] * 5)

CASES = [
    (lambda: min_max_degree(C5, 0), "subset size 0 out of range 1..5"),
    (lambda: heuristic_search(C5, 0), "subset size 0 out of range 1..5"),
    (lambda: branch_and_bound(C5, 6, 0), "subset size 6 out of range 0..5"),
    (lambda: branch_and_bound(C5, 1, -1), "target degree must be nonnegative, got -1"),
    (lambda: branch_and_bound(C5, 3, 1, -1), "node budget must be nonnegative, got -1"),
    (lambda: Graph(-1, []), "vertex count must be nonnegative"),
    (lambda: Graph(10**12, []), "graph has 1000000000000 vertices, above the cap 10000"),
    (lambda: builtin_graph("cycle:x"), "bad graph size in 'cycle:x'"),
    (lambda: import_graph("{}", "png"), "unknown graph format 'png'"),
    (lambda: Q8.decode(1), "decode is only defined for cyclic-product groups"),
    (lambda: Q8.encode((0,)), "encode is only defined for cyclic-product groups"),
    (lambda: Z4X2.encode((0,)), "expected 2 residues, got 1"),
    (lambda: Z4X2.encode((0, 2)), "residue 2 out of range for modulus 2"),
    (lambda: make_group(3.5), "cannot interpret group spec 3.5"),
    (lambda: make_group("  "), "empty group spec"),
    (lambda: element_order(Z4X2, 8), "element 8 out of range for group of order 8"),
    (lambda: make_generating_set(Z4X2, []), "generating set is empty"),
    (
        lambda: make_lift(D4, make_generating_set(D4, [1, 3, 4])),
        "lifts are defined for cyclic-product groups only",
    ),
    (lambda: spectrum(np.zeros((2049, 2049))), "signing has 2049 vertices, above the cap 2048"),
    (lambda: signing_search(Graph(513, [])), "graph has 513 vertices, above the cap 512"),
    (lambda: signing_search(C5, restarts=0), "restarts must be at least 1, got 0"),
    (lambda: signing_search(C5, budget=0), "evaluation budget must be at least 1, got 0"),
    (lambda: spectrum(np.array([[0, 2], [1, 0]])), "spectrum requires a symmetric matrix"),
    (
        lambda: verify_signing(np.array([[0, 2**32], [2**32, 0]]), 0),
        f"verify_signing works in int64: entries of M M may reach {2**64}, above 2^63 - 1",
    ),
    (
        lambda: verify_signing(np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64), 0),
        f"verify_signing works in int64: entries of M M may reach {2**126}, above 2^63 - 1",
    ),
    # one row per size cap, each refused by errors.check_cap
    (lambda: make_group("z20000"), "z20000 has 20000 elements, above the cap 10000"),
    (
        lambda: make_group("dihedral:1025"),
        "multiplication table has 4202500 entries, above the cap 4194304",
    ),
    (
        lambda: enumerate_symmetric_generating_sets(Z2_5),
        "z2x2x2x2x2 has 31 involutions and inverse pairs, above the cap 24",
    ),
    (lambda: builtin_graph("q13"), "hypercube has 13 dimensions, above the cap 12"),
    (lambda: huang_signing(13), "hypercube has 13 dimensions, above the cap 12"),
    (
        lambda: signing_search(builtin_graph("cycle:21"), exhaustive=True),
        "graph has 21 edges, above the cap 20",
    ),
    (
        lambda: make_lift(Z8X8, make_generating_set(Z8X8, [1, 7, 8, 56, 9, 63]), cap=100),
        "lift source has 512 points, above the cap 100",
    ),
    (
        lambda: abelian_witness(Z2_5, make_generating_set(Z2_5, range(1, 24)), range(17)),
        "witness cube has 8388608 corners, above the cap 4194304",
    ),
    (lambda: VertexSet.from_members(3, [True, 2]), "vertex True is a bool, not a vertex index"),
    (lambda: induced_max_degree(C5, [0, False]), "vertex False is a bool, not a vertex index"),
    (lambda: VertexSet.full(1 << 40), "vertex set has 1099511627776 vertices, above the cap 4194304"),
    (lambda: abelian_scan_items(10**9), "z1000000000 has 1000000000 elements, above the cap 10000"),
    (
        lambda: make_generating_set(make_group("z10000"), range(1, 10_000)),
        "translation table has 99990000 entries, above the cap 1048576",
    ),
]


@pytest.mark.parametrize("call, message", CASES)
def test_library_input_errors_have_their_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
    # a size cap is a budget, with the wording of the file readers
    assert isinstance(err.value, BudgetExceeded) == ("above the cap" in message)


@pytest.mark.parametrize("call", [
    lambda: heuristic_search(C5, 3.0),
    lambda: heuristic_search(C5, 3, budget=400.0),
    lambda: heuristic_search(C5, 3, lower_bound=1.5),
    lambda: branch_and_bound(C5, 3, 2.5),
    lambda: branch_and_bound(C5, 3.0, 1),
    lambda: branch_and_bound(C5, 3, 1, node_budget=10.0),
    lambda: min_max_degree(C5, 3.0),
    lambda: min_max_degree(C5, 3, budget=1e8),
    lambda: verify_conjecture(Z4X2, make_generating_set(Z4X2, [1, 2, 6]), budget=1e8),
    lambda: verify_conjecture(Z4X2, make_generating_set(Z4X2, [1, 2, 6]), budget=None),
])
def test_engine_integer_arguments_refuse_floats(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_budget_exceeded_is_raised_by_the_cap_check_and_the_subset_budget_only():
    # every size cap goes through errors.check_cap; the subset budget, passed
    # on each exhaustive call, keeps its own two refusals in _check_budget,
    # which min_max_degree and the scan's blocks share
    found = []
    for path in sorted(Path(cayleydeg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an inner function wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "BudgetExceeded":
                found.append(f"{path.stem}.{owner.get(node)}")
    assert sorted(found) == [
        "errors.check_cap", "extremal._check_budget", "extremal._check_budget"
    ]


def test_a_huge_graph_is_refused_before_its_masks_are_allocated():
    for call in [lambda: Graph(10**12, []),
                 lambda: import_graph('{"n": 1000000000000, "edges": []}')]:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="above the cap 10000"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_empty_spectrum_and_a_group_passed_as_its_own_spec():
    empty = spectrum(np.zeros((0, 0)))
    assert empty.size == 0 and empty.min_modulus == 0.0
    assert make_group(Z4X2) is Z4X2


def test_exhaustive_signing_search_reads_no_climb_settings():
    want = signing_search(C5, exhaustive=True)
    got = signing_search(C5, exhaustive=True, budget=0, restarts=0)
    assert got.min_modulus == want.min_modulus > 0 and got.evaluations == 1 << 5
