"""Input errors raised by the library functions themselves, each with its
exact message (the CLI's own input errors are tested in test_cli.py)."""

import numpy as np
import pytest

from cayleydeg.extremal import branch_and_bound, heuristic_search, min_max_degree
from cayleydeg.graphs import Graph, builtin_graph, import_graph
from cayleydeg.groups import element_order, make_generating_set, make_group
from cayleydeg.signing import signing_search, spectrum
from cayleydeg.witness import make_lift

C5 = builtin_graph("cycle:5")
Z4X2 = make_group("z4x2")
Q8 = make_group("q8")
D4 = make_group("d4")

CASES = [
    (lambda: min_max_degree(C5, 0), "subset size 0 out of range 1..5"),
    (lambda: heuristic_search(C5, 0), "subset size 0 out of range 1..5"),
    (lambda: branch_and_bound(C5, 6, 0), "subset size 6 out of range 0..5"),
    (lambda: branch_and_bound(C5, 1, -1), "target degree must be nonnegative, got -1"),
    (lambda: Graph(-1, []), "vertex count must be nonnegative"),
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
    (lambda: spectrum(np.zeros((2049, 2049))), "matrix size 2049 exceeds the spectrum cap 2048"),
    (lambda: signing_search(Graph(513, [])), "graph has 513 vertices, search cap is 512"),
    (lambda: signing_search(C5, restarts=0), "restarts must be at least 1, got 0"),
    (lambda: signing_search(C5, budget=0), "evaluation budget must be at least 1, got 0"),
]


@pytest.mark.parametrize("call, message", CASES)
def test_library_input_errors_have_their_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_empty_spectrum_and_a_group_passed_as_its_own_spec():
    empty = spectrum(np.zeros((0, 0)))
    assert empty.size == 0 and empty.min_modulus == 0.0
    assert make_group(Z4X2) is Z4X2


def test_exhaustive_signing_search_reads_no_climb_settings():
    want = signing_search(C5, exhaustive=True)
    got = signing_search(C5, exhaustive=True, budget=0, restarts=0)
    assert got.min_modulus == want.min_modulus > 0 and got.evaluations == 1 << 5
