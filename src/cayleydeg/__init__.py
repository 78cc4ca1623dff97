"""Cayley graphs of finite groups: induced-subgraph degree bounds,
constructive witnesses, counterexample constructions, and signed adjacency
spectra."""

from .errors import BudgetExceeded, InvariantBreach
from .extremal import (
    ConjectureReport,
    ExtremalResult,
    branch_and_bound,
    heuristic_search,
    min_max_degree,
    scan,
    verify_conjecture,
)
from .graphs import (
    CayleyGraph,
    CounterexampleInstance,
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
from .groups import (
    FiniteGroup,
    GeneratingSet,
    element_order,
    enumerate_symmetric_generating_sets,
    make_generating_set,
    make_group,
    parse_group_spec,
)
from .signing import (
    SignedAdjacency,
    Spectrum,
    huang_signing,
    signing_search,
    spectrum,
    verify_signing,
)
from .witness import (
    LinearLift,
    WitnessReport,
    abelian_witness,
    cover_shift,
    cube_witness,
    make_lift,
    random_witness_suite,
)

__version__ = "0.1.0"
