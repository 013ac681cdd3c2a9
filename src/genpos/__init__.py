"""genpos: exact general position numbers for finite graphs.

A vertex set S is in general position when no member lies on a shortest
path between two other members; gp(G) is the size of a largest such set.
The package provides exact solvers with certifying witnesses, the graph
constructions and closed-form predictions behind the supported theorems,
and a verification harness comparing the two.
"""

from .budget import EXACT, LOWER_BOUND, Budget, GpResult
from .constructions import (
    cartesian_product,
    complete,
    corona,
    cycle,
    disjoint_union,
    edgeless,
    join,
    kneser,
    ksubset_index,
    ksubsets,
    line_graph,
    path,
)
from .errors import InputError, ParseError
from .formulas import (
    Prediction,
    cartesian_witness,
    ekr_bound,
    gp_cartesian_lower,
    gp_corona,
    gp_join,
    gp_kneser2,
    gp_kneser3,
    gp_line_complete,
    hamming_lower,
    hamming_witness,
    kneser_condition,
    kneser_star_witness,
)
from .graph import (
    INFINITY,
    Graph,
    GroundAction,
    complement,
    connected_components,
    diameter,
    distances,
    induced_subgraph,
    is_connected,
    vertex_set,
)
from .harness import (
    TheoremReport,
    build_graph_spec,
    default_grid,
    emit_table,
    run_verify,
    theorem_ids,
)
from .invariants import alpha, eta, is_cluster_set, omega, rho
from .io import decode_graph6, encode_graph6, read_graph, write_graph
from .solver import (
    CliquePartition,
    Violation,
    characterization_check,
    gp_auto,  # not in __all__: the old name of gp_exact, which perfbench imports
    gp_exact,
    is_general_position,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "CliquePartition",
    "EXACT",
    "Graph",
    "GpResult",
    "GroundAction",
    "INFINITY",
    "InputError",
    "LOWER_BOUND",
    "ParseError",
    "Prediction",
    "TheoremReport",
    "Violation",
    "alpha",
    "build_graph_spec",
    "cartesian_product",
    "cartesian_witness",
    "characterization_check",
    "complement",
    "complete",
    "connected_components",
    "corona",
    "cycle",
    "decode_graph6",
    "default_grid",
    "diameter",
    "disjoint_union",
    "distances",
    "edgeless",
    "ekr_bound",
    "emit_table",
    "encode_graph6",
    "eta",
    "gp_cartesian_lower",
    "gp_corona",
    "gp_exact",
    "gp_join",
    "gp_kneser2",
    "gp_kneser3",
    "gp_line_complete",
    "hamming_lower",
    "hamming_witness",
    "induced_subgraph",
    "is_cluster_set",
    "is_connected",
    "is_general_position",
    "join",
    "kneser",
    "kneser_condition",
    "kneser_star_witness",
    "ksubset_index",
    "ksubsets",
    "line_graph",
    "omega",
    "path",
    "read_graph",
    "rho",
    "run_verify",
    "theorem_ids",
    "vertex_set",
    "write_graph",
]
