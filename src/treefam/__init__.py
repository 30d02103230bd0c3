"""treefam: exact workbench for t-intersecting families of spanning trees of K_n.

Counting formulas, extremal constructions, spread verification, disjointness
graph analysis and probabilistic lower bounds -- all exact, all verified
against enumeration oracles at desk scale.
"""

from .counting import (
    containment_lower_bound,
    count_at_least,
    count_exactly,
    count_matching_family,
    count_trees_containing,
    exact_k_distribution,
    is_lower_bound_vacuous,
)
from .extremal import (
    DEFAULT_DT_CAP,
    BlockedReport,
    ExampleReport,
    FamilySpec,
    LLLLReport,
    NotstarReport,
    ScanReport,
    balanced_forest,
    blocked_Dt,
    brute_force_max_t_intersecting,
    conjecture_scan,
    count_avoiding,
    example_closed_form,
    example_forest,
    family_F_ntj_size,
    lemma_notstar_check,
    line_graph_adjacency,
    llll_condition_check,
    min_pairwise_intersection,
    stars_plus_edge_size,
    trivial_family_size,
)
from .gamma import (
    DEFAULT_GAMMA_CAP,
    DEFAULT_NODE_BUDGET,
    DisjointnessGraph,
    PackingResult,
    SearchResult,
    TreeFamily,
    build_gamma,
    enumerate_spanning_trees,
    max_clique,
    max_independent_set,
    packing_number,
)
from .spread import SpreadReport, verify_r_spread, verify_rt_spread
from .trees import (
    DEFAULT_ENUM_CAP,
    CapExceeded,
    Edge,
    Forest,
    SimpleGraph,
    Tree,
    cayley_count,
    components,
    edge,
    enumerate_trees,
    intersection_size,
    is_d_star_like,
    is_star,
    prufer_decode,
    prufer_encode,
    sample_uniform_tree,
    sample_uniform_trees,
    tree_from_index,
    tree_index,
)

__version__ = "0.1.0"
