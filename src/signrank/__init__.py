"""Exact-arithmetic toolkit for signings and weightings of graph adjacency
matrices: decide and construct edge signs giving full rank and nowhere-zero
integer weights giving rank deficiency, with {1,2}-factor enumeration and
zero-sum flows as the machinery.  Matrices are plain lists of integer rows.
"""

__version__ = "0.1.0"

from .assignments import EdgeAssignment
from .errors import (
    GraphParseError,
    InvalidAssignmentError,
    PreconditionError,
    ResourceCapError,
    SignRankError,
)
from .exact_linalg import adjacency_matrix, det, matrix_at_point, permanent, rank
from .factors import count_factors, count_nonzero_transversals, has_factor, perrank_fast
from .graph_core import (
    Graph,
    components,
    encode_graph6,
    is_bipartite,
    parse_edge_list,
    parse_graph6,
)
from .sign_search import (
    SignSearchOutcome,
    find_fullrank_sign,
    max_rank_over_signs,
    min_rank_over_signs,
)
from .weight_search import WeightSearchOutcome, find_singular_weight, verify_weight
from .zero_sum_flow import (
    FlowObstruction,
    flow_obstruction,
    least_bound_flow,
    verify_flow,
    verify_obstruction,
)
