"""Exact spectral moments of k-uniform hypergraphs under the tensor
alpha*D + (1-alpha)*A, and the extremal orderings they induce."""

from .canon import are_isomorphic, canonical_form
from .enumeration import (
    FamilyFilter,
    enumerate_family,
    enumerate_hypertrees,
    enumerate_linear_unicyclic,
)
from .errors import (
    AlphaTraceError,
    BudgetExceeded,
    HypergraphError,
    MethodDisagreement,
    OrderingError,
    ParameterError,
    TransformError,
    UnsupportedError,
)
from .families import (
    FamilySpec,
    build_family,
    coalesce,
    cycle_with_pendant_star,
    cycle_with_tail,
    diameter_star,
    hypercycle,
    hyperpath,
    hyperstar,
    path_with_branch,
    starlike,
    triangle_with_pendant_counts,
)
from .hypergraph import (
    HYPERTREE,
    LINEAR_UNICYCLIC,
    OTHER,
    Classification,
    Hypergraph,
    classify,
    complete_subhypergraphs,
    diameter,
    girth,
    hypergraph,
    is_connected,
    is_linear,
)
from .ordering import (
    OrderVerdict,
    RankedFamily,
    SymbolicVerdict,
    VerificationReport,
    compare_at_alpha,
    compare_symbolic,
    list_claims,
    sort_family,
    verify_theorem,
)
from .polynomial import AlphaPoly
from .trace import (
    adjacency_moment,
    degree_moment,
    phi,
    signless_laplacian_moment,
    trace,
    trace_bruteforce,
    trace_closed,
    trace_decomposed,
    trace_k_plus_2,
    trace_structural,
)
from .transforms import (
    PathSite,
    first_path_slide,
    path_slide,
    second_path_slide,
    sigma_candidates,
    sigma_transform,
    third_path_slide,
)

__version__ = "0.1.0"
