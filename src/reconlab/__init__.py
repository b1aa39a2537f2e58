"""reconlab: a numerical laboratory for deck-equivalent symmetric matrices.

Matrices whose vertex-deleted principal submatrices match index by index up
to permutations share determinant identities, a distinguished rank-one
perturbation, and (on an interval of perturbations) their lowest eigenpair.
This package provides the matrix primitives, the deck-certificate search,
Gram-vector presentations with their perturbation path, solid-angle norms of
simplicial cones, and grid verifiers exposing all of it behind a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BadPosition,
    ConsistencyError,
    DegenerateOrder,
    DimensionMismatch,
    DrawFailed,
    LambdaTooSmall,
    NonSimplicialCone,
    NotCertified,
    NotFinite,
    NotHypomorphic,
    NotNested,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    NotSymmetric,
    ParseError,
    PreconditionViolated,
    ReconError,
    SearchTooLarge,
)
from .graph6 import Graph6Record, graph6_decode, graph6_encode, read_graph6_lines
from .hypomorphism import (
    Hypomorphism,
    HypomorphyCertificate,
    cycle_adjacency,
    cycle_pair_corpus,
    complete_adjacency,
    complete_bipartite_adjacency,
    find_hypomorphism,
    gen_pair,
    matrix_pair,
    path_adjacency,
    verify_hypomorphism,
)
from .matrixcore import (
    Permutation,
    SymmetricMatrix,
    deck,
    majors_multiset,
    perm_similarity,
    shifted_det,
)
from .presentation import (
    GoodPositionReason,
    GoodPositionReport,
    PerturbationPath,
    Presentation,
    factor_presentation,
    good_position_report,
    lambda0_certified,
    lambda0_search,
    per1_report,
    perturb_presentation,
    perturbation_path,
    project_origin,
    t_of_lambda,
    volume_eigenvector,
)
from .solidangle import (
    AngleMethod,
    Cone,
    SolidAngleEstimate,
    angle_fraction,
    ball_volume,
    combined_std_error,
    comparison_check,
    cone_contains,
    displacement_check,
    monotonicity_check,
    partition_check,
)
from .verifiers import (
    GridReport,
    MainTheoremReport,
    good_position_shift,
    verify_eq1,
    verify_main1_t_agreement,
    verify_main2,
    verify_main_theorem,
    verify_tutte,
)
from .geometry_suite import SuiteReport, run_geometry_suite
