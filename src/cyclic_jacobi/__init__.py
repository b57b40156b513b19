"""Cyclic Jacobi eigensolvers for small symmetric matrices.

Plane-rotation primitives, the algebra of pivot orderings and their
equivalence relations, an exhaustive n=4 ordering classifier with
convergence bounds, sweep drivers with seeded bound-verification
campaigns, and a hyperbolic solver for definite pairs (A, J).
"""

from .core import (
    PlaneRotation,
    SymMatrix,
    annihilate,
    format_matrix,
    off_norm,
    parse_matrix,
    read_matrix_file,
    rotation_for_pivot,
)
from .orderings import (
    BrokenCertificateError,
    Certificate,
    NotAdmissibleError,
    Permute,
    PivotOrdering,
    Shift,
    Transpose,
    admissible_transpose,
    all_pairs,
    cyclic_shift,
    enumerate_orderings,
    format_certificate,
    format_ordering,
    make_certificate,
    make_ordering,
    parse_certificate,
    parse_ordering,
    permute,
    relate,
    replay,
    reverse,
)
from .classification import (
    Bound,
    CatalogEntry,
    ClassificationError,
    ClassificationRecord,
    GeneralizedSerial,
    PAR_ANCHOR,
    PAR_ANCHOR_MIRROR,
    Parallel,
    SerialPerm,
    anchor_variants,
    c0_orderings,
    catalog,
    classify,
    compute_eta,
    label_text,
    member_serial_perm,
    parallel_orderings,
    serial_perm_orderings,
    verify_catalog,
)
from .driver import (
    CampaignReport,
    SweepReport,
    batch_sweep,
    default_rng,
    random_spd_factor,
    random_symmetric,
    random_symmetric_batch,
    run_cycles,
    run_parallel_cycle,
    verification_campaign,
)
from .jjacobi import (
    ConvergenceError,
    HyperbolicBreakdownError,
    IllConditionedError,
    JJacobiReport,
    JJacobiResult,
    MonitorInapplicableError,
    ProofMonitorVerdict,
    STANDARD_SIGNS,
    cubic_decay_indicator,
    monitor_proof_bounds,
    run_j_jacobi,
    sign_diagonal,
    solve_factored,
)

__version__ = "0.1.0"
