"""Sparse optimal measures on kernel-embedded candidate sets.

The core problem: maximize the concave functional

    integral of psi d(mu)  -  ||mu||^2 / 2

over probability measures mu on a finite ground set embedded by a positive
semidefinite kernel. Optima are atomic with small support; the package
provides greedy, second-greedy, and exchange solvers with convergence
certificates, an exhaustive oracle for desk-scale ground truth, market-style
diagnostics (margins, betas, slope inequalities), and two applications:
long-only portfolio construction and harmonic maze escape.
"""

from .errors import (
    AccessibilityFailure,
    AtomRescueWarning,
    BaseNotInIndex,
    ConvergenceError,
    CycleDetected,
    DomainError,
    DuplicatePointsWarning,
    EmptyMask,
    InvalidInput,
    InvariantViolation,
    MaxIterExceeded,
    MonotonicityError,
    NoProgress,
    NonNumericCell,
    NonPSD,
    NotAnIndex,
    NotPrunable,
    NumericalError,
    RaggedRow,
    RequiresOracle,
    StartInsideObstacle,
    TOutOfRange,
    TooFewRows,
    TooLarge,
    TopiaryError,
    UnknownReferencePoint,
    ZeroPortfolio,
    exit_code_for,
)
from .kernel import (
    FOCK_EXPONENT_GUARD,
    PSD_TOL,
    Kernel,
    euclidean,
    explicit_gram,
    fock,
    hardy,
)
from .measure import (
    PROBABILITY,
    SIGNED,
    AtomicMeasure,
    convex_combine,
    delta,
    drop_small_atoms,
    embedded_distance,
    inner,
    mu_eval,
    norm_sq,
    probability,
    signed,
)
from .objective import (
    DEFAULT_MARGIN_TOL,
    MarginTable,
    PsiSpec,
    aesthetic_objective,
    alpha,
    as_psi,
    beta,
    margin,
    margin_table,
    margins,
    score,
    step_gain,
    topiaric_rate,
)
from .solver import (
    ALGORITHMS,
    DECONSTRUCT_CAP,
    ORACLE_CAP,
    ExchangeOutcome,
    SolveConfig,
    TopiaryResult,
    TraceRow,
    SolverState,
    construction_ordering,
    exchange_add,
    greedy_step,
    grow_set,
    hedge,
    is_topiaric_index,
    oracle_solve,
    prune,
    prune_set,
    representatives,
    solve,
    solve_subset,
)
from .diagnostics import (
    CapmRow,
    ConvergenceSummary,
    JcRow,
    SmlPoint,
    SmlReport,
    capm_report,
    convergence_summary,
    invisible_residual,
    jc_report,
    sml_points,
)
from .portfolio import (
    RISK_FREE_LABEL,
    PortfolioReport,
    PortfolioSpec,
    ReturnsTable,
    add_risk_free,
    apply_risk_belief,
    ingest_returns,
    optimize_portfolio,
    reduce_adaptive,
)
from .maze import (
    ESCAPE_FACTOR,
    MAZE_MARGIN_TOL,
    Field,
    MazeResult,
    MazeSpec,
    PathTrace,
    conjugate_field,
    discrete_boundary,
    fields,
    potential_field,
    rasterize,
    solve_maze,
    trace_path,
)

__version__ = "1.0.0"
