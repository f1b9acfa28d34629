"""Spectral toolkit for periodic polyharmonic operators.

Ground-truth Bloch spectra via plane-wave diagonalization, resonance
classification of quasimomenta, iterated eigenvalue expansions with
oracle-verified error decay, resonant coupling blocks, simple-set
membership tests, band/gap scanning, and Monte-Carlo resonance-measure
estimates.
"""

from .errors import (
    CascadeInequalityViolated,
    ConfigError,
    ConvergenceFailure,
    EmptyDirections,
    InsufficientBands,
    NoBracket,
    NoCandidate,
    PartitionBreakdown,
    PhaseDegenerate,
    PreconditionError,
    ShellViolation,
    SingularBasis,
    SmallDenominator,
    SpectralError,
    WindowNotConverged,
)
from .lattice import LatticeModel, LatticeVector, QuasiMomentum, dual_lattice
from .potential import FourierPotential, cosine_pair, cosine_sum, load_potential, random_potential
from .oracle import (BlochSpectrum, PlanewaveBasis, assemble, bloch_solve, diagonalize, free_eigenvalues, solve,
                     track_dominant)
from .geometry import (
    MAX_SERIES_ORDER,
    ParameterCascade,
    ResonanceClass,
    classify,
    derive_parameters,
    direction_pool,
    inequality_report,
    membership_profile,
    s0_threshold,
)
from .series import (
    KnownPartExpansion,
    MatchResult,
    SeriesEvaluation,
    SweepTable,
    evaluate_series,
    known_part_sequence,
    match_eigenvalue,
    order_sweep,
    required_window_radius,
    s_k,
)
from .block import (
    BlockMatch,
    ResonantBlock,
    ResonantIndexSet,
    assemble_block,
    build_index_set,
    dominant_block_index,
    match_resonant,
    tail_coupling_bound,
)
from .simple import (
    BlochReport,
    KnownPart,
    RayRoot,
    SimplicityReport,
    bloch_verify,
    check_simplicity,
    coefficient_prediction,
    isoenergetic_sample,
    k_set,
    known_part,
)
from .scanner import (
    BandTable,
    GapReport,
    MeasureEstimate,
    band_functions,
    basis_moves,
    certified_basis_radius,
    continuity_report,
    gap_report,
    measure_fraction,
    stable_gap_report,
)

__version__ = "0.1.0"
