"""emitternet: statistics and protocol simulation for spin-active emitters.

The toolkit models an ensemble of optical emitters with narrowly
distributed absorption lines, quantifies how often lines of distinct
emitters coincide (a birthday-paradox effect), synthesizes and fits
photoluminescence-excitation spectra, places emitters in space to
estimate confocal-spot occupancy, and exactly simulates the
photon-heralded GHZ-state protocol including photon loss.
"""

__version__ = "0.1.0"

from .errors import (
    ClassificationError,
    ConfigError,
    DomainError,
    EmitterNetError,
    LineListError,
    PeakDetectionError,
    ProtocolError,
    SummaryError,
    UsageError,
)
from .seeding import SeedSpec, as_seed
from .spectral import (
    ALL_COMBOS,
    REFERENCE_FREQUENCY_THZ,
    EmitterLines,
    EnsembleModel,
    EnsembleSummary,
    LineCombo,
    LineTable,
    NormalCenters,
    UniformCenters,
    lifetime_limited_linewidth,
    min_pair_separation,
    sample_ensemble,
    summarize_ensemble,
)
from .overlap import (
    HistogramResult,
    MonteCarloThreshold,
    OverlapCurve,
    ThresholdResult,
    analytic_homogeneous_slope,
    birthday_threshold,
    bootstrap_std_error,
    collision_probability,
    fit_slope_through_origin,
    histogram,
    monte_carlo_threshold,
    overlap_curve,
)
from .ple import (
    FitResult,
    LorentzianPeak,
    PairAssignment,
    PleSpectrum,
    classify_pair_spectrum,
    fit_multi_lorentzian,
    initial_guess,
    lorentzian_value,
    synthesize,
)
from .register import (
    ChainResult,
    FidelitySweepRow,
    HeraldOutcome,
    HeraldOutcomes,
    LossModel,
    LossyChainResult,
    MixedOutcome,
    SpinRegisterState,
    WeightedState,
    basis_state,
    fidelity_vs_eta_sweep,
    ghz_fidelity,
    ghz_target,
    hadamard_all,
    herald_pair,
    init_pumped,
    published_branch_weight,
    published_model_fidelity,
    run_ghz_chain,
    run_ghz_chain_with_loss,
)
from .spatial import (
    ConfocalPsf,
    OccupancyStats,
    SpatialScene,
    occupancy_stats,
    poisson_multi_occupancy,
    sample_scene,
    spectral_arrangement_rate,
    spot_volume,
)
from .lineio import (
    parse_line_list,
    read_line_list,
    read_spectrum,
    serialize_line_list,
    write_line_list,
    write_spectrum,
)
from .config import RunConfig, default_config, ensemble_to_mapping, schema_description

__all__ = [name for name in dir() if not name.startswith("_")]
