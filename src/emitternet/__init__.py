"""emitternet: statistics and protocol simulation for spin-active emitters.

The toolkit models an ensemble of optical emitters with narrowly
distributed absorption lines, quantifies how often lines of distinct
emitters coincide (a birthday-paradox effect), synthesizes and fits
photoluminescence-excitation spectra, places emitters in space to
estimate confocal-spot occupancy, and exactly simulates the
photon-heralded GHZ-state protocol including photon loss.

Each exported name, and each submodule, is imported on first use (PEP 562),
so ``python -m emitternet --version`` and ``report`` load no numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "errors": (
        "ClassificationError",
        "ConfigError",
        "DomainError",
        "EmitterNetError",
        "LineListError",
        "PeakDetectionError",
        "ProtocolError",
        "SummaryError",
        "UsageError",
    ),
    "seeding": ("SeedSpec", "as_seed"),
    "spectral": (
        "ALL_COMBOS",
        "REFERENCE_FREQUENCY_THZ",
        "EmitterLines",
        "EnsembleModel",
        "EnsembleSummary",
        "LineCombo",
        "LineTable",
        "NormalCenters",
        "UniformCenters",
        "lifetime_limited_linewidth",
        "sample_ensemble",
        "summarize_ensemble",
    ),
    "overlap": (
        "HistogramResult",
        "MonteCarloThreshold",
        "OverlapCurve",
        "ThresholdResult",
        "birthday_threshold",
        "bootstrap_std_error",
        "collision_probability",
        "fit_slope_through_origin",
        "histogram",
        "monte_carlo_threshold",
        "overlap_curve",
    ),
    "ple": (
        "FitResult",
        "LorentzianPeak",
        "PairAssignment",
        "PleSpectrum",
        "classify_pair_spectrum",
        "fit_multi_lorentzian",
        "initial_guess",
        "lorentzian_value",
        "synthesize",
    ),
    "register": (
        "ChainResult",
        "FidelitySweepRow",
        "HeraldOutcome",
        "HeraldOutcomes",
        "LossModel",
        "LossyChainResult",
        "MixedOutcome",
        "SpinRegisterState",
        "WeightedState",
        "basis_state",
        "fidelity_vs_eta_sweep",
        "ghz_fidelity",
        "ghz_target",
        "hadamard_all",
        "herald_pair",
        "init_pumped",
        "published_branch_weight",
        "published_model_fidelity",
        "run_ghz_chain",
        "run_ghz_chain_with_loss",
    ),
    "spatial": (
        "ConfocalPsf",
        "OccupancyStats",
        "SpatialScene",
        "occupancy_stats",
        "poisson_multi_occupancy",
        "sample_scene",
        "spectral_arrangement_rate",
        "spot_volume",
    ),
    "lineio": (
        "parse_line_list",
        "read_line_list",
        "read_spectrum",
        "serialize_line_list",
        "write_line_list",
        "write_spectrum",
    ),
    "config": ("RunConfig", "schema_description"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
