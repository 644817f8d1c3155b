"""The command line with every analysis module loaded.

The computing subcommands live in :mod:`emitternet._commands` and the
parser, ``main``, the summary writer, the output stage and ``report`` in
:mod:`emitternet._front`; ``main`` loads only the analysis modules of the
command it runs. Importing this module loads every one of them, and it
re-exports the names it has always held.
"""
# every name here is a re-export
from ._commands import (  # noqa: F401
    _COMMANDS,
    _cmd_birthday,
    _cmd_fit_ple,
    _cmd_overlap,
    _cmd_protocol,
    _cmd_sample,
    _cmd_spatial,
    _complex_pairs,
)
from ._front import (  # noqa: F401
    PROVENANCE_NOTE,
    SEED_ENV_VAR,
    _json_text,
    _Outcome,
    entrypoint,
    main,
)
from .config import RunConfig, default_config  # noqa: F401
from .lineio import read_line_list, read_spectrum  # noqa: F401
from .overlap import (  # noqa: F401
    birthday_threshold,
    fit_slope_through_origin,
    histogram,
    monte_carlo_threshold,
    overlap_curve,
)
from .ple import (  # noqa: F401
    LorentzianPeak,
    _check_fit_size,
    classify_pair_spectrum,
    fit_multi_lorentzian,
    synthesize,
)
from .register import (  # noqa: F401
    LossModel,
    fidelity_vs_eta_sweep,
    published_model_fidelity,
    run_ghz_chain,
    run_ghz_chain_with_loss,
)
from .seeding import SeedSpec  # noqa: F401
from .spatial import (  # noqa: F401
    ConfocalPsf,
    occupancy_stats,
    sample_scene,
    spectral_arrangement_rate,
)
from .spectral import sample_ensemble, summarize_ensemble  # noqa: F401

__all__ = ["main", "entrypoint", "default_config", "SEED_ENV_VAR", "PROVENANCE_NOTE"]
