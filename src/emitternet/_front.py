"""Command line surface: reproducible runs over the analysis modules.

Each subcommand computes everything first and returns its results and
its files; :func:`main` then writes the files (plot-ready CSV tables) and
a ``<command>_summary.json`` document into the output directory. Summaries
embed the tool version, the SHA-256 hash of the fully resolved
configuration, and the seeds, so identical config and seed reproduce
byte-identical output except for the single ``generated_at`` timestamp
field.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 fit non-convergence. Errors are printed as single-line JSON on stderr.
A run that exits 1 or 2 leaves the output directory as it was, or absent
if it did not exist: the files are written into a staging directory there
and renamed into place only once every one is written. A run that exits 3
writes its summary (and, for ``fit-ple --synthetic``, the spectrum) before
the error.
"""
# This module holds every subcommand, the parser, main and the output stage.
# Each command imports numpy and the analysis modules it uses when it runs,
# so ``--version``, a usage error and ``report`` load no numpy, and a run
# loads only its own layers.
from __future__ import annotations

import contextlib
import errno
import os
import shutil
import sys
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from . import __version__
from .errors import ConfigError, DomainError, EmitterNetError, SummaryError, UsageError

# ``--version`` needs neither argparse, the config, the seeds nor json, and a
# usage error needs only argparse and json: each is imported where the code
# that uses it runs
if TYPE_CHECKING:
    import argparse

    import numpy as np

    from .config import RunConfig
    from .seeding import SeedSpec

SEED_ENV_VAR = "EMITTERNET_SEED"

# the line ``--version`` prints, by main itself or by the parser's action
VERSION = f"emitternet {__version__}"

PROVENANCE_NOTE = (
    "Overlap statistics are computed from constructed fixtures or parametric "
    "ensemble resampling; the measured per-emitter line list is not published "
    "and is represented only by its distribution parameters."
)


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # noqa: A003 - argparse API
            raise UsageError(message)

    # A flag that sets a config value stores it under that value's dotted
    # config path (its ``dest``); see _load_config.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="path to a JSON run configuration")
    common.add_argument("--out", dest="output_dir", type=Path, help="output directory")
    common.add_argument("--seed", type=int, help="base seed (overrides config and environment)")
    common.add_argument("--stream-index", type=int, help="seed stream index")

    parser = _Parser(
        prog="emitternet",
        description="Reproducible statistics of spin-active emitter ensembles: line "
        "lists, pair-overlap curves, collision thresholds, PLE fits, spatial and "
        "spectral chain rates, and the heralded GHZ protocol. Each command writes "
        "its results into the output directory. Exit codes: 0 success, 1 usage "
        "error, 2 data or validation error, 3 fit non-convergence.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common], help="sample an emitter ensemble to CSV")
    p.add_argument("--n", dest="sample.n_emitters", type=int, help="number of emitters")

    p = sub.add_parser("overlap", parents=[common], help="pair-overlap probability curve")
    p.add_argument("--input", type=Path, help="line-list CSV (default: sample from the model)")
    p.add_argument("--n", dest="sample.n_emitters", type=int, help="emitters to sample if no input")
    p.add_argument(
        "--window-mhz", dest="windows_mhz", type=float, action="append",
        help="overlap window (repeatable)",
    )
    p.add_argument("--bootstrap", dest="overlap.bootstrap_resamples", type=int,
                   help="bootstrap resamples for error bars")

    p = sub.add_parser("birthday", parents=[common], help="collision threshold analysis")
    p.add_argument("--q", dest="birthday.q", type=float, help="pairwise overlap probability")
    p.add_argument("--target", dest="birthday.target", type=float,
                   help="target collision probability")
    p.add_argument("--mc", dest="birthday.monte_carlo", action="store_true",
                   help="add a sequential Monte Carlo cross-check")
    p.add_argument("--trials", dest="birthday.trials", type=int, help="Monte Carlo trials")
    p.add_argument("--window-mhz", dest="birthday.window_mhz", type=float,
                   help="overlap window for the Monte Carlo run")

    p = sub.add_parser("fit-ple", parents=[common], help="multi-Lorentzian spectrum fit")
    p.add_argument("--input", type=Path, help="spectrum CSV (frequency_ghz,counts)")
    p.add_argument("--synthetic", action="store_true", help="fit a synthesized demo spectrum")
    p.add_argument("--k", dest="fit_ple.n_peaks", type=int, help="number of peaks")
    p.add_argument("--classify", dest="fit_ple.classify", action="store_true",
                   help="classify a 3-peak pair spectrum")

    p = sub.add_parser("protocol", parents=[common], help="heralded GHZ chain simulation")
    p.add_argument("--n", dest="protocol.n_qubits", type=int, help="number of spin qubits")
    p.add_argument("--eta", dest="protocol.eta", type=float, help="photon detection efficiency")
    p.add_argument("--sweep", action="store_true", help="also sweep fidelity over eta")

    p = sub.add_parser("spatial", parents=[common], help="confocal spot occupancy statistics")
    p.add_argument("--density", dest="spatial.density_per_um3", type=float,
                   help="emitter density per cubic micron")
    p.add_argument("--lateral-fwhm-um", dest="spatial.lateral_fwhm_um", type=float,
                   help="lateral PSF FWHM (required)")
    p.add_argument("--axial-fwhm-um", dest="spatial.axial_fwhm_um", type=float,
                   help="axial PSF FWHM")
    p.add_argument("--trials", dest="spatial.trials", type=int, help="Monte Carlo trials")
    p.add_argument("--chain-k", dest="spatial.chain_length", type=int,
                   help="spectral chain length to evaluate")
    p.add_argument("--chain-window-mhz", dest="spatial.chain_window_mhz", type=float,
                   help="chain overlap window")
    p.add_argument("--export-scene", action="store_true", help="also export a sampled 3D scene")

    sub.add_parser("report", parents=[common], help="aggregate summaries in the output directory")
    return parser


def _load_config(args) -> RunConfig:
    from .config import RunConfig

    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        cfg = RunConfig.from_json(text)
    else:
        cfg = RunConfig.from_mapping({})
    # Flags that set a config value are stored under its dotted path; an
    # unset flag (None, or False for a switch) overrides nothing.
    overrides: dict[str, Any] = {}
    for dest, value in vars(args).items():
        if value is None or value is False or ("." not in dest and dest not in cfg.data):
            continue
        *path, key = dest.split(".")
        section = overrides
        for name in path:
            section = section.setdefault(name, {})
        section[key] = str(value) if isinstance(value, Path) else value
    return cfg.with_overrides(overrides)


def _resolve_seed(cfg: RunConfig) -> SeedSpec:
    env = os.environ.get(SEED_ENV_VAR)
    if cfg.data["seed"] is not None or env is None:
        return cfg.seed_spec()
    from .seeding import _MAX_SEED

    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if not 0 <= seed < _MAX_SEED:
        raise ConfigError(f"{SEED_ENV_VAR} must be a 64-bit unsigned integer, got {env!r}")
    return cfg.seed_spec(fallback=seed)


def _out_dir(cfg: RunConfig) -> Path:
    return Path(cfg.data["output_dir"] or "emitternet_out")


def _json_rows(rows: list | tuple, indent: str) -> str | None:
    """A list of non-empty flat rows of numbers, bools and nulls (such as the
    ``[re, im]`` amplitude pairs), encoded by the C encoder in compact form
    and then indented; None for any other list.

    Without strings, dicts or nested lists, every ``,`` separates two cells
    or two rows and every ``[`` opens a row, so two replacements indent it.
    """
    if not all(map(isinstance, rows, repeat((list, tuple)))):
        return None
    import json

    compact = json.dumps(rows, separators=(",", ":"))
    if (
        '"' in compact
        or "{" in compact
        or "[]" in compact
        or compact.count("[") != len(rows) + 1
    ):
        return None
    row_indent = indent + "  "
    cell_indent = row_indent + "  "
    body = compact[2:-2].replace(",", "," + cell_indent)
    body = body.replace(
        "]," + cell_indent + "[", row_indent + "]," + row_indent + "[" + cell_indent
    )
    return "[" + row_indent + "[" + cell_indent + body + row_indent + "]" + indent + "]"


def _json_value(value: Any, indent: str, markers: set[int], out: list[str]) -> None:
    """Append to ``out`` the pieces of ``value`` as ``json.dumps(...,
    sort_keys=True, indent=2)`` writes it at the nesting level whose line
    break and indent is ``indent``.

    Only non-empty lists, tuples and dicts with str keys are walked here, in
    the stdlib's order, so that row lists deeper down reach :func:`_json_rows`.
    Every other value is the stdlib's own text: it writes no raw line break
    inside a string, so re-indenting its level-0 text places it here.
    """
    import json
    from json.encoder import encode_basestring_ascii

    walked = isinstance(value, (list, tuple)) or (
        isinstance(value, dict) and all(isinstance(key, str) for key in value)
    )
    if not (walked and value):
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", indent))
        return
    if id(value) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(value))
    inner = indent + "  "
    if isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            out.append(f"{',' if i else ''}{inner}{encode_basestring_ascii(key)}: ")
            _json_value(item, inner, markers, out)
        out.append(indent + "}")
    else:
        rows = _json_rows(value, indent)
        if rows is not None:
            out.append(rows)
        else:
            out.append("[")
            for i, item in enumerate(value):
                out.append(("," if i else "") + inner)
                _json_value(item, inner, markers, out)
            out.append(indent + "]")
    markers.remove(id(value))


def _json_pieces(doc: Any) -> list[str]:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    as a list of pieces to be written one after another.

    On CPython any ``indent`` sends ``json.dumps`` to its pure-Python
    encoder, one generator step per value. Lists of flat numeric rows go
    instead to the C encoder (:func:`_json_rows`); every other value is
    written by ``json.dumps`` itself (:func:`_json_value`).
    """
    out: list[str] = []
    _json_value(doc, "\n", set(), out)
    out.append("\n")
    return out


def _summary_pieces(
    command: str, cfg: RunConfig, seed: SeedSpec, results: dict[str, Any]
) -> list[str]:
    doc = {
        "tool": "emitternet",
        "version": __version__,
        "command": command,
        "config_hash": cfg.config_hash(),
        "config": cfg.data,
        "seed": {"seed": seed.seed, "stream_index": seed.stream_index},
        "generated_at": _utc_now(),
        "results": results,
    }
    return _json_pieces(doc)


def _csv_comments(cfg: RunConfig, seed: SeedSpec) -> list[str]:
    return [
        f"emitternet {__version__}",
        f"config_hash={cfg.config_hash()}",
        f"seed={seed.seed} stream_index={seed.stream_index}",
    ]


# A command writes nothing: it returns its results (None for ``report``), its files
# by name and its exit code. A file is its text as a list of pieces, or a
# ``(writer, *args)`` tuple that the output stage calls as
# ``writer(path, *args, comments)``, such as ``(write_table, header, columns)``.
_Outcome = tuple[dict[str, Any] | None, dict[str, Any], int]


def _scalar_results(results: dict, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """Scalar results, nested ones under dotted keys; lists are left to the JSON and CSV."""
    for key, value in results.items():
        if isinstance(value, dict):
            yield from _scalar_results(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float, str, bool)) or value is None:
            yield f"{prefix}{key}", value


def _load_summary(path: Path) -> dict[str, Any]:
    """A command summary, refused unless it holds every field ``report`` reads."""
    import json

    def refuse(constant: str):
        raise ValueError(f"{constant} is not a JSON number")

    try:
        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
    except (ValueError, RecursionError) as exc:  # invalid UTF-8 or JSON, NaN, or too deep
        raise SummaryError(f"{path} is not valid JSON: {exc}") from None
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("command"), str)
        and isinstance(doc.get("results"), dict)
        and isinstance(doc.get("seed"), dict)
        and "seed" in doc["seed"]
        and {"config_hash", "version"} <= doc.keys()
    ):
        raise SummaryError(f"{path} is not an emitternet command summary")
    return doc


def _cmd_report(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    out_dir = _out_dir(cfg)
    summaries = sorted(
        p for p in out_dir.glob("*_summary.json") if p.name != "report_summary.json"
    )
    if not summaries:
        raise SummaryError(f"no command summaries found in {out_dir}")
    sections = {}
    for path in summaries:
        doc = _load_summary(path)
        if doc["command"] in sections:
            raise SummaryError(
                f"{sections[doc['command']]['file']} and {path.name} both hold "
                f"a {doc['command']!r} summary; remove one of them"
            )
        sections[doc["command"]] = {
            "file": path.name,
            "config_hash": doc["config_hash"],
            "seed": doc["seed"],
            "version": doc["version"],
            "results": doc["results"],
        }
    report = {
        "tool": "emitternet",
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "generated_at": _utc_now(),
        "provenance_note": PROVENANCE_NOTE,
        "sections": sections,
    }
    lines = [
        f"emitternet {__version__} run report",
        f"config hash: {cfg.config_hash()}",
        "",
        f"note: {PROVENANCE_NOTE}",
        "",
    ]
    for command, info in sections.items():
        lines.append(f"[{command}] (from {info['file']}, seed {info['seed']['seed']})")
        lines.extend(f"  {key}: {value}" for key, value in _scalar_results(info["results"]))
        lines.append("")
    files = {"report.json": _json_pieces(report), "report.txt": ["\n".join(lines)]}
    return None, files, 0


def _cmd_sample(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    import numpy as np

    from .lineio import write_line_list, write_table
    from .overlap import histogram
    from .spectral import sample_ensemble, summarize_ensemble

    model = cfg.ensemble_model()
    n = cfg.data["sample"]["n_emitters"]
    emitters = sample_ensemble(model, n, seed)
    files: dict[str, Any] = {"line_list.csv": (write_line_list, emitters)}
    lines = np.concatenate([emitters.a1_ghz, emitters.a2_ghz])
    for name, values, width in (("zfs", emitters.zfs_ghz, 0.025), ("line", lines, 1.0)):
        hist = histogram(values, width)
        columns = [hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts]
        files[f"{name}_histogram.csv"] = (write_table, ["bin_low", "bin_high", "count"], columns)
    summary = summarize_ensemble(emitters) if n >= 2 else None
    results = {
        "n_emitters": n,
        "zfs_ghz": vars(summary.zfs_ghz) if summary else None,
        "center_ghz": vars(summary.center_ghz) if summary else None,
        "fwhm_mhz": vars(summary.fwhm_mhz) if summary else None,
        "detuning_min_ghz": summary.detuning_min_ghz if summary else None,
        "detuning_max_ghz": summary.detuning_max_ghz if summary else None,
        "lifetime_limited_linewidth_mhz": model.gamma_mhz,
        "line_list": "line_list.csv",
        "zfs_histogram_csv": "zfs_histogram.csv",
        "line_histogram_csv": "line_histogram.csv",
        "provenance_note": PROVENANCE_NOTE,
    }
    return results, files, 0


def _cmd_overlap(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    from .lineio import read_line_list, write_table
    from .overlap import fit_slope_through_origin, overlap_curve
    from .spectral import sample_ensemble

    model = cfg.ensemble_model()
    combos = cfg.combos()
    if args.input is not None:
        emitters = read_line_list(args.input)
        source = str(args.input)
    else:
        emitters = sample_ensemble(model, cfg.data["sample"]["n_emitters"], seed)
        source = "sampled"
    gamma = model.gamma_mhz
    windows = cfg.data["windows_mhz"]
    if windows is None:
        windows = [gamma * f for f in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
    resamples = cfg.data["overlap"]["bootstrap_resamples"]
    curve = overlap_curve(emitters, windows, combos, bootstrap_resamples=resamples, seed=seed)
    slope = fit_slope_through_origin(curve, gamma)
    files = {
        "overlap_curve.csv": (
            write_table,
            ["window_mhz", "probability", "std_error"],
            [curve.windows_mhz, curve.probabilities, curve.std_errors],
        )
    }
    results = {
        "source": source,
        "n_emitters": curve.n_emitters,
        "n_pairs": curve.n_pairs,
        "combos": sorted(c.label for c in combos),
        "windows_mhz": list(curve.windows_mhz),
        "probabilities": list(curve.probabilities),
        "std_errors": list(curve.std_errors),
        "gamma_mhz": gamma,
        "slope_per_gamma": slope,
        "bootstrap_resamples": resamples,
        "curve_csv": "overlap_curve.csv",
        "provenance_note": PROVENANCE_NOTE,
    }
    return results, files, 0


def _cmd_birthday(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    from .lineio import write_table
    from .overlap import birthday_threshold, monte_carlo_threshold

    section = cfg.data["birthday"]
    target = section["target"]
    results: dict[str, Any] = {"target_probability": target}
    files: dict[str, Any] = {}
    if section["q"] is not None:
        threshold = birthday_threshold(section["q"], target)
        results.update(
            {
                "n_star": threshold.n_star,
                "pairwise_q": threshold.pairwise_q,
                "curve": [[n, p] for n, p in threshold.curve],
                "curve_csv": "birthday_curve.csv",
            }
        )
        header = ["n_emitters", "collision_probability"]
        files["birthday_curve.csv"] = (write_table, header, list(zip(*threshold.curve)))
    elif not section["monte_carlo"]:
        raise ConfigError("birthday requires --q (or birthday.q) unless --mc is given")
    if section["monte_carlo"]:
        model = cfg.ensemble_model()
        window = model.gamma_mhz if section["window_mhz"] is None else section["window_mhz"]
        mc = monte_carlo_threshold(model, window, target, section["trials"], seed, cfg.combos())
        results["monte_carlo"] = {
            "n_star": mc.n_star,
            "pairwise_q": mc.pairwise_q,
            "window_mhz": window,
            "trials": mc.trials,
            "median_stop": mc.median_stop,
            "quantiles": mc.quantiles,
            "ci95_at_n_star": list(mc.ci95_at_n_star) if mc.ci95_at_n_star else None,
            "n_censored": mc.n_censored,
            "curve_csv": "birthday_mc_curve.csv",
        }
        header = ["n_emitters", "empirical_collision_probability"]
        files["birthday_mc_curve.csv"] = (write_table, header, list(zip(*mc.curve)))
    return results, files, 0


def _cmd_fit_ple(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    import math

    import numpy as np

    from .lineio import read_spectrum, write_spectrum
    from .ple import (
        LorentzianPeak,
        _check_classify_inputs,
        _check_fit_size,
        classify_pair_spectrum,
        fit_multi_lorentzian,
        synthesize,
    )

    section = cfg.data["fit_ple"]
    k = section["n_peaks"]
    if section["classify"]:
        # refused before the spectrum is read or synthesized and fitted
        _check_classify_inputs(k, section["n_sigma"])
    files: dict[str, Any] = {}
    if args.input is not None:
        spectrum = read_spectrum(args.input)
        source = str(args.input)
    elif args.synthetic:
        model = cfg.ensemble_model()
        zfs = cfg.data["ensemble"]["zfs_mean_ghz"]
        n_points = max(60 * k, 240)
        # a memory guard: refuse an oversized fit before its peaks and grid are built
        _check_fit_size(n_points, k)
        # the spectrum squares detunings across the grid, so its width squared must be
        # finite and its step squared a normal double
        span = (k + 1) * zfs
        if not math.isfinite((2 * span) * (2 * span)):
            raise DomainError(
                f"synthetic spectrum grid of {k} peaks {zfs} GHz apart is too wide: its "
                "squared width is beyond the range of a double"
            )
        step = 2 * span / (n_points - 1)
        if step * step < sys.float_info.min:
            raise DomainError(
                f"synthetic spectrum grid of {k} peaks {zfs} GHz apart is too fine: its "
                "squared step is below the range of a double"
            )
        peaks = [
            LorentzianPeak(
                center_ghz=(i - (k - 1) / 2.0) * zfs,
                fwhm_mhz=model.fwhm_mean_mhz,
                amplitude=100.0,
            )
            for i in range(k)
        ]
        grid = np.linspace(-span, span, n_points)
        spectrum = synthesize(peaks, background=5.0, grid_ghz=grid, shot_noise=True, seed=seed)
        files["ple_spectrum.csv"] = (write_spectrum, spectrum)
        source = "synthetic"
    else:
        raise ConfigError("fit-ple requires --input or --synthetic")

    fit = fit_multi_lorentzian(spectrum, k)
    results: dict[str, Any] = {
        "source": source,
        "n_peaks": k,
        "background": fit.background,
        "residual_rms": fit.residual_rms,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "peaks": [
            {"center_ghz": p.center_ghz, "fwhm_mhz": p.fwhm_mhz, "amplitude": p.amplitude}
            for p in fit.peaks
        ],
    }
    if section["classify"]:
        # the ZFS prior is the ensemble's ZFS law
        model = cfg.ensemble_model()
        assignment = classify_pair_spectrum(
            fit,
            prior_mean_ghz=model.zfs_mean_ghz,
            prior_sigma_ghz=model.zfs_sigma_ghz,
            n_sigma=section["n_sigma"],
        )
        results["pair_assignment"] = {
            "emitter1_peaks": list(assignment.emitter1),
            "emitter2_peaks": list(assignment.emitter2),
            "shared_peak": assignment.shared_peak,
            "zfs1_ghz": assignment.zfs1_ghz,
            "zfs2_ghz": assignment.zfs2_ghz,
        }
    return results, files, 0 if fit.converged else 3


def _complex_pairs(amplitudes: np.ndarray) -> list[list[float]]:
    """``[re, im]`` of each amplitude, as Python floats."""
    import numpy as np

    return np.column_stack((amplitudes.real, amplitudes.imag)).tolist()


def _cmd_protocol(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    from .register import (
        LossModel,
        fidelity_vs_eta_sweep,
        published_model_fidelity,
        run_ghz_chain,
        run_ghz_chain_with_loss,
    )

    section = cfg.data["protocol"]
    n = section["n_qubits"]
    eta = section["eta"]
    chain = run_ghz_chain(n)
    lossy = run_ghz_chain_with_loss(n, LossModel(eta))
    results: dict[str, Any] = {
        "n_qubits": n,
        "eta": eta,
        "success_probability": chain.success_probability,
        "herald_probabilities": list(chain.herald_probabilities),
        "amplitudes": _complex_pairs(chain.state.amplitudes),
        "fidelity_published": published_model_fidelity(n, eta),
        "fidelity_enumeration": lossy.fidelity,
        "fidelity_model_note": (
            "fidelity_published uses the published p = 1/(3 - 2*eta) per herald; "
            "fidelity_enumeration tracks every loss branch exactly. The two "
            "agree at eta = 1 and differ below it; the gap is reported, not "
            "reconciled."
        ),
        "branches": [
            {"weight": b.weight, "amplitudes": _complex_pairs(b.state.amplitudes)}
            for b in lossy.mixture.branches
        ],
    }
    files: dict[str, Any] = {}
    if args.sweep:
        from .lineio import write_table

        header = ["eta", "fidelity_published", "fidelity_enumeration", "discrepancy"]
        sweep = fidelity_vs_eta_sweep(n, section["eta_sweep"])
        columns = [[getattr(r, key) for r in sweep] for key in header]
        files["fidelity_sweep.csv"] = (write_table, header, columns)
        results["sweep_csv"] = "fidelity_sweep.csv"
        results["sweep"] = [dict(zip(header, row)) for row in zip(*columns)]
    return results, files, 0


def _cmd_spatial(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    from .spatial import ConfocalPsf, occupancy_stats, sample_scene, spectral_arrangement_rate

    section = cfg.data["spatial"]
    if section["lateral_fwhm_um"] is None:
        raise ConfigError(
            "spatial.lateral_fwhm_um is required (set --lateral-fwhm-um); "
            "it is a configured assumption with no measured default"
        )
    psf = ConfocalPsf(
        lateral_fwhm_um=section["lateral_fwhm_um"], axial_fwhm_um=section["axial_fwhm_um"]
    )
    density = section["density_per_um3"]
    stats = occupancy_stats(density, psf, section["trials"], seed)
    results: dict[str, Any] = {
        "density_per_um3": density,
        "lateral_fwhm_um": psf.lateral_fwhm_um,
        "axial_fwhm_um": psf.axial_fwhm_um,
        "spot_mean_occupancy": stats.mean_per_spot,
        "spot_mean_occupancy_poisson": stats.occupancy_mean_poisson,
        "occupancy_distribution": list(stats.distribution),
        "multi_emitter_fraction": stats.multi_emitter_fraction,
        "multi_emitter_fraction_poisson": stats.multi_emitter_fraction_poisson,
        "trials": stats.trials,
    }
    files: dict[str, Any] = {}
    if args.export_scene:
        from .lineio import write_table

        scene = sample_scene(density, section["box_um"], seed)
        files["scene.csv"] = (write_table, ["x_um", "y_um", "z_um"], scene.positions.T)
        results["scene"] = {
            "box_um": list(scene.box_um),
            "count": scene.count,
            "csv": "scene.csv",
        }
    if section["chain_length"] is not None:
        model = cfg.ensemble_model()
        k, window = section["chain_length"], section["chain_window_mhz"]
        window = model.gamma_mhz if window is None else window
        rate = spectral_arrangement_rate(model, k, window, max(section["trials"], 10_000), seed)
        results["spectral_chain"] = {"k": k, "window_mhz": window, "probability": rate}
    return results, files, 0


_COMMANDS = {
    "sample": _cmd_sample,
    "overlap": _cmd_overlap,
    "birthday": _cmd_birthday,
    "fit-ple": _cmd_fit_ple,
    "protocol": _cmd_protocol,
    "spatial": _cmd_spatial,
    "report": _cmd_report,
}


def _print_error(exc: BaseException, code: int) -> None:
    """The error, its type and the exit code as one line of JSON on stderr."""
    import json

    error = {"error": str(exc), "type": type(exc).__name__, "exit_code": code}
    print(json.dumps(error), file=sys.stderr)


def _write_files(out_dir: Path, files: dict[str, Any], comments: list[str]) -> None:
    """Write ``files`` into ``out_dir``, none of them unless every one is written.

    ``out_dir`` and any missing parents are made here. Each file (with any
    sidecar its writer adds) is written under its own name in a staging
    directory inside ``out_dir``; all are renamed into place only after
    every write has succeeded, and the staging directory is removed either
    way. If a write fails, the directories made here are removed again.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not os.path.lexists(d)]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_staged(out_dir, files, comments)
    except BaseException:
        for directory in made:  # deepest first; a directory still in use stays
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _write_staged(out_dir: Path, files: dict[str, Any], comments: list[str]) -> None:
    """The writes of :func:`_write_files` into the existing ``out_dir``."""
    import tempfile

    staging = Path(tempfile.mkdtemp(prefix=".emitternet-", dir=out_dir))
    try:
        for name, data in files.items():
            path = staging / name
            if isinstance(data, list):
                with open(path, "w", encoding="utf-8") as out:
                    out.writelines(data)
            else:
                writer, *args = data
                writer(path, *args, comments)
        names = sorted(os.listdir(staging))
        # a rename onto a directory fails, so refuse before the first rename
        for target in (out_dir / name for name in names):
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for name in names:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:
        # the parser's version action without the parser: the same line, on
        # stderr when there is no stdout, and exit 0 even if the write fails
        try:
            (sys.stdout or sys.stderr).write(VERSION + "\n")
        except (AttributeError, OSError):
            pass
        return 0
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        _print_error(exc, 1)
        return 1
    try:
        cfg = _load_config(args)
        seed = _resolve_seed(cfg)
        results, files, code = _COMMANDS[args.command](cfg, seed, args)
        # The one output stage: a command that raised has written nothing.
        if results is not None:
            summary = f"{args.command.replace('-', '_')}_summary.json"
            files[summary] = _summary_pieces(args.command, cfg, seed, results)
        _write_files(_out_dir(cfg), files, _csv_comments(cfg, seed))
    except (EmitterNetError, OSError) as exc:
        _print_error(exc, 2)
        return 2
    if code == 3:
        _print_error(EmitterNetError("fit did not converge within the iteration cap"), 3)
    return code


def entrypoint() -> None:
    sys.exit(main())
