"""The computing subcommands: ``sample``, ``overlap``, ``birthday``,
``fit-ple``, ``protocol`` and ``spatial``.

Each returns its results and its files and writes nothing; the parser,
``main``, the summary writer, the output stage and ``report`` are in
:mod:`emitternet._front`, which imports this module only to run one of
these commands. Each command imports the analysis modules it uses when it
runs, so a run loads only its own.
"""
from __future__ import annotations

import math
import sys
from typing import Any

import numpy as np

from ._front import PROVENANCE_NOTE, _Outcome
from .config import RunConfig
from .errors import ConfigError, DomainError
from .seeding import SeedSpec


def _cmd_sample(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
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
}
