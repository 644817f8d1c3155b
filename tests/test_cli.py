import errno
import functools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from emitternet import (
    LorentzianPeak,
    LossModel,
    PleSpectrum,
    fit_multi_lorentzian,
    run_ghz_chain,
    run_ghz_chain_with_loss,
    serialize_line_list,
    synthesize,
)
from emitternet import __version__
from emitternet._front import _COMMANDS, _build_parser, _complex_pairs
from emitternet.cli import main
from emitternet.lineio import write_spectrum

TIMESTAMP_LINE = re.compile(r'^\s*"generated_at".*$', re.MULTILINE)


def _read_summary(out_dir, command):
    return json.loads((out_dir / f"{command}_summary.json").read_text())


def _stripped_bytes(path):
    return TIMESTAMP_LINE.sub("", path.read_text())


class TestBirthdayCommand:
    def test_measured_rate(self, tmp_path, capsys):
        code = main(
            ["birthday", "--q", "0.0098", "--target", "0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = _read_summary(tmp_path, "birthday")
        assert doc["results"]["n_star"] == 13
        assert doc["results"]["pairwise_q"] == 0.0098
        assert "config_hash" in doc and len(doc["config_hash"]) == 64
        curve = (tmp_path / "birthday_curve.csv").read_text()
        assert "config_hash=" in curve
        assert curve.splitlines()[3].startswith("n_emitters")

    def test_monte_carlo_section(self, tmp_path):
        code = main(
            [
                "birthday",
                "--q", "0.0098",
                "--mc",
                "--trials", "1000",
                "--window-mhz", "29.0",
                "--seed", "7",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        doc = _read_summary(tmp_path, "birthday")
        mc = doc["results"]["monte_carlo"]
        assert mc["trials"] == 1000
        assert 0.0 < mc["pairwise_q"] < 0.1
        assert (tmp_path / "birthday_mc_curve.csv").exists()

    def test_all_censored_monte_carlo_writes_null_quartiles(self, tmp_path):
        # no two lines fall within 5e-324 MHz, so every trial is censored
        argv = ["birthday", "--q", "0.01", "--mc", "--trials", "1000",
                "--window-mhz", "5e-324", "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "birthday_summary.json").read_text()
        mc = json.loads(text, parse_constant=refuse)["results"]["monte_carlo"]
        assert mc["n_censored"] == 1000
        assert mc["median_stop"] is None and mc["n_star"] is None
        assert mc["quantiles"] == {"q25": None, "q50": None, "q75": None}

    def test_monte_carlo_refuses_open_combos(self, tmp_path, capsys):
        # The MC upper triangle compared only the earlier emitter's A1 with
        # the later one's A2 for this set, and exited 0; overlap exits 2.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"combos": ["a1a2"]}))
        code = main(["birthday", "--mc", "--trials", "1000", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError"
        assert "a2a1" in err["error"]

    def test_missing_q_is_config_error(self, tmp_path, capsys):
        code = main(["birthday", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_code"] == 2

    def test_invalid_q_is_data_error(self, tmp_path, capsys):
        code = main(["birthday", "--q", "0.0", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError"

    def test_monte_carlo_trials_beyond_limit_exit_2(self, tmp_path, capsys):
        # the pairwise-rate sample alone would take 59.6 GiB
        code = main(["birthday", "--mc", "--trials", "2000000000", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "limit" in err["error"]
        assert list(tmp_path.iterdir()) == []

    def test_threshold_beyond_curve_limit_exit_2(self, tmp_path, capsys):
        # n_star ~ 3.7e7: the curve would hold one point per emitter
        code = main(["birthday", "--q", "1e-15", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError"
        assert "100000" in err["error"]
        assert not (tmp_path / "birthday_curve.csv").exists()


class TestProtocolCommand:
    def test_lossless_four_qubit_chain(self, tmp_path):
        code = main(["protocol", "--n", "4", "--eta", "1.0", "--out", str(tmp_path)])
        assert code == 0
        results = _read_summary(tmp_path, "protocol")["results"]
        assert results["fidelity_published"] == pytest.approx(1.0, abs=1e-12)
        assert results["fidelity_enumeration"] == pytest.approx(1.0, abs=1e-12)
        amps = results["amplitudes"]
        assert amps[0][0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert amps[-1][0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert all(abs(re_) < 1e-12 and abs(im) < 1e-12 for re_, im in amps[1:-1])
        assert results["success_probability"] == pytest.approx(0.125, abs=1e-12)

    def test_lossy_run_reports_both_models(self, tmp_path):
        code = main(["protocol", "--n", "2", "--eta", "0.85", "--sweep", "--out", str(tmp_path)])
        assert code == 0
        results = _read_summary(tmp_path, "protocol")["results"]
        assert results["fidelity_published"] == pytest.approx(1 / 1.3, rel=1e-9)
        assert results["fidelity_enumeration"] == pytest.approx(1 / 1.15, rel=1e-9)
        assert "fidelity_model_note" in results
        sweep = results["sweep"]
        assert sweep[-1]["eta"] == 1.0
        assert sweep[-1]["discrepancy"] == pytest.approx(0.0, abs=1e-12)
        assert (tmp_path / "fidelity_sweep.csv").exists()

    def test_amplitude_pairs_keep_the_per_scalar_text(self):
        amps = np.array([complex(-0.0, 0.0), complex(0.5, -0.0), 1 / 3 - 2j, complex(-1e-300, 7)])
        text = json.dumps(_complex_pairs(amps))
        assert text == json.dumps([[float(a.real), float(a.imag)] for a in amps])
        assert text.count("-0.0") == 2

    def test_summary_text_is_unchanged(self, tmp_path):
        # the amplitude lists as the summary wrote them when it converted one
        # numpy scalar at a time
        assert main(["protocol", "--n", "4", "--eta", "0.85", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "protocol_summary.json").read_text()
        doc = json.loads(text)
        results = doc["results"]

        def per_scalar(amps):
            return [[float(a.real), float(a.imag)] for a in amps]

        results["amplitudes"] = per_scalar(run_ghz_chain(4).state.amplitudes)
        lossy = run_ghz_chain_with_loss(4, LossModel(0.85))
        assert len(results["branches"]) == len(lossy.mixture.branches) > 1
        for entry, branch in zip(results["branches"], lossy.mixture.branches):
            entry["amplitudes"] = per_scalar(branch.state.amplitudes)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text

    def test_small_efficiency_runs(self, tmp_path):
        code = main(["protocol", "--n", "4", "--eta", "1e-300", "--out", str(tmp_path)])
        assert code == 0
        results = _read_summary(tmp_path, "protocol")["results"]
        assert results["fidelity_enumeration"] == pytest.approx(0.25, abs=1e-12)


class TestOverlapCommand:
    def test_fixture_input(self, tmp_path, fixture_50_12):
        csv_path = tmp_path / "lines.csv"
        csv_path.write_text(serialize_line_list(fixture_50_12))
        code = main(
            [
                "overlap",
                "--input", str(csv_path),
                "--window-mhz", "29",
                "--seed", "1",
                "--bootstrap", "500",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        results = _read_summary(tmp_path, "overlap")["results"]
        assert results["n_pairs"] == 1225
        assert results["probabilities"][0] == pytest.approx(12 / 1225, abs=1e-12)
        assert round(results["probabilities"][0], 4) == 0.0098
        assert results["provenance_note"]
        assert (tmp_path / "overlap_curve.csv").exists()

    def test_sampled_ensemble(self, tmp_path):
        code = main(
            ["overlap", "--n", "40", "--seed", "5", "--bootstrap", "200", "--out", str(tmp_path)]
        )
        assert code == 0
        results = _read_summary(tmp_path, "overlap")["results"]
        assert results["n_emitters"] == 40
        assert results["source"] == "sampled"
        assert len(results["probabilities"]) == len(results["windows_mhz"])

    @pytest.mark.parametrize("combos, missing", [(["a1a2"], "a2a1"), (["a1a1", "a2a1"], "a1a2")])
    def test_combos_not_closed_under_swap(self, tmp_path, capsys, combos, missing):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"combos": combos}))
        code = main(["overlap", "--n", "20", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError"
        assert missing in err["error"]

    def test_empty_combos_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"combos": []}))
        code = main(["overlap", "--n", "20", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["type"] == "ConfigError"

    def test_invalid_line_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("emitter_id,f_a1_ghz,f_a2_ghz,fwhm_a1_mhz,fwhm_a2_mhz\nx,2.0,1.0,300,300\n")
        code = main(["overlap", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "LineListError"
        assert "x" in err["error"]

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["overlap", "--input", "two.csv"], None),
            (["overlap"], {"ensemble": {"zfs_mean_ghz": 1e307, "zfs_sigma_ghz": 0}}),
            (
                ["birthday", "--q", "0.01", "--mc", "--trials", "1000"],
                {"ensemble": {"center": {"kind": "normal", "sigma_ghz": 1e307}}},
            ),
            (
                ["spatial", "--lateral-fwhm-um", "0.5", "--chain-k", "3", "--trials", "10000"],
                {"ensemble": {"center": {"kind": "normal", "sigma_ghz": 1e307}}},
            ),
        ],
        ids=["input-list", "zfs", "birthday-mc", "spatial-chain"],
    )
    def test_gaps_beyond_double_exit_0(self, tmp_path, argv, config):
        # a gap that overflows when scaled to MHz is inf; under pytest's
        # error::RuntimeWarning filter its overflow warning ended the run
        header = "emitter_id,f_a1_ghz,f_a2_ghz,fwhm_a1_mhz,fwhm_a2_mhz"
        (tmp_path / "two.csv").write_text(f"{header}\ne1,-1e308,1e308,,\ne2,0,1e-300,,\n")
        argv = [tmp_path / a if a == "two.csv" else a for a in argv]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", tmp_path / "cfg.json"]
        assert main([*map(str, argv), "--seed", "1", "--out", str(tmp_path / "out")]) == 0
        if argv[0] == "overlap" and config is None:
            results = _read_summary(tmp_path / "out", "overlap")["results"]
            assert set(results["probabilities"]) == {0}

    def test_window_whose_squared_sum_underflows_exit_2(self, tmp_path, capsys):
        code = main(["overlap", "--n", "20", "--window-mhz", "1e-300", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError"
        assert err["error"] == "window sums in units of gamma underflow to 0; slope is undefined"

    def test_bootstrap_beyond_limit_exit_2(self, tmp_path, capsys):
        # 10 default windows x 1e9 resamples: a 74.5 GiB value array
        code = main(["overlap", "--n", "50", "--bootstrap", "1000000000", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "bootstrap limit" in err["error"]
        assert not (tmp_path / "overlap_summary.json").exists()


class TestSampleCommand:
    def test_writes_parseable_line_list(self, tmp_path):
        code = main(["sample", "--n", "50", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        from emitternet import read_line_list

        records = read_line_list(tmp_path / "line_list.csv")
        assert len(records) == 50
        results = _read_summary(tmp_path, "sample")["results"]
        assert results["lifetime_limited_linewidth_mhz"] == pytest.approx(28.937, abs=1e-3)
        zfs_hist = (tmp_path / "zfs_histogram.csv").read_text().splitlines()
        data_rows = [r for r in zfs_hist if r and not r.startswith("#")][1:]
        assert sum(int(r.split(",")[2]) for r in data_rows) == 50
        assert (tmp_path / "line_histogram.csv").exists()

    def test_determinism_criterion(self, tmp_path):
        argv = ["sample", "--n", "30", "--seed", "9", "--out", str(tmp_path)]
        assert main(argv) == 0
        first_summary = _stripped_bytes(tmp_path / "sample_summary.json")
        first_lines = (tmp_path / "line_list.csv").read_text()
        assert main(argv) == 0
        assert _stripped_bytes(tmp_path / "sample_summary.json") == first_summary
        assert (tmp_path / "line_list.csv").read_text() == first_lines

    def test_histogram_beyond_bin_limit_exit_2(self, tmp_path, capsys):
        # lines spread over +-1e9 GHz would need ~2e9 one-GHz bins
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"center": {"half_width_ghz": 1e9}}}))
        code = main(["sample", "--config", str(cfg), "--n", "50", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "bins" in err["error"]
        assert not (tmp_path / "sample_summary.json").exists()

    def test_ensemble_beyond_limit_exit_2(self, tmp_path, capsys):
        # the line positions alone would take 14.9 GiB each
        code = main(["sample", "--n", "2000000000", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "limit" in err["error"]
        assert list(tmp_path.iterdir()) == []

    def test_refused_histogram_leaves_no_files(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"center": {"half_width_ghz": 1e9}}}))
        out = tmp_path / "out"
        code = main(["sample", "--config", str(cfg), "--n", "50", "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["type"] == "DomainError"
        # the output directory did not exist, and is not made
        assert not out.exists()


class TestFitPleCommand:
    def test_synthetic_two_peak_fit(self, tmp_path):
        code = main(
            ["fit-ple", "--synthetic", "--k", "2", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        # the sidecar sits beside the spectrum, and no staging file is left
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fit_ple_summary.json", "ple_spectrum.csv", "ple_spectrum.csv.meta.json"
        ]
        results = _read_summary(tmp_path, "fit_ple")["results"]
        assert results["converged"] is True
        assert len(results["peaks"]) == 2
        gap = results["peaks"][1]["center_ghz"] - results["peaks"][0]["center_ghz"]
        assert gap == pytest.approx(1.027, abs=0.02)

    def test_classification(self, tmp_path):
        code = main(
            [
                "fit-ple",
                "--synthetic",
                "--k", "3",
                "--classify",
                "--seed", "4",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        results = _read_summary(tmp_path, "fit_ple")["results"]
        assignment = results["pair_assignment"]
        assert assignment["shared_peak"] == 1
        assert assignment["zfs1_ghz"] == pytest.approx(1.027, abs=0.03)

    def test_classification_prior_follows_the_ensemble_zfs(self, tmp_path):
        # peaks drawn 1.5 GHz apart are judged against the same 1.5 GHz law
        (tmp_path / "cfg.json").write_text(json.dumps({"ensemble": {"zfs_mean_ghz": 1.5}}))
        code = main(
            ["fit-ple", "--synthetic", "--k", "3", "--classify", "--seed", "1",
             "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        summary = _read_summary(tmp_path / "out", "fit_ple")
        assert summary["results"]["pair_assignment"]["zfs1_ghz"] == pytest.approx(1.5, abs=0.03)
        assert set(summary["config"]["fit_ple"]) == {"n_peaks", "classify", "n_sigma"}

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["--k", "3"], {"fit_ple": {"n_sigma": -1}}, "n_sigma must be positive, got -1.0"),
            (["--k", "2"], None, "pair classification requires exactly 3 peaks, got 2"),
        ],
        ids=["n-sigma", "two-peaks"],
    )
    def test_classify_refused_before_the_spectrum(
        self, tmp_path, capsys, monkeypatch, argv, config, message
    ):
        def called(*args, **kwargs):
            raise AssertionError("a refused --classify run built a spectrum or a fit")

        monkeypatch.setattr("emitternet.ple.synthesize", called)
        monkeypatch.setattr("emitternet.ple.fit_multi_lorentzian", called)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "out"
        code = main(["fit-ple", "--synthetic", "--classify", *argv, "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["type"], err["error"]) == ("DomainError", message)
        assert not out.exists()

    def test_fit_beyond_jacobian_limit_exit_2(self, tmp_path, capsys):
        # 18000 points x 901 parameters; k = 2000 would need a 5.4 GiB Jacobian
        code = main(["fit-ple", "--synthetic", "--k", "300", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "Jacobian" in err["error"]
        assert not (tmp_path / "fit_ple_summary.json").exists()
        # refused before the synthetic spectrum is written
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_without_dwell_time_exit_2(self, tmp_path, capsys):
        spectrum = tmp_path / "spec.csv"
        spectrum.write_text("frequency_ghz,counts\n0.0,1.0\n0.1,2.0\n0.2,1.0\n")
        (tmp_path / "spec.csv.meta.json").write_text("{}")
        code = main(["fit-ple", "--input", str(spectrum), "--k", "1", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "LineListError"
        assert "dwell_time_s" in err["error"]

    def test_undetectable_peaks_exit_2(self, tmp_path, capsys):
        import numpy as np

        from emitternet import LorentzianPeak, synthesize
        from emitternet.lineio import write_spectrum

        peaks = [LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=100.0)]
        write_spectrum(tmp_path / "one.csv", synthesize(peaks, 4.0, np.linspace(-2, 2, 501)))
        code = main(
            ["fit-ple", "--input", str(tmp_path / "one.csv"), "--k", "4", "--out", str(tmp_path)]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "PeakDetectionError"

    @pytest.mark.parametrize(
        "spectrum, message",
        [
            # counts near 1e200 overflow the fit's arithmetic
            (
                synthesize([LorentzianPeak(0.0, 300.0, 1e200)], 0.0, np.linspace(-2, 2, 200)),
                "not finite",
            ),
            # 10 points 1e-12 GHz apart leave no room for a FWHM above 1e-9 GHz
            (
                PleSpectrum(np.arange(10) * 1e-12, np.array([1.0, 2, 3, 4, 9, 4, 3, 2, 1, 1])),
                "FWHM bounds",
            ),
            # a span within a double, but the center bounds, one span beyond
            # each end, overflowed in a RuntimeWarning
            (
                PleSpectrum(np.linspace(-1e308, 5e307, 12), np.arange(12) % 3 + 1.0),
                "not finite",
            ),
        ],
        ids=["overflow", "too-narrow", "bounds-beyond-double"],
    )
    def test_unfittable_spectrum_exit_2(self, tmp_path, capsys, spectrum, message):
        write_spectrum(tmp_path / "spec.csv", spectrum)
        out = tmp_path / "out"
        code = main(["fit-ple", "--input", str(tmp_path / "spec.csv"), "--k", "1", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and message in err["error"]
        assert not out.exists()

    def test_spectrum_spanning_beyond_a_double_exit_2(self, tmp_path, capsys):
        # np.diff overflowed in a RuntimeWarning (exit 1)
        (tmp_path / "spec.csv").write_text("frequency_ghz,counts\n-1e308,1\n1e308,2\n")
        out = tmp_path / "out"
        code = main(["fit-ple", "--input", str(tmp_path / "spec.csv"), "--k", "1", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "span beyond the range" in err["error"]
        assert not out.exists()

    def test_nonconvergence_exit_3(self, tmp_path, capsys, monkeypatch):
        # the command takes the fit from its module when it runs
        monkeypatch.setattr(
            "emitternet.ple.fit_multi_lorentzian",
            functools.partial(fit_multi_lorentzian, max_iterations=1),
        )
        code = main(["fit-ple", "--synthetic", "--k", "2", "--seed", "3", "--out", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_code"] == 3
        results = _read_summary(tmp_path, "fit_ple")["results"]
        assert results["converged"] is False
        # exit 3 still writes the summary and the synthetic spectrum
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["fit_ple_summary.json", "ple_spectrum.csv", "ple_spectrum.csv.meta.json"]
        config_hash = _read_summary(tmp_path, "fit_ple")["config_hash"]
        assert f"# config_hash={config_hash}\n" in (tmp_path / "ple_spectrum.csv").read_text()

    def test_max_iterations_flag_removed(self, tmp_path, capsys):
        argv = ["fit-ple", "--synthetic", "--max-iterations", "1", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "--max-iterations" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_requires_input_or_synthetic(self, tmp_path, capsys):
        code = main(["fit-ple", "--k", "2", "--out", str(tmp_path)])
        assert code == 2

    def test_input_file_round_trip(self, tmp_path):
        import numpy as np

        from emitternet import LorentzianPeak, synthesize
        from emitternet.lineio import write_spectrum

        peaks = [LorentzianPeak(center_ghz=0.1, fwhm_mhz=280.0, amplitude=90.0)]
        spectrum = synthesize(peaks, 4.0, np.linspace(-2, 2, 501))
        write_spectrum(tmp_path / "spec.csv", spectrum)
        code = main(
            [
                "fit-ple",
                "--input", str(tmp_path / "spec.csv"),
                "--k", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        results = _read_summary(tmp_path, "fit_ple")["results"]
        assert results["peaks"][0]["center_ghz"] == pytest.approx(0.1, abs=1e-6)


class TestSpatialCommand:
    def test_requires_lateral_width(self, tmp_path, capsys):
        code = main(["spatial", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "lateral" in err["error"]

    def test_occupancy_results(self, tmp_path):
        code = main(
            [
                "spatial",
                "--lateral-fwhm-um", "0.5",
                "--trials", "20000",
                "--seed", "2",
                "--export-scene",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        results = _read_summary(tmp_path, "spatial")["results"]
        assert results["spot_mean_occupancy_poisson"] == pytest.approx(0.068670, abs=1e-6)
        assert results["multi_emitter_fraction_poisson"] == pytest.approx(0.0022526, abs=1e-7)
        assert (tmp_path / "scene.csv").exists()
        assert results["scene"]["count"] > 1000

    def test_chain_section(self, tmp_path):
        code = main(
            [
                "spatial",
                "--lateral-fwhm-um", "0.5",
                "--trials", "10000",
                "--chain-k", "2",
                "--chain-window-mhz", "2000",
                "--seed", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        chain = _read_summary(tmp_path, "spatial")["results"]["spectral_chain"]
        assert chain["k"] == 2
        assert 0.0 <= chain["probability"] <= 1.0


    @pytest.mark.parametrize(
        "args",
        [
            ["--density", "1e4", "--lateral-fwhm-um", "2"],
            ["--density", "3000", "--lateral-fwhm-um", "0.5", "--trials", "1000", "--export-scene"],
        ],
    )
    def test_draw_beyond_point_limit_exit_2(self, tmp_path, capsys, args):
        code = main(["spatial", *args, "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "limit" in err["error"]
        assert not (tmp_path / "spatial_summary.json").exists()

    @pytest.mark.parametrize("window", ["-5", "0"])
    def test_non_positive_chain_window_exit_2(self, tmp_path, capsys, window):
        code = main(
            [
                "spatial",
                "--lateral-fwhm-um", "0.5",
                "--chain-k", "3",
                "--chain-window-mhz", window,
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DomainError" and "chain window" in err["error"]
        assert not (tmp_path / "spatial_summary.json").exists()


class TestReportCommand:
    def test_aggregates_sections(self, tmp_path):
        assert main(["birthday", "--q", "0.0098", "--out", str(tmp_path)]) == 0
        assert main(["protocol", "--n", "3", "--eta", "0.85", "--out", str(tmp_path)]) == 0
        assert main(["sample", "--n", "20", "--seed", "2", "--out", str(tmp_path)]) == 0
        assert main(["report", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["sections"]) == {"birthday", "protocol", "sample"}
        assert report["sections"]["birthday"]["results"]["n_star"] == 13
        assert "parametric" in report["provenance_note"]
        text = (tmp_path / "report.txt").read_text()
        assert "n_star: 13" in text

    def test_text_report_shows_nested_results(self, tmp_path):
        assert main(["birthday", "--q", "0.0098", "--mc", "--trials", "1000", "--seed", "2",
                     "--out", str(tmp_path)]) == 0
        assert main(["spatial", "--lateral-fwhm-um", "0.5", "--trials", "10000",
                     "--chain-k", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert main(["report", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        mc = report["sections"]["birthday"]["results"]["monte_carlo"]
        chain = report["sections"]["spatial"]["results"]["spectral_chain"]
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert f"  monte_carlo.n_star: {mc['n_star']}" in lines
        assert f"  monte_carlo.quantiles.q50: {mc['quantiles']['q50']}" in lines
        assert f"  spectral_chain.probability: {chain['probability']}" in lines
        # lists stay in the JSON and CSV files
        assert not any(line.lstrip().startswith(("curve:", "monte_carlo.ci95")) for line in lines)
        assert not any("occupancy_distribution" in line for line in lines)

    def test_empty_directory_exit_2(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["type"] == "SummaryError"

    def test_two_summaries_of_one_command_exit_2(self, tmp_path, capsys):
        assert main(["birthday", "--q", "0.0098", "--out", str(tmp_path)]) == 0
        summary = tmp_path / "birthday_summary.json"
        (tmp_path / "old_birthday_summary.json").write_bytes(summary.read_bytes())
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "SummaryError"
        assert "birthday_summary.json" in err["error"]
        assert "old_birthday_summary.json" in err["error"]
        assert not (tmp_path / "report.json").exists()

    def test_full_pipeline_report(self, tmp_path, fixture_50_12):
        csv_path = tmp_path / "lines.csv"
        csv_path.write_text(serialize_line_list(fixture_50_12))
        assert main(["sample", "--n", "20", "--seed", "2", "--out", str(tmp_path)]) == 0
        assert main(
            ["overlap", "--input", str(csv_path), "--window-mhz", "29", "--seed", "1",
             "--bootstrap", "200", "--out", str(tmp_path)]
        ) == 0
        assert main(["birthday", "--q", "0.0098", "--out", str(tmp_path)]) == 0
        assert main(["protocol", "--n", "4", "--eta", "0.85", "--out", str(tmp_path)]) == 0
        assert main(
            ["spatial", "--lateral-fwhm-um", "0.5", "--trials", "10000", "--seed", "3",
             "--out", str(tmp_path)]
        ) == 0
        assert main(["report", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["sections"]) == {"sample", "overlap", "birthday", "protocol", "spatial"}


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestRefusedRunWritesNothing:
    # name: (successful runs of the same command, the refused run, its config
    #        or a (flag, bytes) file it reads, a summary planted before it,
    #        the error it ends in)
    CASES = {
        "birthday-mc-trials": (
            [["birthday", "--q", "0.01", "--mc", "--trials", "1000"]],
            ["birthday", "--q", "0.01", "--mc", "--trials", "2000000000"],
            None, None, "DomainError",
        ),
        "spatial-chain-window": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene", "--chain-k", "3"]],
            ["spatial", "--lateral-fwhm-um", "0.5", "--export-scene", "--chain-k", "3",
             "--chain-window-mhz", "0"],
            None, None, "DomainError",
        ),
        "spatial-chain-k": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene", "--chain-k", "3"]],
            ["spatial", "--lateral-fwhm-um", "0.5", "--export-scene", "--chain-k", "17"],
            None, None, "DomainError",
        ),
        "fit-ple-classify": (
            [["fit-ple", "--synthetic", "--k", "3", "--classify"]],
            ["fit-ple", "--synthetic", "--k", "3", "--classify"],
            {"ensemble": {"zfs_sigma_ghz": 0.0001}}, None, "ClassificationError",
        ),
        "report-invalid-json": (
            [["birthday", "--q", "0.0098"], ["report"]],
            ["report"],
            None, "{", "SummaryError",
        ),
        "report-summary-nan": (
            [["birthday", "--q", "0.0098"], ["report"]],
            ["report"],
            # a summary of its own command, valid but for the NaN that
            # report.json would copy
            None,
            '{"command": "overlap", "config_hash": "0", "version": "0", '
            '"seed": {"seed": 1}, "results": {"slope_per_gamma": NaN}}',
            "SummaryError",
        ),
        "report-foreign-summary": (
            [["birthday", "--q", "0.0098"], ["report"]],
            ["report"],
            None, '{"a": 1}', "SummaryError",
        ),
        "spatial-psf-square": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene"]],
            ["spatial", "--export-scene", "--lateral-fwhm-um", "1e300"],
            None, None, "DomainError",
        ),
        "spatial-psf-product": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene"]],
            ["spatial", "--export-scene", "--lateral-fwhm-um", "1e150",
             "--axial-fwhm-um", "1e300"],
            None, None, "DomainError",
        ),
        "sample-center-width": (
            [["sample", "--n", "10"]],
            ["sample", "--n", "10"],
            {"ensemble": {"center": {"half_width_ghz": 1e308}}}, None, "DomainError",
        ),
        "sample-spread-overflow": (
            [["sample", "--n", "10"]],
            ["sample", "--n", "10"],
            # widths drawn near 1e300 overflow the squared spread of their summary
            {"ensemble": {"fwhm_sigma_mhz": 1e300}}, None, "DomainError",
        ),
        "overlap-window-sums": (
            [["overlap", "--n", "2", "--window-mhz", "29"]],
            ["overlap", "--n", "2", "--window-mhz", "1e308"],
            None, None, "DomainError",
        ),
        "sample-histogram-edges": (
            [["sample", "--n", "10"]],
            ["sample", "--n", "1"],
            # lines near 5e17 GHz, where doubles are 64 apart: 1-GHz bins have no width
            {"ensemble": {"center": {"half_width_ghz": 1e18}, "zfs_mean_ghz": 1000.0}},
            None, "DomainError",
        ),
        "spatial-int-beyond-double": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene"]],
            ["spatial", "--export-scene"],
            {"spatial": {"lateral_fwhm_um": 10**400}}, None, "ConfigError",
        ),
        "spatial-array-int-beyond-double": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene"]],
            ["spatial", "--lateral-fwhm-um", "0.5", "--export-scene"],
            {"spatial": {"box_um": [20.0, 10**400, 10.0]}}, None, "ConfigError",
        ),
        "spatial-trials-beyond-double": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene"]],
            # the refusal's message formatted the count as a float, an OverflowError
            ["spatial", "--lateral-fwhm-um", "0.5", "--export-scene", "--trials", str(10**400)],
            None, None, "DomainError",
        ),
        "fit-ple-peaks-beyond-int64": (
            [["fit-ple", "--synthetic"]],
            ["fit-ple", "--synthetic"],
            {"fit_ple": {"n_peaks": 2**64}}, None, "DomainError",
        ),
        "fit-ple-grid-beyond-double": (
            [["fit-ple", "--synthetic"]],
            ["fit-ple", "--synthetic"],
            {"ensemble": {"zfs_mean_ghz": 1.7e308}}, None, "DomainError",
        ),
        "fit-ple-width-beyond-double": (
            [["fit-ple", "--synthetic", "--k", "3"]],
            ["fit-ple", "--synthetic", "--k", "3"],
            # the peaks' squared half-width overflowed into an OverflowError
            {"ensemble": {"fwhm_mean_mhz": 1e300}}, None, "DomainError",
        ),
        "fit-ple-grid-below-double": (
            [["fit-ple", "--synthetic", "--k", "3"]],
            ["fit-ple", "--synthetic", "--k", "3"],
            # a grid step of 3e-302 GHz: its square underflows
            {"ensemble": {"zfs_mean_ghz": 1e-300}}, None, "DomainError",
        ),
        "sample-linewidth-overflow": (
            [["sample", "--n", "10"]],
            ["sample", "--n", "10"],
            # 1/(2 pi tau) overflowed and the summary read Infinity
            {"ensemble": {"lifetime_ns": 1e-320}}, None, "DomainError",
        ),
        # normal centers of sigma 1e308: their scaling overflowed in a
        # RuntimeWarning traceback (exit 1) under pytest's warning filter
        "sample-normal-sigma-beyond-double": (
            [["sample", "--n", "100"]],
            ["sample", "--n", "100"],
            {"ensemble": {"center": {"kind": "normal", "sigma_ghz": 1e308}}}, None, "DomainError",
        ),
        "overlap-normal-sigma-beyond-double": (
            [["overlap", "--n", "50"]],
            ["overlap", "--n", "50"],
            {"ensemble": {"center": {"kind": "normal", "sigma_ghz": 1e308}}}, None, "DomainError",
        ),
        "birthday-mc-normal-sigma-beyond-double": (
            [["birthday", "--q", "0.01", "--mc", "--trials", "1000"]],
            ["birthday", "--q", "0.01", "--mc", "--trials", "1000"],
            {"ensemble": {"center": {"kind": "normal", "sigma_ghz": 1e308}}}, None, "DomainError",
        ),
        "spatial-chain-normal-sigma-beyond-double": (
            [["spatial", "--lateral-fwhm-um", "0.5", "--export-scene", "--chain-k", "3"]],
            ["spatial", "--lateral-fwhm-um", "0.5", "--chain-k", "3", "--trials", "10000"],
            {"ensemble": {"center": {"kind": "normal", "sigma_ghz": 1e308}}}, None, "DomainError",
        ),
        # a ZFS sigma of 1e308: its scaling overflowed the same way
        "overlap-zfs-sigma-beyond-double": (
            [["overlap", "--n", "50"]],
            ["overlap", "--n", "50"],
            {"ensemble": {"zfs_sigma_ghz": 1e308}}, None, "DomainError",
        ),
        "sample-zfs-sigma-beyond-double": (
            [["sample", "--n", "100"]],
            ["sample", "--n", "100"],
            {"ensemble": {"zfs_sigma_ghz": 1e308}}, None, "DomainError",
        ),
        "birthday-mc-zfs-sigma-beyond-double": (
            [["birthday", "--q", "0.01", "--mc", "--trials", "1000"]],
            ["birthday", "--q", "0.01", "--mc", "--trials", "1000"],
            {"ensemble": {"zfs_sigma_ghz": 1e308}}, None, "DomainError",
        ),
        "sample-linewidth-underflow": (
            [["sample", "--n", "10"]],
            ["sample", "--n", "10"],
            # 2 pi tau overflowed, and the summary read a linewidth of 0.0
            {"ensemble": {"lifetime_ns": 1e308}}, None, "DomainError",
        ),
        "fit-ple-classify-n-sigma": (
            [["fit-ple", "--synthetic", "--k", "3", "--classify"]],
            ["fit-ple", "--synthetic", "--k", "3", "--classify"],
            # a ClassificationError blamed the spectrum for a window of -0.075 GHz
            {"fit_ple": {"n_sigma": -1}}, None, "DomainError",
        ),
        # files that are not UTF-8 ended in a UnicodeDecodeError traceback
        "overlap-input-not-utf8": (
            [["overlap", "--n", "2", "--window-mhz", "29"]],
            ["overlap", "--window-mhz", "29"],
            ("--input", b"emitter_id,f_a1_ghz,f_a2_ghz\na,0,1\xff\n"), None, "LineListError",
        ),
        "fit-ple-input-not-utf8": (
            [["fit-ple", "--synthetic", "--k", "1"]],
            ["fit-ple", "--k", "1"],
            ("--input", b"frequency_ghz,counts\n0,1\xff\n"), None, "LineListError",
        ),
        "sample-config-not-utf8": (
            [["sample", "--n", "5"]],
            ["sample", "--n", "5"],
            ("--config", b'{"seed": 1, "output_dir": "\xff"}'), None, "ConfigError",
        ),
        # JSON nested deeper than the recursion limit ended in a RecursionError traceback
        "sample-config-too-deep": (
            [["sample", "--n", "5"]],
            ["sample", "--n", "5"],
            ("--config", b"[" * 100000 + b"]" * 100000), None, "ConfigError",
        ),
        "report-summary-too-deep": (
            [["birthday", "--q", "0.0098"], ["report"]],
            ["report"],
            None, "[" * 100000 + "]" * 100000, "SummaryError",
        ),
        "fit-ple-median-overflow": (
            [["fit-ple", "--synthetic", "--k", "1"]],
            ["fit-ple", "--k", "1"],
            # the mean of the two middle counts overflowed in a RuntimeWarning
            # traceback, and without the warning filter the background of inf
            # was blamed on the peaks
            ("--input", b"frequency_ghz,counts\n" + b"".join(b"%d,1e308\n" % i for i in range(20))),
            None, "DomainError",
        ),
    }

    @pytest.mark.parametrize(
        "prior_run", [False, True, None], ids=["empty", "prior-run", "absent"]
    )
    @pytest.mark.parametrize("case", list(CASES))
    def test_directory_unchanged(self, tmp_path, capsys, case, prior_run):
        # prior_run None: the output directory does not exist, and must not exist after
        priors, refused, config, planted, error_type = self.CASES[case]
        out = tmp_path / "out" / "run"
        if prior_run is not None:
            out.mkdir(parents=True)
        if prior_run:
            for argv in priors:
                assert main([*argv, "--seed", "4", "--out", str(out)]) == 0
        if config is not None:
            if not isinstance(config, tuple):
                config = "--config", json.dumps(config).encode()
            flag, data = config
            (tmp_path / "input").write_bytes(data)
            refused = [*refused, flag, str(tmp_path / "input")]
        if planted is not None and prior_run is not None:
            (out / "x_summary.json").write_text(planted)
        before = _snapshot(out) if prior_run is not None else None
        capsys.readouterr()

        assert main([*refused, "--seed", "4", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == error_type
        if prior_run is None:
            assert not (tmp_path / "out").exists()
            return
        if planted is not None:
            assert "x_summary.json" in err["error"]
        assert _snapshot(out) == before
        if prior_run:
            # the prior run's tables still carry its summary's config hash
            config_hash = _read_summary(out, priors[0][0].replace("-", "_"))["config_hash"]
            tables = list(out.glob("*.csv"))
            assert tables
            for table in tables:
                assert f"# config_hash={config_hash}\n" in table.read_text()


@pytest.mark.parametrize(
    "config",
    [{"fit_ple": {"n_peaks": 2**64}}, {"ensemble": {"zfs_mean_ghz": 1.7e308}}],
    ids=["peaks-beyond-int64", "grid-beyond-double"],
)
def test_synthetic_fit_refused_at_once(tmp_path, capsys, config):
    # 2^64 peaks were built one by one before the size check (k = 1e6 took
    # 4.3 s); the infinite grid span made np.linspace warn before the refusal
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = ["fit-ple", "--synthetic", "--config", str(tmp_path / "cfg.json")]
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().err)["type"] == "DomainError"


def test_failed_write_removes_the_directories_it_made(tmp_path, capsys, monkeypatch):
    def full_disk(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("emitternet.lineio.write_table", full_disk)
    out = tmp_path / "new" / "run"
    assert main(["birthday", "--q", "0.01", "--seed", "4", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["type"] == "OSError"
    assert list(tmp_path.iterdir()) == []
    # a directory that existed before stays, as it was
    out.mkdir(parents=True)
    assert main(["birthday", "--q", "0.01", "--seed", "4", "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def _tree(directory):
    """Every file and directory under ``directory``, hidden ones included."""
    return {
        str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
        for p in directory.rglob("*")
    }


@pytest.mark.parametrize("prior_run", [False, True], ids=["empty", "prior-run"])
def test_directory_in_the_way_leaves_the_directory_unchanged(tmp_path, capsys, prior_run):
    out = tmp_path / "out"
    out.mkdir()
    if prior_run:
        assert main(["birthday", "--q", "0.01", "--seed", "4", "--out", str(out)]) == 0
    (out / "birthday_mc_curve.csv").mkdir()
    (out / "birthday_mc_curve.csv" / "kept.txt").write_text("kept\n")
    before = _tree(out)
    capsys.readouterr()

    argv = ["birthday", "--q", "0.01", "--mc", "--trials", "1000", "--seed", "5"]
    assert main([*argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "IsADirectoryError"
    assert "birthday_mc_curve.csv" in err["error"]
    assert _tree(out) == before


class TestUsageAndConfig:
    def test_unknown_flag_exit_1(self, capsys):
        code = main(["birthday", "--qq", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_code"] == 1

    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_config_file_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tyop": 1}))
        code = main(["birthday", "--q", "0.01", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "ConfigError"

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"birthday": {"q": 0.0098, "target": 0.5}, "seed": 4}))
        code = main(["birthday", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        doc = _read_summary(tmp_path, "birthday")
        assert doc["results"]["n_star"] == 13
        assert doc["seed"]["seed"] == 4

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"birthday": {"q": 0.5}}))
        code = main(["birthday", "--q", "0.0098", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert _read_summary(tmp_path, "birthday")["results"]["n_star"] == 13

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMITTERNET_SEED", "12345")
        assert main(["sample", "--n", "5", "--out", str(tmp_path)]) == 0
        assert _read_summary(tmp_path, "sample")["seed"]["seed"] == 12345

    def test_threads_flag_removed(self, tmp_path, capsys):
        # --threads did nothing, accepted -3, and put os.cpu_count() in summaries
        assert main(["birthday", "--q", "0.01", "--threads", "-3", "--out", str(tmp_path)]) == 1
        assert "threads" in json.loads(capsys.readouterr().err.strip())["error"]
        assert main(["birthday", "--q", "0.01", "--out", str(tmp_path)]) == 0
        doc = _read_summary(tmp_path, "birthday")
        assert "threads" not in doc and "threads" not in doc["config"]

    @pytest.mark.parametrize(
        "config, command, key",
        [
            ({"spatial": {"density_per_um3": math.nan}}, ["spatial", "--lateral-fwhm-um", "0.5"],
             "spatial.density_per_um3"),
            ({"ensemble": {"zfs_sigma_ghz": math.inf}}, ["sample", "--n", "5"],
             "ensemble.zfs_sigma_ghz"),
        ],
    )
    def test_non_finite_config_number_exit_2(self, tmp_path, capsys, config, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))  # writes NaN / Infinity
        code = main([*command, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "ConfigError"
        assert key in err["error"] and "emitter" not in err["error"]

    def test_output_dir_with_nul_exit_2(self, tmp_path, capsys, monkeypatch):
        # os.makedirs raised "embedded null byte", and so did the cleanup after it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"output_dir": "a\u0000b"}))
        assert main(["birthday", "--q", "0.01", "--config", "cfg.json"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["type"] == "ConfigError" and "output_dir" in err["error"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMITTERNET_SEED", "12345")
        assert main(["sample", "--n", "5", "--seed", "1", "--out", str(tmp_path)]) == 0
        assert _read_summary(tmp_path, "sample")["seed"]["seed"] == 1

    @pytest.mark.parametrize(
        ("env", "rule"),
        [
            ("abc", "an integer"),
            ("-1", "a 64-bit unsigned integer"),
            ("18446744073709551616", "a 64-bit unsigned integer"),
        ],
        ids=["abc", "-1", "2**64"],
    )
    def test_invalid_env_seed_refused(self, tmp_path, capsys, monkeypatch, env, rule):
        monkeypatch.setenv("EMITTERNET_SEED", env)
        assert main(["sample", "--n", "5", "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["type"], err["error"]) == (
            "ConfigError", f"EMITTERNET_SEED must be {rule}, got {env!r}"
        )
        assert not (tmp_path / "out").exists()

    def test_stream_index_fault_not_blamed_on_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EMITTERNET_SEED", "5")
        argv = ["sample", "--n", "5", "--stream-index", "-1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["type"], err["error"]) == (
            "DomainError", "stream_index must be non-negative, got -1"
        )
        assert not (tmp_path / "out").exists()

    def test_invalid_env_seed_ignored_when_the_seed_is_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMITTERNET_SEED", "abc")
        assert main(["sample", "--n", "5", "--seed", "1", "--out", str(tmp_path)]) == 0
        assert _read_summary(tmp_path, "sample")["seed"]["seed"] == 1
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 2}))
        argv = ["sample", "--n", "5", "--config", str(tmp_path / "cfg.json")]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert _read_summary(tmp_path, "sample")["seed"]["seed"] == 2


def test_readme_python_examples_run():
    # each ```python block runs in a fresh namespace; a line ending in
    # "# -> X" shows the repr X of its expression
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    shown = []
    for block in blocks:
        namespace: dict = {}
        pending = []
        for line in block.splitlines():
            expression, arrow, expected = line.partition("# -> ")
            if not arrow:
                pending.append(line)
                continue
            exec("\n".join(pending), namespace)
            pending = []
            assert repr(eval(expression, namespace)) == expected.strip()
            shown.append(expected.strip())
        exec("\n".join(pending), namespace)
    assert shown == ["(1.0,)", "13"]


def _readme_commands():
    """The argv of each command in the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


def _src_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test dependency only: every command of the README's
    # "Command line" block, the PLE fit included, runs without it
    commands = _readme_commands()
    assert ["fit-ple", "--synthetic", "--k", "3", "--classify"] in [argv[:5] for argv in commands]
    script = textwrap.dedent(
        f"""
        import json, sys

        from emitternet.cli import main

        loaded = []
        for argv in {commands!r}:
            code = main(argv)
            loaded.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
        print(json.dumps(loaded))
        """
    )
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=_src_env(), capture_output=True,
        text=True, check=True,
    )
    loaded = json.loads(run.stdout)
    assert loaded == [[0, []]] * len(commands)
    assert (tmp_path / "runs" / "demo" / "fit_ple_summary.json").exists()


def _imported(stderr):
    """The modules a ``python -X importtime`` run imported, from its stderr."""
    lines = [line.split("|")[-1].strip() for line in stderr.splitlines()]
    return {line for line in lines if line and line != "imported package"}


def test_version_and_report_load_no_numpy(tmp_path, monkeypatch):
    # neither computes an array: they run from emitternet._front alone
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands[-1] == ["report", "--out", "runs/demo"]
    for argv in commands:
        assert main(argv) == 0
    demo = tmp_path / "runs" / "demo"
    written = {name: _stripped_bytes(demo / name) for name in ("report.json", "report.txt")}
    for argv in (["--version"], commands[-1]):
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "emitternet", *argv],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True, check=True,
        )
        imported = _imported(run.stderr)
        assert "emitternet._front" in imported
        assert not {m for m in imported if m.split(".")[0] == "numpy"}, argv
    assert {name: _stripped_bytes(demo / name) for name in written} == written


# The analysis modules each command may load: a command loads only its own.
ANALYSIS_LAYERS = {"cli", "spectral", "lineio", "overlap", "spatial", "ple", "_trf", "register"}
COMMAND_LAYERS = {
    "sample": {"spectral", "overlap", "lineio"},
    "overlap": {"spectral", "overlap", "lineio"},
    "birthday": {"spectral", "overlap", "lineio"},
    "fit-ple": {"spectral", "ple", "_trf", "lineio"},
    "protocol": {"register", "lineio", "spectral"},
    "spatial": {"spectral", "spatial", "lineio"},
    "report": set(),
}


def test_each_command_loads_only_its_own_layers(tmp_path):
    # each README command in a fresh interpreter under -X importtime; the
    # modules loaded are those it times and those left in sys.modules
    script = (
        "import sys\n"
        "from emitternet._front import main\n"
        "code = main(sys.argv[1:])\n"
        "print(' '.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(COMMAND_LAYERS)
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", script, *argv],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True, check=True,
        )
        loaded = _imported(run.stderr) | set(run.stdout.split())
        layers = {m.split(".", 1)[1] for m in loaded if m.startswith("emitternet.")}
        assert layers & ANALYSIS_LAYERS <= COMMAND_LAYERS[argv[0]], argv
        if argv[0] == "fit-ple" or (argv[0] == "birthday" and "--mc" in argv):
            # np.median and np.quantile would load numpy.ma, 18 ms
            assert "numpy.ma" not in loaded, argv
    assert any(argv[0] == "birthday" and "--mc" in argv for argv in commands)
    assert (tmp_path / "runs" / "demo" / "report.json").exists()


@pytest.mark.parametrize(
    "argv", [["protocol", "--n", "4"], ["spatial", "--lateral-fwhm-um", "0.5"]]
)
def test_a_run_that_writes_no_table_loads_no_lineio(tmp_path, argv):
    # each writer is imported only where the command makes its file
    script = (
        "import sys\n"
        "from emitternet._front import main\n"
        "code = main(sys.argv[1:])\n"
        "print(' '.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(tmp_path)],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, check=True,
    )
    assert "emitternet.lineio" not in run.stdout.split()
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    ("argv", "code"), [(["--version"], 0), (["bogus"], 1), (["sample", "--n", "x"], 1)]
)
def test_version_and_usage_errors_load_no_config_or_json(tmp_path, argv, code):
    # neither needs a config, a seed or a JSON encoder; site may load
    # other modules before the program starts, so only these are checked
    script = (
        "import sys\n"
        "from emitternet._front import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(' '.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script, *argv],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
    )
    assert run.returncode == code, run.stderr
    loaded = _imported(run.stderr) | set(run.stdout.split())
    assert "emitternet._front" in loaded
    unwanted = {"emitternet.config", "emitternet.seeding", "dataclasses", "numpy"}
    if not code:
        # a usage error writes its line with json, and argparse finds it
        unwanted |= {"json", "argparse"}
    assert not loaded & unwanted, argv
    if code:
        (line,) = [line for line in run.stderr.splitlines() if line.startswith('{"error"')]
        error = json.loads(line)
        assert error["type"] == "UsageError" and error["exit_code"] == 1


def test_every_command_the_parser_accepts_runs_from_the_one_table():
    (commands,) = [a.choices for a in _build_parser()._actions if a.dest == "command"]
    assert set(commands) == set(_COMMANDS)


@pytest.mark.parametrize("command", [None, *sorted(_COMMANDS)])
def test_help_is_plain_text(command, capsys):
    # the module docstring is for developers and holds reST markup; --help
    # prints a description of its own
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: emitternet")
    assert ":func:" not in out and "``" not in out


def test_version_writes_the_bytes_of_the_parsers_action(tmp_path, capsys):
    # main answers --version alone before it builds the parser; every other
    # spelling still goes through argparse's version action
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    expected = capsys.readouterr().out
    assert expected == f"emitternet {__version__}\n"
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (expected, "")
    for argv in (["--version"], ["--vers"], ["--version", "sample"]):
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "emitternet", *argv],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
        )
        assert (run.returncode, run.stdout) == (0, expected), argv
        assert ("argparse" in _imported(run.stderr)) == (argv != ["--version"]), argv
    # with stdout closed, the line goes to stderr, where argparse sends it;
    # with both closed, the run still exits 0
    for closed, err in ((">&-", expected), (">&- 2>&-", "")):
        run = subprocess.run(
            ["sh", "-c", f'exec "$@" {closed}', "sh", sys.executable, "-m", "emitternet",
             "--version"],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
        )
        assert (run.returncode, run.stderr) == (0, err), closed


PACKAGE_ALL = [
    "ALL_COMBOS", "ChainResult", "ClassificationError", "ConfigError", "ConfocalPsf",
    "DomainError", "EmitterLines", "EmitterNetError", "EnsembleModel", "EnsembleSummary",
    "FidelitySweepRow", "FitResult", "HeraldOutcome", "HeraldOutcomes", "HistogramResult",
    "LineCombo", "LineListError", "LineTable", "LorentzianPeak", "LossModel",
    "LossyChainResult", "MixedOutcome", "MonteCarloThreshold", "NormalCenters",
    "OccupancyStats", "OverlapCurve", "PairAssignment", "PeakDetectionError", "PleSpectrum",
    "ProtocolError", "REFERENCE_FREQUENCY_THZ", "RunConfig", "SeedSpec", "SpatialScene",
    "SpinRegisterState", "SummaryError", "ThresholdResult", "UniformCenters", "UsageError",
    "WeightedState", "as_seed", "basis_state",
    "birthday_threshold", "bootstrap_std_error", "classify_pair_spectrum",
    "collision_probability", "config", "errors",
    "fidelity_vs_eta_sweep", "fit_multi_lorentzian", "fit_slope_through_origin",
    "ghz_fidelity", "ghz_target", "hadamard_all", "herald_pair", "histogram", "init_pumped",
    "initial_guess", "lifetime_limited_linewidth", "lineio", "lorentzian_value",
    "monte_carlo_threshold", "occupancy_stats", "overlap",
    "overlap_curve", "parse_line_list", "ple", "poisson_multi_occupancy",
    "published_branch_weight", "published_model_fidelity", "read_line_list", "read_spectrum",
    "register", "run_ghz_chain", "run_ghz_chain_with_loss", "sample_ensemble", "sample_scene",
    "schema_description", "seeding", "serialize_line_list", "spatial", "spectral",
    "spectral_arrangement_rate", "spot_volume", "summarize_ensemble", "synthesize",
    "write_line_list", "write_spectrum",
]


def test_package_exports_load_on_first_use():
    script = textwrap.dedent(
        """
        import json, sys

        import emitternet

        out = {
            "numpy_after_import": "numpy" in sys.modules,
            "all": emitternet.__all__,
            "public_dir": [n for n in dir(emitternet) if not n.startswith("_")],
        }
        try:
            emitternet.no_such_name
        except AttributeError as exc:
            out["missing"] = str(exc)
        # the benchmark's tracer wraps all eight layers right after this import
        import emitternet.cli
        layers = "cli config spectral lineio overlap spatial ple register".split()
        out["layers"] = [name for name in layers if f"emitternet.{name}" in sys.modules]
        namespace = {}
        exec("from emitternet import *", namespace)
        out["star"] = sorted(set(namespace) - {"__builtins__"})
        out["submodules"] = sorted(
            name for name, value in namespace.items()
            if value is sys.modules.get(f"emitternet.{name}")
        )
        print(json.dumps(out))
        """
    )
    run = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True,
        check=True,
    )
    out = json.loads(run.stdout)
    assert out["numpy_after_import"] is False
    assert out["all"] == PACKAGE_ALL
    assert out["public_dir"] == PACKAGE_ALL
    assert out["missing"] == "module 'emitternet' has no attribute 'no_such_name'"
    assert out["star"] == PACKAGE_ALL
    assert out["submodules"] == [
        "config", "errors", "lineio", "overlap", "ple", "register", "seeding", "spatial",
        "spectral",
    ]
    assert len(out["layers"]) == 8
