import json
import math
import re

import pytest

from emitternet import serialize_line_list
from emitternet.cli import main

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


class TestFitPleCommand:
    def test_synthetic_two_peak_fit(self, tmp_path):
        code = main(
            ["fit-ple", "--synthetic", "--k", "2", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
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

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        code = main(
            [
                "fit-ple",
                "--synthetic",
                "--k", "2",
                "--seed", "3",
                "--max-iterations", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit_code"] == 3
        results = _read_summary(tmp_path, "fit_ple")["results"]
        assert results["converged"] is False

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

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMITTERNET_SEED", "12345")
        assert main(["sample", "--n", "5", "--seed", "1", "--out", str(tmp_path)]) == 0
        assert _read_summary(tmp_path, "sample")["seed"]["seed"] == 1
