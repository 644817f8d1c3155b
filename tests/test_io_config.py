import csv
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import (
    ConfigError,
    EmitterLines,
    EnsembleModel,
    LineCombo,
    LineListError,
    LineTable,
    NormalCenters,
    PleSpectrum,
    RunConfig,
    UniformCenters,
    overlap_curve,
    parse_line_list,
    sample_ensemble,
    schema_description,
    serialize_line_list,
)
from emitternet.lineio import read_spectrum, write_spectrum

HEADER = "emitter_id,f_a1_ghz,f_a2_ghz,fwhm_a1_mhz,fwhm_a2_mhz"

# a spectrum row with one fault of each kind, by the row's index
SPECTRUM_FAULTS = {
    "field count": lambda i: f"{i},1,2",
    "bad number": lambda i: f"{i},x",
    "non-finite": lambda i: f"nan,{i}",
    "open quote": lambda i: f'{i},"1',
    "field over the csv limit": lambda i: f"{i},{'1' * (csv.field_size_limit() + 1)}",
}


class TestParseLineList:
    def test_header_only(self):
        table = parse_line_list(HEADER + "\n")
        assert len(table) == 0
        assert table == LineTable([], [], [])

    def test_single_row(self):
        records = parse_line_list(f"{HEADER}\ne1,0.0,1.027,300,310\n")
        row = EmitterLines(
            id="e1", a1_ghz=0.0, a2_ghz=1.027, fwhm_a1_mhz=300.0, fwhm_a2_mhz=310.0
        )
        assert records == LineTable.from_rows([row])
        assert list(records) == [row]

    def test_optional_widths(self):
        records = parse_line_list(f"{HEADER}\ne1,0.0,1.027,,\n")
        assert records[0].fwhm_a1_mhz is None
        assert records[0].fwhm_a2_mhz is None

    def test_comment_lines_skipped(self):
        text = f"# config_hash=abc\n# seed=1\n{HEADER}\ne1,0.0,1.0,300,300\n"
        assert len(parse_line_list(text)) == 1

    def test_inverted_lines_name_the_emitter(self):
        with pytest.raises(LineListError) as err:
            parse_line_list(f"{HEADER}\nbad_one,2.0,1.0,300,300\n")
        assert "bad_one" in str(err.value)

    def test_duplicate_id(self):
        text = f"{HEADER}\ne1,0.0,1.0,300,300\ne1,5.0,6.0,300,300\n"
        with pytest.raises(LineListError) as err:
            parse_line_list(text)
        assert "duplicate" in str(err.value)
        assert err.value.row == 3

    def test_malformed_number_reports_row_and_column(self):
        with pytest.raises(LineListError) as err:
            parse_line_list(f"{HEADER}\ne1,zero,1.0,300,300\n")
        assert err.value.row == 2
        assert err.value.column == "f_a1_ghz"

    def test_wrong_header(self):
        with pytest.raises(LineListError):
            parse_line_list("id,a1,a2\ne1,0,1\n")

    def test_bytes_accepted(self):
        assert len(parse_line_list(f"{HEADER}\ne1,0.0,1.0,300,300\n".encode())) == 1

    def test_round_trip(self):
        emitters = sample_ensemble(EnsembleModel(), 25, 3)
        text = serialize_line_list(emitters, comments=["config_hash=test"])
        assert parse_line_list(text) == emitters

    def test_record_round_trip_with_missing_widths(self):
        records = LineTable.from_rows(
            [EmitterLines("a", 0.0, 1.0), EmitterLines("b", 2.0, 3.5, 100.0, 200.0)]
        )
        assert parse_line_list(serialize_line_list(records)) == records

    def test_records_without_widths_need_fill(self):
        # Rows without widths once had to be filled before the overlap
        # statistics. They now stay NaN in the table (None in a row), and the
        # statistics read line positions only, so a fill would change nothing.
        records = parse_line_list(f"{HEADER}\na,0.0,1.0\nb,0.01,1.02,,\n")
        assert np.isnan(records.fwhm_a1_mhz).all() and np.isnan(records.fwhm_a2_mhz).all()
        assert records[0].fwhm_a1_mhz is None
        filled = LineTable(records.ids, records.a1_ghz, records.a2_ghz, [316.0] * 2, [316.0] * 2)
        assert overlap_curve(records, [29.0]) == overlap_curve(filled, [29.0])
        assert overlap_curve(records, [29.0]).probabilities == (1.0,)


class TestSpectrumIo:
    def test_round_trip(self, tmp_path):
        spectrum = PleSpectrum(
            frequencies_ghz=np.linspace(-1, 1, 11),
            counts=np.arange(11, dtype=float),
            dwell_time_s=0.05,
        )
        path = tmp_path / "spec.csv"
        write_spectrum(path, spectrum, comments=["config_hash=x"])
        assert read_spectrum(path) == spectrum
        sidecar = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert sidecar == {"dwell_time_s": 0.05}

    def test_error_rows_are_file_rows(self, tmp_path):
        # two comment lines, the header on row 3, the bad value on row 5;
        # rows were once counted without the comments ("row 3")
        path = tmp_path / "spec.csv"
        path.write_text("# a\n# b\nfrequency_ghz,counts\n0.0,1.0\n0.1,many\n")
        with pytest.raises(LineListError) as err:
            read_spectrum(path)
        assert err.value.row == 5
        assert err.value.column == "counts"
        assert str(err.value).startswith("row 5,")

    def test_field_count_row_is_file_row(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# a\nfrequency_ghz,counts\n\n0.0,1.0,2.0\n")
        with pytest.raises(LineListError) as err:
            read_spectrum(path)
        assert err.value.row == 4
        assert "row 4: expected 2 fields" in str(err.value)

    @pytest.mark.parametrize(
        "text, message, row, column",
        [
            # a bad number, then a non-finite count on a later row
            (
                "# c\nfrequency_ghz,counts\n0.0,1.0\n0.1,x\n0.2,inf\n",
                "row 4, column 'counts': cannot parse 'x' as a number",
                4,
                "counts",
            ),
            # a non-finite value, then a 3-field row
            (
                "frequency_ghz,counts\n0.0,nan\n\n0.1,1.0,2.0\n",
                "row 2, column 'counts': value must be finite, got 'nan'",
                2,
                "counts",
            ),
            # a 3-field row, then a bad number
            ("frequency_ghz,counts\n0.0,1,2\n0.1,x\n", "{path}: row 2: expected 2 fields", 2, None),
            # a bad number is reported before an open quote on a later row
            (
                'frequency_ghz,counts\n0.0,x\n0.1,"2\n0.2,1\n',
                "row 2, column 'counts': cannot parse 'x' as a number",
                2,
                "counts",
            ),
            # ... and so is a wrong header
            (
                'freq,counts\n0.0,"1\n0.1,2\n',
                "row 1: header must be exactly 'frequency_ghz,counts'",
                1,
                None,
            ),
            # a blank cell is not a number
            (
                "frequency_ghz,counts\n0.0,1.0\n,2.0\n0.2,y\n",
                "row 3, column 'frequency_ghz': cannot parse '' as a number",
                3,
                "frequency_ghz",
            ),
        ],
    )
    def test_first_error_of_multi_fault_files(self, tmp_path, text, message, row, column):
        path = tmp_path / "spec.csv"
        path.write_text(text)
        with pytest.raises(LineListError) as err:
            read_spectrum(path)
        assert str(err.value) == message.format(path=path)
        assert (err.value.row, err.value.column) == (row, column)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_of_two_faults_the_earlier_row_is_named(self, data):
        n_rows = data.draw(st.integers(2, 10))
        faulty = data.draw(st.sets(st.integers(0, n_rows - 1), min_size=2, max_size=2))
        lines, file_rows = ["# c", "frequency_ghz,counts"], []
        for index in range(n_rows):
            lines += data.draw(st.lists(st.sampled_from(["", "# c"]), max_size=2))
            fault = data.draw(st.sampled_from(sorted(SPECTRUM_FAULTS)))
            lines.append(SPECTRUM_FAULTS[fault](index) if index in faulty else f"{index},1")
            file_rows.append(len(lines))
        row = file_rows[min(faulty)]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "spec.csv"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(LineListError) as err:
                read_spectrum(path)
        assert err.value.row == row
        assert re.match(rf"({re.escape(str(path))}: )?row {row}[:,]", str(err.value))

    def test_byte_that_is_not_utf8_names_its_row(self, tmp_path):
        # a UnicodeDecodeError escaped as a traceback
        path = tmp_path / "spec.csv"
        path.write_bytes(b"frequency_ghz,counts\n0,1\n\n0.1,\xe2\x82\n")
        with pytest.raises(LineListError) as err:
            read_spectrum(path)
        message = "row 4: cannot decode byte 0xe2 as UTF-8 (invalid continuation byte)"
        assert str(err.value) == message
        assert err.value.row == 4

    @pytest.mark.parametrize(
        "sidecar",
        ['{"dwell": 0.05}', "[0.05]", '{"dwell_time_s": "x"}', "{"]
        # a string or a bool was read as its float, and an integer beyond a
        # double ended in an OverflowError; null and bytes that are not
        # UTF-8 were refused before too
        + ['{"dwell_time_s": "2.5"}', '{"dwell_time_s": true}', '{"dwell_time_s": null}']
        + ['{"dwell_time_s": 1' + "0" * 400 + "}", '{"dwell_time_s": "\xff"}']
        # nesting deeper than the recursion limit ended in a RecursionError
        + [pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deep")],
    )
    def test_sidecar_without_dwell_time(self, tmp_path, sidecar):
        path = tmp_path / "spec.csv"
        path.write_text("frequency_ghz,counts\n0.0,1.0\n0.1,2.0\n")
        (tmp_path / "spec.csv.meta.json").write_bytes(sidecar.encode("latin-1"))
        with pytest.raises(LineListError, match="dwell_time_s"):
            read_spectrum(path)

    @pytest.mark.parametrize("dwell", ["2", "0.25", "2.5e-3"])
    def test_sidecar_dwell_time_is_a_json_number(self, tmp_path, dwell):
        path = tmp_path / "spec.csv"
        path.write_text("frequency_ghz,counts\n0.0,1.0\n0.1,2.0\n")
        (tmp_path / "spec.csv.meta.json").write_text(f'{{"dwell_time_s": {dwell}}}')
        assert read_spectrum(path).dwell_time_s == float(dwell)


class TestRunConfig:
    def test_defaults_round_trip(self):
        def defaults(desc):
            return {k: v["default"] if "type" in v else defaults(v) for k, v in desc.items()}

        cfg = RunConfig.from_mapping({})
        assert cfg.data == defaults(schema_description())

    def test_defaults_are_not_shared(self):
        # a resolved config once held the schema's own default lists
        before = RunConfig.from_mapping({})
        data, digest = before.data, before.config_hash()
        changed = RunConfig.from_mapping({}).data
        changed["combos"].append("a1a1")
        changed["protocol"]["eta_sweep"].clear()
        schema_description()["spatial"]["box_um"]["default"].append(1.0)
        after = RunConfig.from_mapping({})
        assert after.data == data and after.config_hash() == digest
        assert after.data["combos"] == ["a1a1", "a2a2", "a1a2", "a2a1"]

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_mapping({"ensembel": {}})
        assert "ensembel" in str(err.value)

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_mapping({"ensemble": {"zfs_mean": 1.0}})
        assert "ensemble" in str(err.value)

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"seed": "abc"})
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"windows_mhz": [1.0, "x"]})
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"birthday": {"monte_carlo": 1}})

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json("{not json")

    def test_hash_stability_and_sensitivity(self):
        a = RunConfig.from_mapping({"seed": 1})
        b = RunConfig.from_mapping({"seed": 1})
        c = RunConfig.from_mapping({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_ensemble_model_construction(self):
        cfg = RunConfig.from_mapping(
            {"ensemble": {"center": {"kind": "normal", "sigma_ghz": 4.0}, "zfs_sigma_ghz": 0.05}}
        )
        model = cfg.ensemble_model()
        assert model.centers == NormalCenters(sigma_ghz=4.0)
        assert model.zfs_sigma_ghz == 0.05
        default_model = RunConfig.from_mapping({}).ensemble_model()
        assert default_model.centers == UniformCenters(half_width_ghz=10.0)

    def test_bad_center_kind(self):
        cfg = RunConfig.from_mapping({"ensemble": {"center": {"kind": "triangular"}}})
        with pytest.raises(ConfigError):
            cfg.ensemble_model()

    def test_combos_parsing(self):
        cfg = RunConfig.from_mapping({"combos": ["a1a2", "a2a1"]})
        assert cfg.combos() == frozenset({LineCombo.A1_A2, LineCombo.A2_A1})

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"spatial": {"density_per_um3": NaN}}', "spatial.density_per_um3"),
            ('{"ensemble": {"zfs_sigma_ghz": Infinity}}', "ensemble.zfs_sigma_ghz"),
            ('{"birthday": {"q": -Infinity}}', "birthday.q"),
            ('{"windows_mhz": [29.0, NaN]}', "windows_mhz"),
        ],
    )
    def test_non_finite_numbers_rejected(self, text, path):
        # JSON's NaN and Infinity used to pass the schema and fail later,
        # as a numpy traceback or as an error blamed on emitter 'e000'
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}(\[\d\])?: expected .*finite"):
            RunConfig.from_json(text)

    @pytest.mark.parametrize(
        "mapping, path",
        [
            ({"spatial": {"lateral_fwhm_um": 10**400}}, "spatial.lateral_fwhm_um"),
            ({"spatial": {"box_um": [20.0, -(10**400), 10.0]}}, "spatial.box_um[1]"),
        ],
    )
    def test_integers_beyond_double_rejected(self, mapping, path):
        # float() of such an integer raised OverflowError, a traceback with exit 1
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected a finite number"):
            RunConfig.from_json(json.dumps(mapping))

    def test_largest_integer_number_accepted(self):
        value = int(sys.float_info.max)
        config = RunConfig.from_mapping({"spatial": {"lateral_fwhm_um": value}})
        assert config.data["spatial"]["lateral_fwhm_um"] == sys.float_info.max

    def test_integer_beyond_the_digit_limit_rejected(self):
        # json.loads raises a plain ValueError for an integer of over 4300 digits
        with pytest.raises(ConfigError, match="digits"):
            RunConfig.from_json('{"seed": 1' + "0" * 5000 + "}")

    def test_removed_keys_rejected(self):
        for mapping in (
            {"threads": 2},
            {"overlap": {"fill_fwhm_mhz": 316.0}},
            # the classifier's ZFS prior is ensemble.zfs_mean_ghz and zfs_sigma_ghz
            {"fit_ple": {"prior_mean_ghz": 1.027}},
            {"fit_ple": {"prior_sigma_ghz": 0.075}},
        ):
            with pytest.raises(ConfigError, match="unknown key"):
                RunConfig.from_mapping(mapping)

    def test_empty_combos_rejected(self):
        # [] used to fall back silently to all four pairings
        with pytest.raises(ConfigError, match="combos"):
            RunConfig.from_mapping({"combos": []})

    def test_overrides_merge(self):
        cfg = RunConfig.from_mapping({"birthday": {"target": 0.6}})
        merged = cfg.with_overrides({"birthday": {"q": 0.01}})
        assert merged.data["birthday"]["target"] == 0.6
        assert merged.data["birthday"]["q"] == 0.01

    def test_schema_description_covers_all_keys(self):
        desc = schema_description()
        assert set(desc) == set(RunConfig.from_mapping({}).data)
        assert desc["ensemble"]["zfs_mean_ghz"]["default"] == 1.027

    def test_seed_spec(self):
        cfg = RunConfig.from_mapping({"seed": 42, "stream_index": 3})
        spec = cfg.seed_spec()
        assert spec.seed == 42 and spec.stream_index == 3
        assert RunConfig.from_mapping({}).seed_spec(fallback=7).seed == 7

    @pytest.mark.parametrize(
        "section, model",
        [
            ({}, EnsembleModel()),
            (
                {"center": {"kind": "normal", "sigma_ghz": 3.0}, "zfs_sigma_ghz": 0.01,
                 "fwhm_mean_mhz": 200.0, "lifetime_ns": 6.1},
                EnsembleModel(centers=NormalCenters(sigma_ghz=3.0), zfs_sigma_ghz=0.01,
                              fwhm_mean_mhz=200.0, lifetime_ns=6.1),
            ),
            (
                {"center": {"half_width_ghz": 4.0, "sigma_ghz": 9.0}, "zfs_mean_ghz": 1.1,
                 "fwhm_sigma_mhz": 50.0},
                EnsembleModel(centers=UniformCenters(half_width_ghz=4.0), zfs_mean_ghz=1.1,
                              fwhm_sigma_mhz=50.0),
            ),
        ],
        ids=["defaults", "normal", "uniform"],
    )
    def test_ensemble_model_reads_each_field(self, section, model):
        assert RunConfig.from_mapping({"ensemble": section}).ensemble_model() == model

    def test_canonical_json_round_trip(self):
        cfg = RunConfig.from_mapping({"seed": 5, "birthday": {"q": 0.01}})
        assert RunConfig.from_json(cfg.canonical_json()).data == cfg.data
