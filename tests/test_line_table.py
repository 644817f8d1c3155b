"""The array-backed line table, its CSV round trip, and the line-list parser.

The parser oracle below is the former per-row ``parse_line_list``, kept
verbatim apart from returning plain tuples and from the rule added since:
only a file that passes every other check is checked for widths not above
0. On generated files, with and without faults, the parser must return the
same values or raise the same error (message, row, column).
"""
import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emitternet.lineio
import emitternet.spectral
from emitternet import (
    DomainError,
    EmitterLines,
    EnsembleModel,
    LineListError,
    LineTable,
    bootstrap_std_error,
    overlap_curve,
    parse_line_list,
    sample_ensemble,
    serialize_line_list,
    summarize_ensemble,
    write_line_list,
)
from emitternet.lineio import LINE_LIST_HEADER

HEADER = ",".join(LINE_LIST_HEADER)


class TestLineTable:
    def test_rows_slices_and_index_arrays(self):
        table = LineTable(["a", "b", "c"], [0.0, 1.0, 2.0], [1.0, 2.5, 3.0], [300.0, np.nan, 5.0])
        assert len(table) == 3
        assert table[1] == EmitterLines("b", 1.0, 2.5, None, None)
        assert table[-1] == EmitterLines("c", 2.0, 3.0, 5.0, None)
        assert list(table[1:]) == [table[1], table[2]]
        assert table[np.array([2, 0])].ids.tolist() == ["c", "a"]
        with pytest.raises(IndexError):
            table[3]

    def test_equality_counts_missing_widths_as_equal(self):
        a = LineTable(["a"], [0.0], [1.0])
        assert a == LineTable.from_rows([EmitterLines("a", 0.0, 1.0)])
        assert a != LineTable(["a"], [0.0], [1.0], [300.0], [300.0])
        assert a != LineTable(["b"], [0.0], [1.0])
        assert LineTable.from_rows(a) == a

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("a1_ghz", np.inf, "emitter 'k': a1_ghz must be finite"),
            ("a2_ghz", np.nan, "emitter 'k': a2_ghz must be finite"),
            ("fwhm_a2_mhz", -np.inf, "emitter 'k': fwhm_a2_mhz must be finite"),
            ("a2_ghz", -5.0, "emitter 'k': a2 (-5.0 GHz) must lie above a1 (10.0 GHz)"),
            ("fwhm_a1_mhz", 0.0, "emitter 'k': linewidths must be positive"),
        ],
    )
    def test_first_bad_row_is_named(self, column, value, message):
        n = 20
        columns = {
            "a1_ghz": np.arange(n, dtype=float),
            "a2_ghz": np.arange(n) + 1.0,
            "fwhm_a1_mhz": np.full(n, 300.0),
            "fwhm_a2_mhz": np.full(n, 300.0),
        }
        ids = [chr(ord("a") + i) for i in range(n)]
        columns[column][10] = value
        columns[column][15] = value  # a later bad row is not the one reported
        with pytest.raises(DomainError) as err:
            LineTable(ids, **columns)
        assert str(err.value) == message

    def test_columns_must_match(self):
        with pytest.raises(DomainError):
            LineTable(["a", "b"], [0.0], [1.0])

    def test_row_widths(self):
        assert EmitterLines("a", 0.0, 1.0).fwhm_a1_mhz is None
        with pytest.raises(DomainError):
            EmitterLines("a", 0.0, 1.0, math.nan, 300.0)
        with pytest.raises(DomainError):
            EmitterLines("a", 0.0, 1.0, -1.0, 300.0)

    def test_sample_ids(self):
        assert sample_ensemble(EnsembleModel(), 3, 1).ids.tolist() == ["e000", "e001", "e002"]
        assert sample_ensemble(EnsembleModel(), 1001, 1).ids[-1] == "e1000"

    def test_ensemble_paths_build_no_row_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an EmitterLines row was built")

        monkeypatch.setattr(emitternet.spectral.EmitterLines, "__post_init__", refuse)
        table = sample_ensemble(EnsembleModel(), 300, 1)
        back = parse_line_list(serialize_line_list(table))
        assert back.ids.tolist() == table.ids.tolist()
        overlap_curve(back[:200], [29.0, 290.0], bootstrap_resamples=100)
        bootstrap_std_error(back, 29.0, resamples=100)
        summarize_ensemble(back)


class TestParseErrors:
    def test_nonpositive_width_names_row_and_column(self):
        # accepted before, and then refused only when a fill value was given
        text = f"# c\n{HEADER}\na,0,1,300,300\nb,2,3,300,0\n"
        with pytest.raises(LineListError) as err:
            parse_line_list(text)
        assert (err.value.row, err.value.column) == (4, "fwhm_a2_mhz")
        assert str(err.value) == "row 4, column 'fwhm_a2_mhz': linewidth must be positive, got '0'"

    def test_open_quote_is_refused(self):
        # one reader reads all lines, so an open quote would swallow the next
        with pytest.raises(LineListError) as err:
            parse_line_list(f'{HEADER}\na,"0,1\nb,0,1\n')
        assert err.value.row == 2

    def test_field_over_csv_limit_is_refused(self):
        # csv.Error escaped as a traceback; like an open quote, it is reported
        # before the bad number on the row above
        long_cell = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(LineListError) as err:
            parse_line_list(f"{HEADER}\na,0,x\n\nb,0,{long_cell}\n")
        assert str(err.value) == f"row 4: field larger than field limit ({csv.field_size_limit()})"
        assert (err.value.row, err.value.column) == (4, None)


# Ids are stripped by the parser, so only stripped ids can round-trip. Some
# start with "#", the comment mark of the format.
_id_texts = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=8
)
ids = st.one_of(_id_texts, _id_texts.map("#".__add__)).filter(lambda s: s == s.strip())
positions = st.floats(allow_nan=False, allow_infinity=False)
widths = st.one_of(st.none(), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@st.composite
def tables(draw):
    names = draw(st.lists(ids, max_size=30, unique=True))
    rows = []
    for name in names:
        a1, a2 = sorted(draw(st.lists(positions, min_size=2, max_size=2, unique=True)))
        rows.append(EmitterLines(name, a1, a2, draw(widths), draw(widths)))
    return LineTable.from_rows(rows)


def test_ids_starting_with_hash_round_trip():
    # Unquoted, "#1,..." would be read back as a comment line and dropped.
    rows = [EmitterLines("#1", 0.0, 1.0, 300.0, 300.0), EmitterLines("a", 0.5, 1.5)]
    table = LineTable.from_rows([*rows, EmitterLines("#", 2.0, 3.0)])
    text = serialize_line_list(table)
    assert '"#1","0.0","1.0","300.0","300.0"' in text.splitlines()
    assert "a,0.5,1.5,," in text.splitlines()
    assert parse_line_list(text) == table


def _hashed_table(n: int) -> LineTable:
    """n rows; every seventh id starts with "#" and every fifth width is NaN."""
    table = sample_ensemble(EnsembleModel(), n, 2)
    ids = [f"#{name}" if i % 7 == 0 else name for i, name in enumerate(table.ids.tolist())]
    widths = np.where(np.arange(n) % 5 == 0, np.nan, table.fwhm_a1_mhz)
    return LineTable(ids, table.a1_ghz, table.a2_ghz, widths, table.fwhm_a2_mhz)


def test_written_file_is_the_serialized_text(tmp_path):
    table = _hashed_table(2 * emitternet.lineio._WRITE_BLOCK + 3)  # three blocks
    path = tmp_path / "lines.csv"
    write_line_list(path, table, comments=["config_hash=x", "seed=2"])
    text = serialize_line_list(table, comments=["config_hash=x", "seed=2"])
    assert path.read_bytes() == text.encode("utf-8")
    assert '"#e00000",' in text and ",," in text
    assert parse_line_list(path.read_bytes()) == table


def test_hash_ids_across_block_boundaries(tmp_path, monkeypatch):
    # blocks of 4 rows: "#" ids end the first block and start the second,
    # the third has "#" only inside an id, the fourth has none
    monkeypatch.setattr(emitternet.lineio, "_WRITE_BLOCK", 4)
    ids = ["a", "b", "c", "#d", "#e", " #f", "g", "h", "i", "j#", "k", "l", "m", "n", "o", "p"]
    n = len(ids)
    widths = np.where(np.arange(n) % 3 == 0, np.nan, 300.0 + np.arange(n))
    table = LineTable(ids, 0.1 * np.arange(n), 0.1 * np.arange(n) + 1.0, widths, widths)
    # each row on its own: every field quoted when the id starts with "#" after spaces
    want = io.StringIO()
    plain = csv.writer(want, lineterminator="\n")
    quoted = csv.writer(want, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(LINE_LIST_HEADER)
    for i, name in enumerate(ids):
        cells = [table.a1_ghz[i], table.a2_ghz[i], widths[i], widths[i]]
        row = [name, *("" if math.isnan(v) else repr(float(v)) for v in cells)]
        (quoted if name.lstrip().startswith("#") else plain).writerow(row)
    text = serialize_line_list(table)
    assert text == want.getvalue()
    assert [line[:5] for line in text.splitlines()[4:7]] == ['"#d",', '"#e",', '" #f"']
    write_line_list(tmp_path / "lines.csv", table)
    assert (tmp_path / "lines.csv").read_bytes() == text.encode("utf-8")


def test_write_holds_one_block_of_rows(tmp_path, monkeypatch):
    # the whole text of these 10000 rows takes 0.8 MB, and building it in
    # one string peaked at 2.3 MB; a block of 64 rows takes a few kB, on top
    # of about 0.2 MB that does not grow with the row count
    monkeypatch.setattr(emitternet.lineio, "_WRITE_BLOCK", 64)
    table = _hashed_table(10_000)
    tracemalloc.start()
    try:
        write_line_list(tmp_path / "lines.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


@settings(max_examples=200, deadline=None)
@given(tables())
def test_serialize_parse_round_trip(table):
    back = parse_line_list(serialize_line_list(table, comments=["config_hash=x"]))
    assert back.ids.tolist() == table.ids.tolist()
    for name in ("a1_ghz", "a2_ghz", "fwhm_a1_mhz", "fwhm_a2_mhz"):
        got, want = getattr(back, name), getattr(table, name)
        assert (np.isnan(got) == np.isnan(want)).all()
        assert (got[~np.isnan(want)] == want[~np.isnan(want)]).all()


# --- the former per-row parser, the oracle for the one-pass one ------------


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise LineListError(
            f"row {row}, column {column!r}: cannot parse {text!r} as a number",
            row=row,
            column=column,
        ) from None
    if not math.isfinite(value):
        raise LineListError(
            f"row {row}, column {column!r}: value must be finite, got {text!r}",
            row=row,
            column=column,
        )
    return value


def _parse_optional_float(text: str, row: int, column: str) -> float | None:
    if text is None or text.strip() == "":
        return None
    return _parse_float(text, row, column)


def per_row_parse_line_list(data: bytes | str) -> list[tuple]:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(data.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise LineListError("file contains no header row")
    header_row, header_line = numbered[0]
    header = next(csv.reader(io.StringIO(header_line)))
    if [h.strip() for h in header] != LINE_LIST_HEADER:
        raise LineListError(
            f"row {header_row}: header must be exactly {','.join(LINE_LIST_HEADER)!r}",
            row=header_row,
        )

    records: list[tuple] = []
    seen: dict[str, int] = {}
    nonpositive = None  # the first width not above 0: (row, column, text)
    for lineno, line in numbered[1:]:
        fields = next(csv.reader(io.StringIO(line)))
        if len(fields) not in (3, 5):
            raise LineListError(
                f"row {lineno}: expected 3 or 5 fields, got {len(fields)}", row=lineno
            )
        emitter_id = fields[0].strip()
        if not emitter_id:
            raise LineListError(f"row {lineno}: emitter_id must be non-empty", row=lineno)
        if emitter_id in seen:
            raise LineListError(
                f"row {lineno}: duplicate emitter_id {emitter_id!r} "
                f"(first seen at row {seen[emitter_id]})",
                row=lineno,
                column="emitter_id",
            )
        seen[emitter_id] = lineno
        a1 = _parse_float(fields[1], lineno, "f_a1_ghz")
        a2 = _parse_float(fields[2], lineno, "f_a2_ghz")
        if a2 <= a1:
            raise LineListError(
                f"row {lineno}: emitter {emitter_id!r} has f_a2_ghz ({a2}) <= f_a1_ghz ({a1})",
                row=lineno,
                column="f_a2_ghz",
            )
        fwhm1 = _parse_optional_float(fields[3], lineno, "fwhm_a1_mhz") if len(fields) == 5 else None
        fwhm2 = _parse_optional_float(fields[4], lineno, "fwhm_a2_mhz") if len(fields) == 5 else None
        for k, (width, column) in enumerate([(fwhm1, "fwhm_a1_mhz"), (fwhm2, "fwhm_a2_mhz")]):
            if nonpositive is None and width is not None and width <= 0:
                nonpositive = (lineno, column, fields[3 + k])
        records.append((emitter_id, a1, a2, fwhm1, fwhm2))
    if nonpositive is not None:
        lineno, column, text = nonpositive
        raise LineListError(
            f"row {lineno}, column {column!r}: linewidth must be positive, got {text!r}",
            row=lineno,
            column=column,
        )
    return records


# --- generated files --------------------------------------------------------

NUMBER_TEXTS = st.one_of(
    st.floats(-20, 20, allow_nan=False).map(repr),
    st.integers(-20, 20).map(str),
    st.sampled_from([" 1.5", "2e-1 ", "+3", "1_0", '"4.25"']),
)
WIDTH_TEXTS = st.one_of(
    st.floats(1.0, 500.0).map(repr),
    st.sampled_from(["", "  ", " 300 ", "3e2"]),
    st.sampled_from(["0", "-5", "-0.0", " -1e-3 "]),
)
BAD_NUMBERS = st.sampled_from(["x", "1.2.3", "--1", "0x10", "one", "1e", ""])
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
FAULTS = ["bad number", "non-finite", "a2 <= a1", "duplicate id", "empty id", "field count"]
NOISE = st.sampled_from(["", "   ", "# comment", "  # indented comment", "#,a,b"])


@st.composite
def data_row(draw, index: int, earlier_ids: list[str]) -> str:
    a1 = draw(NUMBER_TEXTS)
    a2 = repr(float(a1.strip().strip('"')) + draw(st.floats(0.1, 3.0)))
    fields = [f"e{index}", a1, a2]
    if draw(st.booleans()):
        fields += [draw(WIDTH_TEXTS), draw(WIDTH_TEXTS)]
    fault = draw(st.sampled_from(FAULTS + [None] * 12))
    if fault == "bad number":
        fields[draw(st.integers(1, len(fields) - 1))] = draw(BAD_NUMBERS)
    elif fault == "non-finite":
        fields[draw(st.integers(1, len(fields) - 1))] = draw(NON_FINITE)
    elif fault == "a2 <= a1":
        fields[1], fields[2] = fields[2], draw(st.sampled_from([fields[1], fields[2]]))
    elif fault == "duplicate id" and earlier_ids:
        fields[0] = draw(st.sampled_from(earlier_ids))
    elif fault == "empty id":
        fields[0] = draw(st.sampled_from(["", "  "]))
    elif fault == "field count":
        n_fields = draw(st.sampled_from([1, 2, 4, 6]))
        fields = (fields + ["300", "300", "7"])[:n_fields]
    return ",".join(fields)


@st.composite
def line_list_files(draw) -> str:
    lines = draw(st.lists(NOISE, max_size=3)) + [HEADER]
    ids: list[str] = []
    for index in range(draw(st.integers(0, 25))):
        lines += draw(st.lists(NOISE, max_size=2))
        line = draw(data_row(index, ids))
        ids.append(line.split(",")[0])
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n# end\n"]))


def outcome(parse, text):
    try:
        result = parse(text)
    except LineListError as err:
        return ("error", str(err), err.row, err.column)
    if isinstance(result, LineTable):
        result = [
            (e.id, e.a1_ghz, e.a2_ghz, e.fwhm_a1_mhz, e.fwhm_a2_mhz) for e in result
        ]
    return ("ok", result)


@settings(max_examples=300, deadline=None)
@given(line_list_files())
def test_parser_matches_per_row_oracle(text):
    assert outcome(parse_line_list, text) == outcome(per_row_parse_line_list, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n",
        "id,a1,a2\n",
        f"{HEADER}\ne1,0,1\ne2,0,1,2\ne3,x,1\n",
        f"{HEADER}\ne1,x,1\ne2,0,1,2\n",
        f"{HEADER}\ne1,0,1,x,nan\n",
        f"{HEADER}\ne1,0,1\n,0,1\ne1,0,1\n",
        f"{HEADER}\ne1,nan,x\n",
        f"{HEADER}\ne1,5,x\n",
        f"{HEADER}\ne1,5,1\ne2,x,1\n",
        f"{HEADER}\ne1,0,1,,\ne2,0,1,300,\n",
        # a width not above 0 is reported only once every row has passed
        f"{HEADER}\ne1,0,1,300,0\ne2,0,1,-5,300\n",
        f"{HEADER}\ne1,0,1,-0.0,300\ne2,0,1\ne3,0,x\n",
        f"{HEADER}\ne1,0,1,300, -1e-3 \ne2,0,1,300\n",
    ],
)
def test_parser_matches_per_row_oracle_on_fixed_files(text):
    assert outcome(parse_line_list, text) == outcome(per_row_parse_line_list, text)
