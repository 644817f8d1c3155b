"""The array-backed line table, its CSV round trip, and the line-list parser.

The parser oracle below is the former per-row ``parse_line_list``, kept
verbatim apart from returning plain tuples and from the rule added since:
the first fault in file order is raised, so a width not above 0 is refused
at its own row and a row that ``csv.reader`` refuses is named. On generated
files, with and without faults, the parser must return the same values or
raise the same error (message, row, column).
"""
import csv
import io
import math
import tracemalloc
from unittest.mock import patch

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
        # csv.Error escaped as a traceback; like any fault, it is reported
        # after the bad number on the row above
        long_cell = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(LineListError) as err:
            parse_line_list(f"{HEADER}\na,0,1\n\nb,0,{long_cell}\n")
        assert str(err.value) == f"row 4: field larger than field limit ({csv.field_size_limit()})"
        assert (err.value.row, err.value.column) == (4, None)
        with pytest.raises(LineListError) as err:
            parse_line_list(f"{HEADER}\na,0,x\n\nb,0,{long_cell}\n")
        assert str(err.value) == "row 2, column 'f_a2_ghz': cannot parse 'x' as a number"

    @pytest.mark.parametrize(
        "data, row",
        [(b"\xff" + HEADER.encode(), 1), (f"# c\r\n{HEADER}\na,0,1\xff\n".encode("latin-1"), 3)],
    )
    def test_byte_that_is_not_utf8_names_its_row(self, data, row):
        # a UnicodeDecodeError escaped as a traceback
        with pytest.raises(LineListError) as err:
            parse_line_list(data)
        assert str(err.value) == f"row {row}: cannot decode byte 0xff as UTF-8 (invalid start byte)"
        assert (err.value.row, err.value.column) == (row, None)


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
    assert f'"{table.ids[0]}",' in text and table.ids[0].startswith("#") and ",," in text
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


def _csv_writer_text(table: LineTable, comments=()) -> str:
    """The line-list text of ``table`` written row by row by ``csv.writer``:
    every field quoted where the id starts with "#" after spaces."""
    want = io.StringIO()
    for comment in comments:
        want.write(f"# {comment}\n")
    plain = csv.writer(want, lineterminator="\n")
    quoted = csv.writer(want, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(LINE_LIST_HEADER)
    for i, name in enumerate(table.ids.tolist()):
        cells = [table.a1_ghz[i], table.a2_ghz[i], table.fwhm_a1_mhz[i], table.fwhm_a2_mhz[i]]
        row = [name, *("" if math.isnan(v) else repr(float(v)) for v in cells)]
        (quoted if str(name).lstrip().startswith("#") else plain).writerow(row)
    return want.getvalue()


# ids that csv.writer must quote, or that are not str, beside plain ones
_writer_ids = st.one_of(
    st.text(st.sampled_from('ab#, "\r\n\t'), min_size=1, max_size=5),
    st.sampled_from(["#a", " #b", "\t#c", "c#", "a,b", 'q"q', "r\rr", "n\nn", "e1"]),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.none(),
)
_writer_positions = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1.2345678901234567e17]),
)
_writer_widths = st.one_of(
    st.just(math.nan),
    st.sampled_from([5e-324, 1e16, 3e300]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def writer_tables(draw):
    n = draw(st.integers(0, 12))
    rows = []
    for _ in range(n):
        a1, a2 = sorted(draw(st.lists(_writer_positions, min_size=2, max_size=2, unique=True)))
        rows.append((draw(_writer_ids), a1, a2, draw(_writer_widths), draw(_writer_widths)))
    columns = list(zip(*rows)) or [[]] * 5
    return LineTable(*columns)


@settings(max_examples=300, deadline=None)
@given(writer_tables(), st.integers(1, 5))
def test_writer_matches_csv_writer(table, block):
    with patch.object(emitternet.lineio, "_WRITE_BLOCK", block):
        text = serialize_line_list(table, comments=["config_hash=x"])
    assert text == _csv_writer_text(table, comments=["config_hash=x"])


def _padded_line_list(n: int, quoted: int | None) -> str:
    """n rows of about 1000 characters each, padded with spaces before a
    width; the id of row ``quoted`` (an index) quoted."""
    pad = " " * 950
    rows = [f"e{i},{i}.0,{i}.5,{pad}300,300" for i in range(n)]
    if quoted is not None:
        name = rows[quoted].split(",")[0]
        rows[quoted] = f'"{name}"' + rows[quoted][len(name) :]
    return "\n".join(["# c", HEADER, *rows]) + "\n"


@pytest.mark.parametrize(
    "quoted", [None, 0, -1], ids=["bulk", "row-by-row", "row-by-row-after-bulk"]
)
def test_parse_holds_one_piece_of_lines(monkeypatch, quoted):
    # the whole splitlines() list of these 5 MB of text takes 5 MB; a piece of
    # 16k characters takes about 0.2 MB, beside the parsed ids and values,
    # about 0.5 MB for 5000 rows, which the bulk pass drops when it refuses
    monkeypatch.setattr(emitternet.lineio, "_SPLIT_CHARS", 1 << 14)
    text = _padded_line_list(5000, quoted)
    tracemalloc.start()
    try:
        table = parse_line_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 5000 and table.ids[0] == "e0"
    assert peak < 1_500_000


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
    for lineno, line in numbered[1:]:
        try:
            fields = next(csv.reader(io.StringIO(line)))
        except csv.Error as error:
            raise LineListError(f"row {lineno}: {error}", row=lineno) from None
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
        fwhm = []
        for column, text in zip(("fwhm_a1_mhz", "fwhm_a2_mhz"), fields[3:] or [None, None]):
            width = _parse_optional_float(text, lineno, column)
            if width is not None and width <= 0:
                raise LineListError(
                    f"row {lineno}, column {column!r}: linewidth must be positive, got {text!r}",
                    row=lineno,
                    column=column,
                )
            fwhm.append(width)
        records.append((emitter_id, a1, a2, *fwhm))
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


# --- the same files, split a few lines a piece -------------------------------

# every line break of str.splitlines that a lazy splitter could get wrong
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028", "\v"])
BREAK_NOISE = st.sampled_from(
    ["", "   ", "# comment", "#,a,b", "#e,1,2,300,300", "  #e,1,2", "\r", "\r\n", "\x85"]
    + ["\u2028", "\v", "# c\r# d", " \x85 #e"]
)
# appended to an id, it makes a field over the csv limit, an empty id too:
# csv.reader takes a field of exactly the limit
LONG_TAIL = "1" * (csv.field_size_limit() + 1)


@st.composite
def plain_row(draw, index: int, n_fields: int) -> str:
    """A row the parser can take in bulk, its id quoted now and then."""
    a1 = draw(st.floats(-20, 20))
    fields = [f"e{index}", repr(a1), repr(a1 + draw(st.floats(0.1, 3.0)))]
    fields += [repr(draw(st.floats(1.0, 500.0))) for _ in range(n_fields - 3)]
    if draw(st.integers(0, 19)) == 0:
        fields[0] = f'"{fields[0]}"'
    return ",".join(fields)


@st.composite
def block_files(draw) -> str:
    """Up to 40 rows, most of them plain, so that the bulk pass refuses a
    file at many places, in many pieces; every line break, blank and comment
    lines, quoted fields, 3-field rows and faults in later pieces; and in
    some files one field over the csv limit."""
    lines = draw(st.lists(BREAK_NOISE, max_size=2)) + [HEADER]
    ids: list[str] = []
    n_fields = draw(st.sampled_from([3, 5]))
    n_rows = draw(st.integers(0, 40))
    long_row = draw(st.sampled_from([None] * 9 + [draw(st.integers(0, max(n_rows - 1, 0)))]))
    for index in range(n_rows):
        kind = draw(st.integers(0, 29))
        if kind == 0:
            lines.append(draw(BREAK_NOISE))
        if kind == 1:
            n_fields = 8 - n_fields  # the rows below switch between 3 and 5 fields
        line = draw(data_row(index, ids) if kind <= 3 else plain_row(index, n_fields))
        if index == long_row:
            line = line.replace(",", LONG_TAIL + ",", 1)
        ids.append(line.split(",")[0])
        lines.append(line)
    ends = draw(st.lists(BREAKS, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(block_files())
def test_parser_matches_per_row_oracle_across_blocks(text):
    with patch.object(emitternet.lineio, "_SPLIT_CHARS", 16):
        assert outcome(parse_line_list, text) == outcome(per_row_parse_line_list, text)


# --- of two faults, the one on the earlier row is named ------------------------

# a data row with one fault of each kind, by the row's index; every file's
# first data row is e0, so that an id can repeat
LINE_FAULTS = {
    "field count": lambda i: f"e{i},0,1,300",
    "empty id": lambda i: " ,0,1,300,300",
    "duplicate id": lambda i: "e0,0,1,300,300",
    "bad position": lambda i: f"e{i},x,1,300,300",
    "non-finite position": lambda i: f"e{i},0,inf,300,300",
    "f_a2_ghz <= f_a1_ghz": lambda i: f"e{i},1,0,300,300",
    "bad width": lambda i: f"e{i},0,1,x,300",
    "width not above 0": lambda i: f"e{i},0,1,300,-1",
    "open quote": lambda i: f'e{i},"0,1,300,300',
    "field over the csv limit": lambda i: f"e{i},0,1,300,{LONG_TAIL}",
}


@st.composite
def two_fault_files(draw) -> tuple[str, int]:
    """A line list whose data rows are valid but two, each with a fault of
    any kind, and the file row of the earlier of the two."""
    n_rows = draw(st.integers(3, 12))
    faulty = draw(st.lists(st.integers(1, n_rows - 1), min_size=2, max_size=2, unique=True))
    lines = draw(st.lists(NOISE, max_size=2)) + [HEADER]
    file_rows = []
    for index in range(n_rows):
        lines += draw(st.lists(NOISE, max_size=2))
        fault = draw(st.sampled_from(sorted(LINE_FAULTS)))
        lines.append(LINE_FAULTS[fault](index) if index in faulty else f"e{index},0,1,300,300")
        file_rows.append(len(lines))
    return "\n".join(lines) + "\n", file_rows[min(faulty)]


@settings(max_examples=300, deadline=None)
@given(two_fault_files())
def test_of_two_faults_the_earlier_row_is_named(case):
    text, row = case
    with pytest.raises(LineListError) as err:
        parse_line_list(text)
    assert err.value.row == row
    assert str(err.value).startswith((f"row {row}:", f"row {row},"))


FIXED_FILES = [
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
    # a width not above 0 is reported at its own row, before any later fault
    f"{HEADER}\ne1,0,1,300,0\ne2,0,1,-5,300\n",
    f"{HEADER}\ne1,0,1,-0.0,300\ne2,0,1\ne3,0,x\n",
    f"{HEADER}\ne1,0,1,300, -1e-3 \ne2,0,1,300\n",
    # rows that a bulk pass could get wrong: comment lines with the
    # data rows' comma count, blank ids, 4 and 6 fields, an id seen before
    f"{HEADER}\ne1,0,1,300,300\n#e2,0,1,300,300\ne3,0,1,300,300\n",
    f"{HEADER}\ne1,0,1\n  #e2,0,1\ne3,0,1\n",
    f"{HEADER}\ne1,0,1,300,300\n  ,0,1,300,300\ne3,0,1,300,300\n",
    f"{HEADER}\ne1,0,1,300,300\ne2,0,1,300,300,7\ne3,0,1,300,300\n",
    f"{HEADER}\ne1,0,1,300,300\ne2,0,1,300\ne3,0,1,300,300\ne4,0,1,300,300,7\n",
    f"{HEADER}\ne1,0,1\ne2,0,1\ne3,0,1\ne1,0,1\ne5,0,1\n",
    f"{HEADER}\ne1,0,1\ne2,0,1\ne3,0,1\ne4,0,1\ne3,0,1\n",
    # blank widths, taken in bulk as NaN: whitespace blanks, a literal nan or
    # a junk cell among blanks, a 0 beside a blank
    f"{HEADER}\ne1,0,1,,\ne2,0,1, ,\t\ne3,0,1,300,\ne4,0,1,\xa0,5\n",
    f"{HEADER}\ne1,0,1,,\ne2,0,1,nan,\ne3,0,1,,\n",
    f"{HEADER}\ne1,0,1,,\ne2,0,1,,x\ne3,0,1,,\n",
    f"{HEADER}\ne1,0,1,,0\ne2,0,1,,\n",
]


@pytest.mark.parametrize("text", FIXED_FILES)
def test_parser_matches_per_row_oracle_on_fixed_files(text):
    assert outcome(parse_line_list, text) == outcome(per_row_parse_line_list, text)


@pytest.mark.parametrize("text", FIXED_FILES)
def test_parser_matches_per_row_oracle_on_fixed_files_in_pieces_of_a_line(text):
    # a piece ends at the first line feed from 1 character on: at the end of
    # its first line, or of the line after where that one is empty
    with patch.object(emitternet.lineio, "_SPLIT_CHARS", 1):
        assert outcome(parse_line_list, text) == outcome(per_row_parse_line_list, text)


def _spy_on_bulk_pass(monkeypatch) -> list:
    """The results of every bulk pass from now on, in a list."""
    results = []
    bulk_pass = emitternet.lineio._bulk_pass

    def spy(text):
        results.append(bulk_pass(text))
        return results[-1]

    monkeypatch.setattr(emitternet.lineio, "_bulk_pass", spy)
    return results


def test_blank_widths_stay_on_the_bulk_path(monkeypatch):
    # a file with blank widths was read row by row from its first blank width
    monkeypatch.setattr(emitternet.lineio, "_SPLIT_CHARS", 1 << 10)
    rows = [f"e{i},{i * 0.01!r},{i * 0.01 + 1.027!r},," for i in range(5 * 64 + 7)]
    rows[150] = "e150,1.5,2.527,300.5,310.25"
    text = f"{HEADER}\n" + "\n".join(rows) + "\n"
    assert len(list(emitternet.lineio._pieces(text))) > 6
    results = _spy_on_bulk_pass(monkeypatch)
    assert outcome(parse_line_list, text) == outcome(per_row_parse_line_list, text)
    assert len(results) == 1 and results[0] == emitternet.lineio._row_pass(text)


def test_a_repeated_last_id_is_the_row_pass_error(monkeypatch):
    # the bulk pass finds the repeat only at the end, and reports nothing
    rows = [f"e{i},{i}.0,{i}.5,300,300" for i in range(3000)] + ["e7,0.0,0.5,300,300"]
    text = "# c\n" + "\n".join([HEADER, *rows]) + "\n"
    results = _spy_on_bulk_pass(monkeypatch)
    with pytest.raises(LineListError) as err:
        parse_line_list(text)
    assert str(err.value) == "row 3003: duplicate emitter_id 'e7' (first seen at row 10)"
    assert (err.value.row, err.value.column) == (3003, "emitter_id")
    assert results == [None]
    assert outcome(parse_line_list, text) == outcome(per_row_parse_line_list, text)


def test_a_quote_anywhere_refuses_the_bulk_pass_before_any_line(monkeypatch):
    # a quoted last id, or a '"' in a comment line, sends the file to the
    # row pass at once, which reads the table of the plain file
    rows = [f"e{i},{i}.0,{i}.5,300,300" for i in range(3000)]
    plain = "\n".join([HEADER, *rows]) + "\n"
    quoted_last = plain.replace("\ne2999,", '\n"e2999",')
    for text in (quoted_last, '# a "note"\n' + plain, plain + "# \0\n"):
        with monkeypatch.context() as m:
            m.setattr(emitternet.lineio, "_pieces", None)  # no line is split
            assert emitternet.lineio._bulk_pass(text) is None
        assert parse_line_list(text) == parse_line_list(plain)


# --- the bulk pass alone: nothing or the row pass's table ---------------------


@st.composite
def noisy_plain_files(draw) -> str:
    """Plain rows, all of 3 fields or all of 5, ids with an inner ``#`` now
    and then, and blank and ``#`` comment lines between them: files that the
    bulk pass takes, unless a row is quoted."""
    n_fields = draw(st.sampled_from([3, 5]))
    lines = draw(st.lists(BREAK_NOISE, max_size=2)) + [HEADER]
    for index in range(draw(st.integers(0, 30))):
        lines += draw(st.lists(BREAK_NOISE, max_size=2))
        line = draw(plain_row(index, n_fields))
        if draw(st.integers(0, 4)) == 0:
            line = line.replace(",", f"#{index},", 1)  # e3#3: an inner "#" in the id
        lines.append(line)
    ends = draw(st.lists(BREAKS, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _row_pass_outcome(text):
    try:
        return emitternet.lineio._row_pass(text)
    except LineListError:
        return None


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(line_list_files(), block_files(), noisy_plain_files()),
    st.sampled_from([1, 16, 64, 1 << 20]),
)
def test_bulk_pass_is_nothing_or_the_row_pass_table(text, split_chars):
    with patch.object(emitternet.lineio, "_SPLIT_CHARS", split_chars):
        bulk = emitternet.lineio._bulk_pass(text)
        row = _row_pass_outcome(text)
    # where the row pass raises, the bulk pass must have refused the file
    assert bulk is None or (row is not None and bulk == row)


@settings(max_examples=100, deadline=None)
@given(noisy_plain_files(), st.sampled_from([1, 16, 1 << 20]))
def test_bulk_pass_takes_plain_files_between_comment_lines(text, split_chars):
    with patch.object(emitternet.lineio, "_SPLIT_CHARS", split_chars):
        bulk = emitternet.lineio._bulk_pass(text)
    if '"' not in text:
        assert bulk is not None and bulk == _row_pass_outcome(text)
