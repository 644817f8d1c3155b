"""File formats: line-list CSV, spectrum CSV with JSON sidecar, curve CSV.

All frequency columns are detunings in GHz relative to the reference
frequency, never absolute THz. CSV files written by this tool start with
``#`` comment lines carrying the config hash; parsers skip such lines, so
the documented header row is always the first non-comment line.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from array import array
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import LineListError
from .ple import PleSpectrum
from .spectral import _LINE_COLUMNS, LineTable

LINE_LIST_HEADER = ["emitter_id", "f_a1_ghz", "f_a2_ghz", "fwhm_a1_mhz", "fwhm_a2_mhz"]
_WIDTH_COLUMNS = LINE_LIST_HEADER[3:]

# Rows formatted at a time when writing a line list, which bounds the memory
# the cell texts take.
_WRITE_BLOCK = 8192


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """1-based file row and CSV fields of each line that is neither blank
    nor a ``#`` comment. One lazy ``csv.reader`` reads them all, so a quoted
    field left open at the end of a line, which would run on into the next,
    is refused, naming the row's first line; so is a row the reader
    refuses, such as one with a field above ``csv.field_size_limit()``."""
    taken: list[int] = []  # file rows of the lines read for the current row

    def lines() -> Iterator[str]:
        for row, line in enumerate(text.splitlines(), start=1):
            if line.lstrip()[:1] not in ("", "#"):
                taken.append(row)
                yield line

    try:
        for fields in csv.reader(lines()):
            if len(taken) > 1:
                row = taken[0]
                raise LineListError(f"row {row}: quoted field is not closed on its line", row=row)
            yield taken.pop(), fields
    except csv.Error as error:
        raise LineListError(f"row {taken[0]}: {error}", row=taken[0]) from None


def _drain(rows: Iterator) -> None:
    """Read ``rows`` to the end. The checks of :func:`_csv_rows` cover the
    whole file, so they are reported before any error of a single row: a
    caller that is about to raise calls this first."""
    for _ in rows:
        pass


def _data_rows(text: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """File rows and CSV fields of the rows below the first, which must be
    ``header``. A caller that raises while reading them calls :func:`_drain`
    first."""
    rows = _csv_rows(text)
    row, fields = next(rows, (None, None))
    if fields is None:
        raise LineListError("file contains no header row")
    if [h.strip() for h in fields] != header:
        _drain(rows)
        raise LineListError(f"row {row}: header must be exactly {','.join(header)!r}", row=row)
    yield from rows


def _number(cell: str, row: int, column: str, blank: bool = False) -> float:
    """A cell's value, which must be a finite number; where ``blank``, a
    blank cell is NaN."""
    try:
        value = float(cell)
    except ValueError:
        if blank and not cell.strip():
            return math.nan
        raise LineListError(
            f"row {row}, column {column!r}: cannot parse {cell!r} as a number",
            row=row,
            column=column,
        ) from None
    if not math.isfinite(value):
        raise LineListError(
            f"row {row}, column {column!r}: value must be finite, got {cell!r}",
            row=row,
            column=column,
        )
    return value


def parse_line_list(data: bytes | str) -> LineTable:
    """Parse line-list CSV bytes into a :class:`LineTable`.

    The header row must be exactly ``emitter_id,f_a1_ghz,f_a2_ghz,
    fwhm_a1_mhz,fwhm_a2_mhz``; a data row has 3 or 5 fields, and a blank
    width is NaN. One pass reads the rows in order and raises the first
    failing check (with its 1-based file row, comment and header lines
    counted). A row's checks go: field count, id (non-empty, unique), each
    position (a finite number), f_a2_ghz > f_a1_ghz, each width (a finite
    number or blank). Only a file passing all of these is checked for
    widths that are not positive. The values go straight into float
    columns, so the field strings of one row at a time are held.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    first_seen: dict[str, int] = {}  # emitter id -> file row, in file order
    a1, a2, w1, w2 = columns = [array("d") for _ in _LINE_COLUMNS]
    nonpositive = None  # (row, column, cell) of the first width not above 0
    rows = _data_rows(data, LINE_LIST_HEADER)
    try:
        for row, fields in rows:
            if len(fields) not in (3, 5):
                message = f"row {row}: expected 3 or 5 fields, got {len(fields)}"
                raise LineListError(message, row=row)
            emitter_id = fields[0].strip()
            if not emitter_id:
                raise LineListError(f"row {row}: emitter_id must be non-empty", row=row)
            seen = first_seen.setdefault(emitter_id, row)
            if seen != row:
                raise LineListError(
                    f"row {row}: duplicate emitter_id {emitter_id!r} (first seen at row {seen})",
                    row=row,
                    column="emitter_id",
                )
            x1 = _number(fields[1], row, "f_a1_ghz")
            x2 = _number(fields[2], row, "f_a2_ghz")
            if x2 <= x1:
                raise LineListError(
                    f"row {row}: emitter {emitter_id!r} has f_a2_ghz ({x2}) <= f_a1_ghz ({x1})",
                    row=row,
                    column="f_a2_ghz",
                )
            a1.append(x1)
            a2.append(x2)
            for values, column, cell in zip((w1, w2), _WIDTH_COLUMNS, fields[3:] or ("", "")):
                width = _number(cell, row, column, blank=True)
                if width <= 0 and nonpositive is None:
                    nonpositive = row, column, cell
                values.append(width)
    except LineListError:
        _drain(rows)
        raise
    if nonpositive is not None:
        row, column, cell = nonpositive
        raise LineListError(
            f"row {row}, column {column!r}: linewidth must be positive, got {cell!r}",
            row=row,
            column=column,
        )
    return LineTable(np.fromiter(first_seen, dtype=object, count=len(first_seen)), *columns)


def _write_csv(
    out: TextIO, header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str]
) -> None:
    """Write CSV to ``out``: a ``#`` line per comment, the header, then the
    rows. A row whose first field starts with ``#`` (after spaces) has every
    field quoted, so that it is not read back as a comment line."""
    for comment in comments:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for hashed, group in itertools.groupby(rows, key=_starts_with_hash):
        (quoted if hashed else writer).writerows(group)


def _write_csv_file(
    path: Path | str, header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str]
) -> None:
    """:func:`_write_csv` into the file at ``path``, row by row as ``rows``
    yields them."""
    with open(path, "w", encoding="utf-8") as out:
        _write_csv(out, header, rows, comments)


def _starts_with_hash(row: Sequence) -> bool:
    return str(row[0]).lstrip().startswith("#")


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value, as line lists have always been written; NaN is blank."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def _line_list_rows(records: LineTable) -> Iterator[tuple]:
    """The rows of a table, formatted one block of :data:`_WRITE_BLOCK` at a time."""
    for s in range(0, len(records), _WRITE_BLOCK):
        block = records[s : s + _WRITE_BLOCK]
        cells = (_float_texts(getattr(block, name)) for name in _LINE_COLUMNS)
        yield from zip(block.ids.tolist(), *cells)


def serialize_line_list(records: LineTable, comments: Sequence[str] = ()) -> str:
    """Line-list CSV text of a table, one row per emitter; NaN widths are blank."""
    out = io.StringIO()
    _write_csv(out, LINE_LIST_HEADER, _line_list_rows(records), comments)
    return out.getvalue()


def read_line_list(path: Path | str) -> LineTable:
    return parse_line_list(Path(path).read_bytes())


def write_line_list(path: Path | str, records: LineTable, comments: Sequence[str] = ()) -> None:
    """Write the text of :func:`serialize_line_list` to ``path``, one block
    of rows at a time."""
    _write_csv_file(path, LINE_LIST_HEADER, _line_list_rows(records), comments)


SPECTRUM_HEADER = ["frequency_ghz", "counts"]


def write_spectrum(path: Path | str, spectrum: PleSpectrum, comments: Sequence[str] = ()) -> None:
    """Two-column spectrum CSV plus a .meta.json sidecar with the dwell time."""
    path = Path(path)
    rows = zip(*(map(repr, x.tolist()) for x in (spectrum.frequencies_ghz, spectrum.counts)))
    _write_csv_file(path, SPECTRUM_HEADER, rows, comments)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps({"dwell_time_s": spectrum.dwell_time_s}, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_spectrum(path: Path | str) -> PleSpectrum:
    """Read a spectrum CSV and its ``.meta.json`` sidecar (dwell time 1 s
    without one). Errors give 1-based file rows, as for line lists."""
    path = Path(path)
    freqs, counts = array("d"), array("d")
    rows = _data_rows(path.read_text(encoding="utf-8"), SPECTRUM_HEADER)
    try:
        for row, fields in rows:
            if len(fields) != 2:
                raise LineListError(f"{path}: row {row}: expected 2 fields", row=row)
            freqs.append(_number(fields[0], row, "frequency_ghz"))
            counts.append(_number(fields[1], row, "counts"))
    except LineListError:
        _drain(rows)
        raise
    dwell = 1.0
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        try:
            dwell = float(json.loads(sidecar.read_text(encoding="utf-8"))["dwell_time_s"])
        except (ValueError, KeyError, TypeError):
            raise LineListError(
                f"{sidecar}: needs a JSON object with a numeric 'dwell_time_s'"
            ) from None
    return PleSpectrum(frequencies_ghz=freqs, counts=counts, dwell_time_s=dwell)


def write_table(
    path: Path | str, header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str] = ()
) -> None:
    """Generic plot-ready CSV table with leading comment lines."""
    rows = ([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    _write_csv_file(path, header, rows, comments)
