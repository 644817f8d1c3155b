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
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import LineListError
from .ple import PleSpectrum
from .spectral import _LINE_COLUMNS, LineTable, _first_failure

LINE_LIST_HEADER = ["emitter_id", "f_a1_ghz", "f_a2_ghz", "fwhm_a1_mhz", "fwhm_a2_mhz"]

# Rows formatted at a time when writing a line list, which bounds the memory
# the cell texts take.
_WRITE_BLOCK = 8192


def _data_rows(text: str, header: list[str]) -> tuple[list[int], list[list[str]]]:
    """1-based file rows and CSV fields of the data lines below ``header``.

    Blank and ``#`` comment lines are skipped; the first other line must be
    ``header``. One ``csv.reader`` reads all lines, so a quoted field left
    open at the end of a line, which would run on into the next, is refused.
    """
    lines = text.splitlines()
    stripped = map(str.lstrip, lines)
    linenos = [k for k, line in enumerate(stripped, start=1) if line[:1] not in ("", "#")]
    lines = [lines[k - 1] for k in linenos]
    reader = csv.reader(lines)
    rows = list(reader)
    if reader.line_num != len(rows):
        reader = csv.reader(lines)
        k = next(k for k, _ in enumerate(reader) if reader.line_num != k + 1)
        raise LineListError(
            f"row {linenos[k]}: quoted field is not closed on its line", row=linenos[k]
        )
    if not rows:
        raise LineListError("file contains no header row")
    if [h.strip() for h in rows[0]] != header:
        raise LineListError(
            f"row {linenos[0]}: header must be exactly {','.join(header)!r}", row=linenos[0]
        )
    return linenos[1:], rows[1:]


def _columns(rows: list[list[str]], n_fields: tuple[int, ...]) -> tuple[list[tuple[str, ...]], int]:
    """Cells by column of the rows before the first whose field count is not
    in ``n_fields``, padded with blank cells to ``max(n_fields)`` columns,
    and the index of that row (``len(rows)`` if there is none)."""
    miscounted = ~np.isin(np.fromiter(map(len, rows), dtype=int, count=len(rows)), n_fields)
    m = int(miscounted.argmax()) if miscounted.any() else len(rows)
    columns = list(itertools.zip_longest(*rows[:m], fillvalue=""))
    return columns + [("",) * m] * (max(n_fields) - len(columns)), m


def _number_column(
    cells: Sequence[str], linenos: list[int], column: str, width: bool = False
) -> tuple[np.ndarray, list[tuple]]:
    """A column's float values and its checks, in order: a cell that is not
    a number, then one that is not finite. For a ``width``, a blank cell is
    NaN and fails no check, and a third check finds values not above 0.
    """
    n = len(cells)
    blank = np.zeros(n, dtype=bool)
    first_bad = n
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=n)
    except ValueError:
        # Blank or bad cells: go cell by cell, up to the first bad one.
        values = np.full(n, np.nan)
        for k, cell in enumerate(cells):
            if width and not cell.strip():
                blank[k] = True
                continue
            try:
                values[k] = float(cell)
            except ValueError:
                first_bad = k
                break

    def where(k: int) -> str:
        return f"row {linenos[k]}, column {column!r}"

    # Cells after the first bad one are NaN and fail the finite check, but
    # that cell's row comes first, so they are never reported.
    checks = [
        (np.arange(n) == first_bad, lambda k: f"cannot parse {cells[k]!r} as a number"),
        (~np.isfinite(values) & ~blank, lambda k: f"value must be finite, got {cells[k]!r}"),
        (values <= 0, lambda k: f"linewidth must be positive, got {cells[k]!r}"),
    ]
    return values, [
        (mask, column, lambda k, message=message: f"{where(k)}: {message(k)}")
        for mask, message in checks[: 3 if width else 2]
    ]


def _raise_first(linenos: list[int], checks: list[tuple]) -> None:
    """Raise the error of the earliest row that fails a check; within that
    row, of the first check it fails. A check is a mask of the rows failing
    it, the column it blames (or None) and a row's error message."""
    failure = _first_failure([mask for mask, _, _ in checks])
    if failure is not None:
        k, check = failure
        _, column, message = checks[check]
        raise LineListError(message(k), row=linenos[k], column=column)


def parse_line_list(data: bytes | str) -> LineTable:
    """Parse line-list CSV bytes into a :class:`LineTable`.

    The header row must be exactly ``emitter_id,f_a1_ghz,f_a2_ghz,
    fwhm_a1_mhz,fwhm_a2_mhz``; a data row has 3 or 5 fields, and a blank
    width is NaN. Whole columns are checked at once. The error (with its
    1-based file row, comment and header lines counted) is that of the first
    bad row, whose checks go: field count, id (non-empty, unique), each
    position (a finite number), f_a2_ghz > f_a1_ghz, each width (a finite
    number or blank). Only a file passing all of these is checked for
    widths that are not positive.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    linenos, rows = _data_rows(data, LINE_LIST_HEADER)
    columns, m = _columns(rows, (3, 5))
    ids = np.array(list(map(str.strip, columns[0])), dtype=object)
    first_seen = dict(zip(reversed(ids.tolist()), range(m - 1, -1, -1)))
    first = np.fromiter(map(first_seen.__getitem__, ids), dtype=int, count=m)
    a1, a1_checks = _number_column(columns[1], linenos, "f_a1_ghz")
    a2, a2_checks = _number_column(columns[2], linenos, "f_a2_ghz")
    w1, w1_checks = _number_column(columns[3], linenos, "fwhm_a1_mhz", width=True)
    w2, w2_checks = _number_column(columns[4], linenos, "fwhm_a2_mhz", width=True)

    def row(k: int) -> str:
        return f"row {linenos[k]}"

    def duplicate(k: int) -> str:
        return f"{row(k)}: duplicate emitter_id {ids[k]!r} (first seen at {row(first[k])})"

    def inverted(k: int) -> str:
        a1_k, a2_k = float(a1[k]), float(a2[k])
        return f"{row(k)}: emitter {ids[k]!r} has f_a2_ghz ({a2_k}) <= f_a1_ghz ({a1_k})"

    _raise_first(
        linenos,
        [
            (ids == "", None, lambda k: f"{row(k)}: emitter_id must be non-empty"),
            (first != np.arange(m), "emitter_id", duplicate),
            *a1_checks,
            *a2_checks,
            (a2 <= a1, "f_a2_ghz", inverted),
            *w1_checks[:2],
            *w2_checks[:2],
        ],
    )
    if m < len(rows):
        raise LineListError(f"{row(m)}: expected 3 or 5 fields, got {len(rows[m])}", row=linenos[m])
    _raise_first(linenos, [w1_checks[2], w2_checks[2]])
    return LineTable(ids, a1, a2, w1, w2)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str]) -> str:
    """CSV text: a ``#`` line per comment, the header, then the rows. A row
    whose first field starts with ``#`` (after spaces) has every field
    quoted, so that it is not read back as a comment line."""
    out = io.StringIO()
    for comment in comments:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for hashed, group in itertools.groupby(rows, key=_starts_with_hash):
        (quoted if hashed else writer).writerows(group)
    return out.getvalue()


def _starts_with_hash(row: Sequence) -> bool:
    return str(row[0]).lstrip().startswith("#")


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value, as line lists have always been written; NaN is blank."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def serialize_line_list(records: LineTable, comments: Sequence[str] = ()) -> str:
    """Line-list CSV text of a table, one row per emitter; NaN widths are blank."""
    blocks = (records[s : s + _WRITE_BLOCK] for s in range(0, len(records), _WRITE_BLOCK))
    rows = (
        zip(b.ids.tolist(), *(_float_texts(getattr(b, name)) for name in _LINE_COLUMNS))
        for b in blocks
    )
    return _csv_text(LINE_LIST_HEADER, itertools.chain.from_iterable(rows), comments)


def read_line_list(path: Path | str) -> LineTable:
    return parse_line_list(Path(path).read_bytes())


def write_line_list(path: Path | str, records: LineTable, comments: Sequence[str] = ()) -> None:
    Path(path).write_text(serialize_line_list(records, comments), encoding="utf-8")


SPECTRUM_HEADER = ["frequency_ghz", "counts"]


def write_spectrum(path: Path | str, spectrum: PleSpectrum, comments: Sequence[str] = ()) -> None:
    """Two-column spectrum CSV plus a .meta.json sidecar with the dwell time."""
    path = Path(path)
    rows = zip(*(map(repr, x.tolist()) for x in (spectrum.frequencies_ghz, spectrum.counts)))
    path.write_text(_csv_text(SPECTRUM_HEADER, rows, comments), encoding="utf-8")
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps({"dwell_time_s": spectrum.dwell_time_s}, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_spectrum(path: Path | str) -> PleSpectrum:
    """Read a spectrum CSV and its ``.meta.json`` sidecar (dwell time 1 s
    without one). Errors give 1-based file rows, as for line lists."""
    path = Path(path)
    linenos, rows = _data_rows(path.read_text(encoding="utf-8"), SPECTRUM_HEADER)
    columns, m = _columns(rows, (2,))
    freqs, freq_checks = _number_column(columns[0], linenos, "frequency_ghz")
    counts, count_checks = _number_column(columns[1], linenos, "counts")
    _raise_first(linenos, [*freq_checks, *count_checks])
    if m < len(rows):
        raise LineListError(f"{path}: row {linenos[m]}: expected 2 fields", row=linenos[m])
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
    Path(path).write_text(_csv_text(header, rows, comments), encoding="utf-8")
