"""File formats: line-list CSV, spectrum CSV with JSON sidecar, curve CSV.

All frequency columns are detunings in GHz relative to the reference
frequency, never absolute THz. CSV files written by this tool start with
``#`` comment lines carrying the config hash; parsers skip such lines, so
the documented header row is always the first non-comment line.

Rows move a block at a time. Every table, line lists and spectra too,
is written by one loop over its columns (:func:`_write_csv`), a block of
:data:`_WRITE_BLOCK` rows at a time. Each float64 column of a block is
formatted as a matrix of NUL-padded bytes that equals ``repr`` byte for
byte (:func:`_float_cells`): a cell is decided in numpy, by an exact test
on the shortest decimal that reads back, else written by ``repr``, which
also writes every cell of a column shorter than :data:`_NUMPY_CELLS`,
where it is quicker. Every other column is taken as its list of cells.
Where ``csv.writer`` would quote no cell, the block's text is its text
and float matrices joined with their separators in one byte matrix, the
padding dropped by one compress; any other block goes row by row through
``csv.writer``, with the same float texts.
The parsers split the text into lines a piece of :data:`_SPLIT_CHARS` at
a time, each piece ending just after a line feed, so the rows keep the
numbers of ``text.splitlines()`` without that whole list being held.
:func:`parse_line_list` reads a file whose data rows are all plain and
valid in one bulk pass, a piece's rows at once; it reads any other file in
one pass row by row, which alone decides every error. A text holding a
``"`` or NUL anywhere goes to the row pass before any bulk work.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import LineListError

if TYPE_CHECKING:  # imported where used, so that writing a table loads neither
    from .ple import PleSpectrum
    from .spectral import LineTable

LINE_LIST_HEADER = ["emitter_id", "f_a1_ghz", "f_a2_ghz", "fwhm_a1_mhz", "fwhm_a2_mhz"]
_WIDTH_COLUMNS = LINE_LIST_HEADER[3:]

# Rows formatted at a time when writing, which bounds the memory the cell
# texts take.
_WRITE_BLOCK = 8192
# Characters of text split into lines at a time: it bounds the line texts held.
_SPLIT_CHARS = 1 << 20


def _pieces(text: str) -> Iterator[list[str]]:
    """The lines of ``text.splitlines()``, one list a piece of the text. A
    piece ends just after the first line feed from :data:`_SPLIT_CHARS`
    characters on, so no CR LF pair is cut in two and every other line
    break of ``str.splitlines`` is kept."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SPLIT_CHARS) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """1-based file row and CSV fields of each line of ``text`` that is
    neither blank nor a ``#`` comment. One lazy ``csv.reader`` reads them
    all, so a quoted field left open at the end of a line, which would run
    on into the next, is refused, naming the row's first line; so is a row
    the reader refuses, such as one with a field above
    ``csv.field_size_limit()``."""
    taken: list[int] = []  # file rows of the lines read for the current row

    def lines() -> Iterator[str]:
        for row, line in enumerate(itertools.chain.from_iterable(_pieces(text)), 1):
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


def _text(data: bytes) -> str:
    """``data`` decoded as UTF-8, or a :class:`LineListError` naming the file
    row, as :func:`_pieces` counts rows, of the first byte that cannot be
    decoded."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        # the lines before the byte, and the one that it starts or goes on
        row = len((data[: error.start].decode("utf-8") + "x").splitlines())
        raise LineListError(
            f"row {row}: cannot decode byte {data[error.start]:#04x} as UTF-8 ({error.reason})",
            row=row,
        ) from None


def _data_rows(text: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Check that the first row of ``text`` is ``header`` and return the
    rows below it. Every reader of these rows raises the first fault it
    meets, in file order."""
    rows = _csv_rows(text)
    row, fields = next(rows, (None, None))
    if fields is None:
        raise LineListError("file contains no header row")
    if [h.strip() for h in fields] != header:
        raise LineListError(f"row {row}: header must be exactly {','.join(header)!r}", row=row)
    return rows


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
    width is NaN. Bytes that are not UTF-8 are refused at the row of the
    first one. The rows are then read in order and the first fault is raised
    (with its 1-based file row, comment and header lines counted), whatever
    its kind: a row that ``csv.reader`` refuses, or a row's first failing
    check, in this order: field count, id (non-empty, unique), each position
    (a finite number), f_a2_ghz > f_a1_ghz, each width in column order
    (blank, or a finite number above 0).

    The bulk pass (:func:`_bulk_pass`) reads a file whose data rows are all
    plain and valid and whose text holds no ``"`` or NUL, not even in a
    comment line. Any other file is read from its start by the row pass
    (:func:`_row_pass`), which alone raises errors.
    """
    if isinstance(data, bytes):
        data = _text(data)
    table = _bulk_pass(data)
    return _row_pass(data) if table is None else table


def _row_pass(text: str) -> LineTable:
    """The table of ``text``, read row by row into float columns, or the
    first error of :func:`parse_line_list`."""
    from .spectral import LineTable

    first_seen: dict[str, int] = {}  # emitter id -> file row, in file order
    a1, a2, w1, w2 = columns = [array("d") for _ in range(4)]
    for row, fields in _data_rows(text, LINE_LIST_HEADER):
        if len(fields) not in (3, 5):
            raise LineListError(f"row {row}: expected 3 or 5 fields, got {len(fields)}", row=row)
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
            if width <= 0:
                raise LineListError(
                    f"row {row}, column {column!r}: linewidth must be positive, got {cell!r}",
                    row=row,
                    column=column,
                )
            values.append(width)
    return LineTable(np.fromiter(first_seen, dtype=object, count=len(first_seen)), *columns)


def _bulk_pass(text: str) -> LineTable | None:
    """The table of ``text`` as :func:`_row_pass` reads it, a piece of lines
    at a time, where every line but blank and ``#`` comment lines is the
    header or a plain data row that passes every check; else None. A plain
    row is one that ``csv.reader`` splits at each comma (no line above
    ``csv.field_size_limit()``), with 5 fields in every row or 3 in every
    row. A text that holds a ``"`` or NUL anywhere, a comment line included,
    is refused before any line is read. It raises nothing, so it holds no
    row numbers."""
    from .spectral import LineTable

    if '"' in text or "\0" in text:
        return None
    limit = csv.field_size_limit()
    header, commas = None, set()  # commas: the counts of the data rows
    ids: list[str] = []
    columns = [array("d") for _ in range(4)]
    for lines in _pieces(text):
        lines = [line for line in lines if line.lstrip()[:1] not in ("", "#")]
        if max(map(len, lines), default=0) > limit:
            return None
        if header is None and lines:
            header = lines.pop(0)
            if [h.strip() for h in header.split(",")] != LINE_LIST_HEADER:
                return None
        if not lines:
            continue
        commas.update(map(str.count, lines, itertools.repeat(",")))
        if commas not in ({4}, {2}):
            return None
        k, n, cells = min(commas) + 1, len(lines), ",".join(lines).split(",")
        ids += map(str.strip, cells[0::k])
        try:
            x1, x2 = (np.fromiter(map(float, cells[j::k]), float, n) for j in (1, 2))
        except ValueError:
            return None
        widths = [_width_column(cells[j::k]) for j in range(3, k)]
        if not (np.isfinite([x1, x2]).all() and (x2 > x1).all()) or any(w is None for w in widths):
            return None
        for column, x in zip(columns, (x1, x2, *(widths or [np.full(n, np.nan)] * 2))):
            column.frombytes(x.tobytes())
    unique = set(ids)
    if header is None or "" in unique or len(unique) < len(ids):
        return None
    return LineTable(ids, *columns)


def _width_column(cells: list[str]) -> np.ndarray | None:
    """A piece's cells of one width column as :func:`_number` reads them,
    NaN for a blank cell (empty after strip); None unless every other cell
    is a finite number above 0."""
    given = slice(None)
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:  # a blank cell, or one that is not a number
        texts = list(map(str.strip, cells))
        given = np.fromiter(map(bool, texts), bool, len(cells))
        values = np.full(len(cells), math.nan)
        try:
            values[given] = np.fromiter(map(float, itertools.compress(cells, texts)), float)
        except ValueError:
            return None
    widths = values[given]
    return values if (np.isfinite(widths) & (widths > 0)).all() else None


def _write_csv(
    out: TextIO, header: Sequence[str], columns: Iterable[Sequence], comments: Sequence[str]
) -> None:
    """Write CSV to ``out``: a ``#`` line per comment, the header, then the
    rows of ``columns`` (see :func:`_column`), one block of
    :data:`_WRITE_BLOCK` rows at a time. In a block, each float column is
    formatted by :func:`_float_cells` (``repr``, NaN blank) and every other
    column is taken as its list of cells. Where there are two columns or
    more and the text cells pass :func:`_plain_ids`, the block is one
    :func:`_byte_rows` matrix; any other block goes row by row through
    ``csv.writer``, where a row whose first field starts with ``#`` (after
    spaces) has every field quoted, so that it is not read back as a
    comment line."""
    columns = list(map(_column, columns))
    floats = [column.dtype == np.float64 for column in columns]
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError("table columns must have one length")
    for comment in comments:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for s in range(0, n, _WRITE_BLOCK):
        block = [column[s : s + _WRITE_BLOCK] for column in columns]
        cells = [_float_cells(c) if f else c.tolist() for c, f in zip(block, floats)]
        if len(cells) > 1 and all(f or _plain_ids(c) for c, f in zip(cells, floats)):
            out.write(_byte_rows([c if f else _id_bytes(c) for c, f in zip(cells, floats)]))
        else:
            rows = zip(*(_cell_texts(c) if f else c for c, f in zip(cells, floats)))
            for hashed, group in itertools.groupby(rows, key=_starts_with_hash):
                (quoted if hashed else writer).writerows(group)
        del block, cells  # so that one block at a time is held


def _column(values: Sequence) -> np.ndarray:
    """A table column: a float64 array where ``values`` is one or holds
    floats only, else an object array of its cells, which keeps each
    ``str`` whole and each int at any size (``np.asarray([0, 2**63])`` is
    float64)."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    if all(map(isinstance, values, itertools.repeat(float))):
        return np.asarray(values, dtype=float)
    return np.asarray(values, dtype=object)


def _starts_with_hash(row: Sequence) -> bool:
    return str(row[0]).lstrip().startswith("#")


# Bytes of a formatted float cell: the longest ``repr`` of a double, such
# as "-2.2250738585072014e-308", has 24 characters.
_CELL = 24
# Fewest values of a column that :func:`_float_cells` decides in numpy. Its
# numpy steps cost about 0.2 ms a column before the first value, and ``repr``
# about 0.65 us a value of 16 or 17 digits (2-core host, numpy 2.4.6): on
# such values the two meet between 512 and 768 values, so a shorter column
# is quicker in ``repr`` alone.
_NUMPY_CELLS = 1024
# 10**k for k <= 22 is an exact double, here also split in two halves of
# 26 bits for Dekker's product.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = float(2**27 + 1)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# The four ASCII digits of each of 0000 to 9999, as one uint32.
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_QUADS = _QUADS.view(np.uint32).ravel()


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s = fl(a + b)`` and the rounding error ``a + b - s``, exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _nearest(
    a: np.ndarray, k: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive ``a`` with ``frexp`` exponent ``e``: the integer ``d``
    nearest to ``y = a * 10**k``; whether ``d / 10**k`` reads back as
    ``a``; and where this test cannot tell, a tie.

    Dekker's product gives y exactly as ``hi + lo``, and two sums give the
    residual ``y - d`` exactly as ``u + w`` with ``u = fl(u + w)``. The
    decimals that read back as ``a`` (not a power of two) lie strictly
    within half its gap ``2**(e - 53)`` of it, which in units of y is
    ``half = 10**k * 2**(e - 54)``, an exact double. Where ``|u|`` is 1/2
    (two integers equally near, or one beyond ``d`` nearer) the test cannot
    tell. A residual is never on the half-gap itself: ``y ± half`` is an
    integer only where ``half >= 1``, beyond any residual."""
    t = _POW10[k]
    hi = a * t
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    t_hi, t_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * t_hi - hi) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    d = np.rint(hi)  # hi - d is exact, and so is s - carry below
    s, err = _two_sum(hi - d, lo)
    carry = np.rint(s)
    u, w = _two_sum(s - carry, err)
    half = np.ldexp(t, e - 54)
    size = np.abs(u)
    tie = size == 0.5
    inside = (size < half) | ((size == half) & (np.copysign(w, u) < 0))
    return d.astype(np.int64) + carry.astype(np.int64), inside & ~tie, tie


def _shortest(a: np.ndarray, k: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits ``d`` and scale ``k`` of the decimal ``d / 10**k`` that
    ``repr`` writes for each positive ``a`` (``frexp`` exponent ``e``),
    given ``k`` for 16 significant digits, and a mask of the values
    decided. ``k`` is changed in place.

    ``repr`` takes the fewest significant digits that read back as ``a``,
    and of those the decimal nearest to it. The gap around ``a`` is
    symmetric, so the nearest decimal of p digits reads back whenever any
    of p digits does: 16 digits are tried first, 17 (which always read
    back) where 16 do not, and where 16 do, one digit fewer at a time until
    that fails or ``k`` is 0. A value with a tie at any step is not
    decided."""
    d, good, tie = _nearest(a, k, e)
    more = np.flatnonzero(~good & ~tie)
    k[more] += 1
    d[more], good[more], tie[more] = _nearest(a[more], k[more], e[more])
    fewer = np.flatnonzero(good & (k > 0))
    while len(fewer):
        d_less, took, tied = _nearest(a[fewer], k[fewer] - 1, e[fewer])
        tie[fewer[tied]] = True
        fewer = fewer[took]
        d[fewer] = d_less[took]
        k[fewer] -= 1
        fewer = fewer[k[fewer] > 0]
    return d, good & ~tie


def _fixed_cells(
    cells: np.ndarray,
    rows: np.ndarray,
    negative: np.ndarray,
    d: np.ndarray,
    k: np.ndarray,
    whole: np.ndarray,
) -> None:
    """Write into ``cells[rows]``: ``-`` where ``negative``, the ``whole``
    integer digits of ``d / 10**k`` (``0`` where there are none), ``.``
    and its ``k`` fraction digits (``0`` where ``k`` is 0). ``d`` has at
    most 20 digits, which :data:`_QUADS` writes four at a time. The rows
    are grouped by sign, ``whole`` and ``k``, so that each group copies
    static slices."""
    key = ((negative * 32 + whole) * 32 + k).astype(np.int16)  # int16 sorts by radix
    order = np.argsort(key, kind="stable")
    key, d = key[order], d[order]
    digits = np.empty((len(d), 24), np.uint8)  # 20 digits, "0", then whole uint32s
    quads = d[:, None] // np.array([10**16, 10**12, 10**8, 10**4, 1]) % 10_000
    digits[:, :20].view(np.uint32)[:] = _QUADS[quads]
    digits[:, 20] = ord("0")
    sorted_cells = np.zeros((len(d), _CELL), np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for start, stop in zip(starts, [*starts[1:], len(d)]):
        sign, rest = divmod(int(key[start]), 32 * 32)
        n_whole, n_frac = divmod(rest, 32)
        out, source = sorted_cells[start:stop], digits[start:stop]
        if sign:
            out[:, 0] = ord("-")
        j = sign + max(n_whole, 1)
        zero = source[:, 20:21]
        out[:, sign:j] = source[:, 20 - n_frac - n_whole : 20 - n_frac] if n_whole else zero
        out[:, j] = ord(".")
        out[:, j + 1 : j + 1 + max(n_frac, 1)] = source[:, 20 - n_frac : 20] if n_frac else zero
    cells[rows[order]] = sorted_cells


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float as a NUL-padded row of :data:`_CELL` ASCII
    bytes, as line lists and spectra have always been written; NaN is
    blank.

    A value whose magnitude lies in [1e-4, 1e15), where ``repr`` writes
    fixed notation without an exponent, is decided in numpy by
    :func:`_shortest`, unless it is an integer (whose shortest text
    ``_shortest`` would reach one digit at a time), its ``log10`` is within
    1e-9 of an integer (so that its count of integer digits is in doubt) or
    it is a power of two (whose gap below is half that above). ``repr``
    writes any value not decided there: ±0, ±inf and every value outside
    that range too, and every value of a column shorter than
    :data:`_NUMPY_CELLS`."""
    x = np.asarray(values, dtype=float)
    cells = np.zeros((len(x), _CELL), np.uint8)
    rest = ~np.isnan(x)
    if len(x) >= _NUMPY_CELLS:
        a = np.abs(x)
        mantissa, e = np.frexp(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log10(a)
            clear = np.abs(lg - np.rint(lg)) > 1e-9
        fraction = a != np.floor(a)  # an integer goes to repr
        rows = np.flatnonzero((a >= 1e-4) & (a < 1e15) & fraction & clear & (mantissa != 0.5))
        point = np.floor(lg[rows]).astype(np.intp)  # decimal exponent of each value
        k = 15 - point
        d, decided = _shortest(a[rows], k, e[rows])
        rows, point = rows[decided], point[decided]
        if len(rows):
            negative = (x[rows] < 0).astype(np.intp)
            _fixed_cells(cells, rows, negative, d[decided], k[decided], np.maximum(point + 1, 0))
        rest[rows] = False
    texts = list(map(str.encode, map(repr, x[rest].tolist())))
    if texts:
        cells[rest] = np.array(texts, f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return cells


def _cell_texts(cells: np.ndarray) -> list[str]:
    """The text of each row of a cell matrix of :func:`_float_cells`."""
    return cells.view(f"S{_CELL}").ravel().astype(f"U{_CELL}").tolist()


def _plain_ids(ids: list) -> bool:
    """Whether ``csv.writer`` writes the cells of ``ids`` as they are in
    rows of two fields or more, none of them quoted, where the other cells
    are float texts (which hold none of the characters tested here): every
    cell a ``str`` without ``,``, ``"``, CR, LF or NUL, and none that starts
    with ``#`` after spaces, which would quote its row if it led it."""
    try:
        text = "".join(ids)
    except TypeError:  # an id that is not a str
        return False
    if "," in text or '"' in text or "\r" in text or "\n" in text or "\0" in text:
        return False
    return "#" not in text or not any(cell.lstrip().startswith("#") for cell in ids)


def _byte_rows(fields: Sequence[np.ndarray]) -> str:
    """The CSV text of rows whose fields are the NUL-padded UTF-8 byte rows
    of ``fields`` (one ``(rows, width)`` uint8 matrix a column): each row's
    fields joined by ``,`` and ended by a line feed, built as one byte
    matrix from which a single boolean compress drops the padding."""
    n = len(fields[0])
    rows = np.full((n, sum(f.shape[1] + 1 for f in fields)), ord(","), np.uint8)
    j = 0
    for f in fields:
        rows[:, j : j + f.shape[1]] = f
        j += f.shape[1] + 1
    rows[:, -1] = ord("\n")
    flat = rows.reshape(-1)
    return str(flat[flat != 0], "utf-8", "surrogatepass")


def _id_bytes(ids: list[str]) -> np.ndarray:
    """The UTF-8 bytes of each id, none of which holds a NUL, as a
    NUL-padded row of a uint8 matrix. A lone surrogate passes, as it does
    into a ``str``, so that only writing the text to a file refuses it."""
    encoded = np.array("\0".join(ids).encode("utf-8", "surrogatepass").split(b"\0"))
    return encoded.view(np.uint8).reshape(len(ids), -1)


def _line_columns(records: LineTable) -> list[np.ndarray]:
    return [records.ids, records.a1_ghz, records.a2_ghz, records.fwhm_a1_mhz, records.fwhm_a2_mhz]


def serialize_line_list(records: LineTable, comments: Sequence[str] = ()) -> str:
    """Line-list CSV text of a table, one row per emitter; NaN widths are blank."""
    out = io.StringIO()
    _write_csv(out, LINE_LIST_HEADER, _line_columns(records), comments)
    return out.getvalue()


def read_line_list(path: Path | str) -> LineTable:
    return parse_line_list(Path(path).read_bytes())


def write_line_list(path: Path | str, records: LineTable, comments: Sequence[str] = ()) -> None:
    """Write the text of :func:`serialize_line_list` to ``path``, one block
    of rows at a time."""
    with open(path, "w", encoding="utf-8") as out:
        _write_csv(out, LINE_LIST_HEADER, _line_columns(records), comments)


SPECTRUM_HEADER = ["frequency_ghz", "counts"]


def write_spectrum(path: Path | str, spectrum: PleSpectrum, comments: Sequence[str] = ()) -> None:
    """Two-column spectrum CSV plus a .meta.json sidecar with the dwell time."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as out:
        _write_csv(out, SPECTRUM_HEADER, [spectrum.frequencies_ghz, spectrum.counts], comments)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps({"dwell_time_s": spectrum.dwell_time_s}, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_spectrum(path: Path | str) -> PleSpectrum:
    """Read a spectrum CSV and its ``.meta.json`` sidecar (dwell time 1 s
    without one). Errors give 1-based file rows, as for line lists."""
    from .ple import PleSpectrum

    path = Path(path)
    freqs, counts = array("d"), array("d")
    for row, fields in _data_rows(_text(path.read_bytes()), SPECTRUM_HEADER):
        if len(fields) != 2:
            raise LineListError(f"{path}: row {row}: expected 2 fields", row=row)
        freqs.append(_number(fields[0], row, "frequency_ghz"))
        counts.append(_number(fields[1], row, "counts"))
    dwell = 1.0
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        try:
            dwell = json.loads(sidecar.read_text(encoding="utf-8"))["dwell_time_s"]
            if type(dwell) not in (int, float):  # JSON numbers only: no string, no bool
                raise TypeError
            dwell = float(dwell)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
            raise LineListError(
                f"{sidecar}: needs a JSON object with a numeric 'dwell_time_s'"
            ) from None
    return PleSpectrum(frequencies_ghz=freqs, counts=counts, dwell_time_s=dwell)


def write_table(
    path: Path | str,
    header: Sequence[str],
    columns: Iterable[Sequence],
    comments: Sequence[str] = (),
) -> None:
    """Plot-ready CSV table of ``columns``, of one length, under leading
    comment lines: :func:`_write_csv` into the file at ``path``."""
    with open(path, "w", encoding="utf-8") as out:
        _write_csv(out, header, columns, comments)
