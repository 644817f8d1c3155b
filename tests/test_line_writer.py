"""The numpy float formatter of ``lineio`` and the table writer built on it.

``_float_cells`` must give ``repr`` byte for byte, and the writer must give
the text of the former writers, which formatted each float with ``repr``
and joined Python strings. The former line-list writer and the former
``write_table`` are kept below verbatim as the oracles, apart from their
imports, the name of ``write_table`` and their block size, which is a
parameter.
"""
import csv
import io
import itertools
import math
import struct
from pathlib import Path
from typing import Iterator, Sequence, TextIO, Iterable
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emitternet.lineio
from emitternet import EnsembleModel, LineTable, sample_ensemble, serialize_line_list
from emitternet.lineio import (
    LINE_LIST_HEADER,
    _NUMPY_CELLS,
    _cell_texts,
    _float_cells,
    write_spectrum,
    write_table,
)
from emitternet.overlap import birthday_threshold, histogram, overlap_curve
from emitternet.ple import PleSpectrum
from emitternet.spectral import _LINE_COLUMNS

_WRITE_BLOCK = 4096


# --- the former writer, verbatim ----------------------------------------


def _write_csv(
    out: TextIO,
    header: Sequence[str],
    blocks: Iterable[Sequence[Sequence]],
    comments: Sequence[str],
) -> None:
    """Write CSV to ``out``: a ``#`` line per comment, the header, then the
    rows of each block, a block being a list of columns of equal length. A
    block that :func:`_plain_text` can write goes in one piece; any other
    goes row by row through ``csv.writer``, where a row whose first field
    starts with ``#`` (after spaces) has every field quoted, so that it is
    not read back as a comment line."""
    for comment in comments:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for columns in blocks:
        text = _plain_text(columns)
        if text is not None:
            out.write(text)
        else:
            for hashed, group in itertools.groupby(zip(*columns), key=_starts_with_hash):
                (quoted if hashed else writer).writerows(group)
        del columns, text  # so that one block at a time is held


def _plain_text(columns: Sequence[Sequence]) -> str | None:
    """The CSV text of the rows of ``columns``, built by one ``"".join``
    over the cells interleaved with their separators; or None where
    ``csv.writer`` would write it otherwise or quote a row: a cell that is
    not a ``str`` or holds ``,``, ``"``, CR, LF or NUL, fewer than two
    columns, or a first field that starts with ``#`` after spaces."""
    k = len(columns)
    if k < 2:
        return None
    first, n = columns[0], len(columns[0])
    try:
        if "#" in "".join(first) and any(cell.lstrip().startswith("#") for cell in first):
            return None
        flat = [","] * (2 * k * n)
        flat[2 * k - 1 :: 2 * k] = itertools.repeat("\n", n)
        for j, column in enumerate(columns):
            flat[2 * j :: 2 * k] = column
        text = "".join(flat)
    except TypeError:  # a cell that is not a str
        return None
    if text.count(",") != (k - 1) * n or text.count("\n") != n:
        return None
    if '"' in text or "\r" in text or "\0" in text:
        return None
    return text


def _starts_with_hash(row: Sequence) -> bool:
    return str(row[0]).lstrip().startswith("#")


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value, as line lists have always been written; NaN is blank."""
    texts = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        texts[i] = ""
    return texts


def _line_list_blocks(records: LineTable) -> Iterator[list[list[str]]]:
    """The columns of a table's rows, formatted one block of :data:`_WRITE_BLOCK` at a time."""
    for s in range(0, len(records), _WRITE_BLOCK):
        block = records[s : s + _WRITE_BLOCK]
        yield [block.ids.tolist(), *(_float_texts(getattr(block, name)) for name in _LINE_COLUMNS)]


def _former_line_list(records: LineTable, comments: Sequence[str] = ()) -> str:
    """Line-list CSV text of a table, one row per emitter; NaN widths are blank."""
    out = io.StringIO()
    _write_csv(out, LINE_LIST_HEADER, _line_list_blocks(records), comments)
    return out.getvalue()


def _write_csv_file(
    path: Path | str,
    header: Sequence[str],
    blocks: Iterable[str | Sequence[Sequence]],
    comments: Sequence[str],
) -> None:
    """:func:`_write_csv` into the file at ``path``, block by block as
    ``blocks`` yields them."""
    with open(path, "w", encoding="utf-8") as out:
        _write_csv(out, header, blocks, comments)


def _former_write_table(
    path: Path | str, header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str] = ()
) -> None:
    """Generic plot-ready CSV table with leading comment lines; the rows
    have one length."""
    rows = ([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    blocks = iter(lambda: list(zip(*itertools.islice(rows, _WRITE_BLOCK), strict=True)), [])
    _write_csv_file(path, header, blocks, comments)


# --- the formatter ------------------------------------------------------


def _repr_texts(values) -> list[str]:
    return ["" if math.isnan(v) else repr(v) for v in np.asarray(values, float).tolist()]


def _assert_cells_are_repr(values) -> None:
    """The cells of ``values`` equal ``repr``, each decided in numpy where it
    can be, however short the column."""
    x = np.asarray(values, dtype=float)
    with patch.object(emitternet.lineio, "_NUMPY_CELLS", 0):
        cells = _float_cells(x)
    assert cells.shape == (len(x), 24) and cells.dtype == np.uint8
    got, want = _cell_texts(cells), _repr_texts(x)
    wrong = [(v.hex(), g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


def _steps(value: float, count: int) -> list[float]:
    """``value`` and its ``count`` neighbours on each side, in ulps."""
    out, up, down = [value], value, value
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def _edge_values() -> list[float]:
    values = []
    for base in [10.0**p for p in range(-6, 19)] + [2.0**p for p in range(-20, 60)]:
        values += _steps(base, 3)
    values += _steps(1e-4, 5) + _steps(1e15, 5)
    values += [float(2**53 + i) for i in range(-6, 7)]
    values += [0.1, 0.2, 0.3, 0.7, 1.1, 2.675, 1e-3, 5e-4, 123.0, 1230.0, 999999999999999.9]
    values += [0.30000000000000004, 9.999999999999998, 99.99999999999999, 1e14 + 0.5]
    values += [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [math.inf, -math.inf, math.nan]
    return values + [-v for v in values]


class TestFloatCells:
    def test_edge_values(self):
        _assert_cells_are_repr(_edge_values())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, patterns):
        values = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in patterns]
        _assert_cells_are_repr(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e15), min_size=1, max_size=64), st.booleans())
    def test_fixed_notation_range(self, values, negative):
        _assert_cells_are_repr([-v if negative else v for v in values])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-20, 16), min_size=1, max_size=32), st.integers(0, 2**32 - 1))
    def test_short_decimals(self, places, seed):
        # a decimal of few digits is the case that needs the most steps down
        rng = np.random.default_rng(seed)
        values = [round(float(rng.uniform(-1e6, 1e6)), p) for p in places]
        _assert_cells_are_repr(values)

    def test_a_million_seeded_values_across_all_exponents(self):
        rng = np.random.default_rng(20241019)
        n = 1 << 19
        mantissas = rng.integers(0, 1 << 52, 2 * n, dtype=np.uint64)
        # half over every exponent, half where repr writes fixed notation
        exponents = np.concatenate(
            [rng.integers(0, 2047, n), rng.integers(1023 - 14, 1023 + 50, n)]
        ).astype(np.uint64)
        signs = rng.integers(0, 2, 2 * n, dtype=np.uint64)
        bits = (signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas
        values = bits.view(np.float64)
        assert len(values) >= 1_000_000
        for chunk in np.array_split(values, 8):
            _assert_cells_are_repr(chunk)

    def test_ties_are_left_to_repr(self):
        # x = j / 4 (j odd) in [2**49, 1e15): 10 x is a half-integer whose two
        # nearest integers both read back, so _nearest cannot pick one alone
        rng = np.random.default_rng(7)
        j = rng.integers(2**51, 4 * 10**15, 20_000) | 1
        x = j / 4
        assert (x * 4 == j).all()
        d, good, tie = emitternet.lineio._nearest(x, np.ones(len(x), np.intp), np.frexp(x)[1])
        assert tie.all() and not good.any()
        _assert_cells_are_repr(np.concatenate([x, -x]))

    def test_empty_column(self):
        assert _float_cells(np.array([])).shape == (0, 24)

    @pytest.mark.parametrize("kind", ["long-digits", "counts"])
    def test_both_sides_of_the_threshold(self, kind):
        rng = np.random.default_rng(11)
        for n in (1, 10, _NUMPY_CELLS - 1, _NUMPY_CELLS, _NUMPY_CELLS + 1, 3 * _NUMPY_CELLS):
            x = rng.uniform(-3.0, 3.0, n) if kind == "long-digits" else rng.poisson(50.0, n) * 1.0
            got = _cell_texts(_float_cells(x))
            assert got == [repr(v) for v in x.tolist()], n

    def test_a_short_column_is_left_to_repr(self):
        # below the threshold no value reaches the numpy steps
        x = np.random.default_rng(12).uniform(-3.0, 3.0, _NUMPY_CELLS - 1)
        with patch.object(emitternet.lineio, "_shortest", side_effect=AssertionError):
            got = _cell_texts(_float_cells(x))
            with pytest.raises(AssertionError):
                _float_cells(np.append(x, 1.5))
        assert got == [repr(v) for v in x.tolist()]

    def test_integers_are_left_to_repr(self):
        # _shortest would reach an integer's text one digit at a time
        x = np.random.default_rng(13).poisson(50.0, 2 * _NUMPY_CELLS) * 1.0
        x[::3] += 0.5
        shortest = emitternet.lineio._shortest
        with patch.object(emitternet.lineio, "_shortest", wraps=shortest) as spy:
            got = _cell_texts(_float_cells(x))
        assert got == [repr(v) for v in x.tolist()]
        (call,) = spy.call_args_list
        assert len(call.args[0]) and (call.args[0] % 1 == 0.5).all()


# --- the writer ---------------------------------------------------------


def _table(ids, seed: int = 3) -> LineTable:
    """Sampled lines under ``ids``; every fifth a1 width and every third a2 width NaN."""
    n = len(ids)
    table = sample_ensemble(EnsembleModel(), n, seed)
    w1 = np.where(np.arange(n) % 5 == 0, np.nan, table.fwhm_a1_mhz)
    w2 = np.where(np.arange(n) % 3 == 1, np.nan, table.fwhm_a2_mhz)
    return LineTable(ids, table.a1_ghz, table.a2_ghz, w1, w2)


_ID_KINDS = {
    "plain": lambda i: f"e{i:05d}",
    "hash": lambda i: f"#{i}" if i % 7 == 0 else f"e{i}",
    "inner-hash": lambda i: f"e#{i}",
    "non-ascii": lambda i: f"Ś{i}é" if i % 2 else f"emitter-{i}-ø",
    "comma": lambda i: f"e,{i}" if i % 11 == 0 else f"e{i}",
    "quote": lambda i: f'e"{i}' if i % 13 == 5 else f"e{i}",
    "space-hash": lambda i: f" #{i}" if i % 17 == 3 else f"e{i}",
}


class TestWriterEqualsFormerWriter:
    @pytest.mark.parametrize("kind", sorted(_ID_KINDS))
    @pytest.mark.parametrize("n, block", [(1, 4), (9, 4), (50, 16), (3000, 1024)])
    def test_ids_and_block_boundaries(self, kind, n, block):
        table = _table([_ID_KINDS[kind](i) for i in range(n)])
        with patch.object(emitternet.lineio, "_WRITE_BLOCK", block):
            text = serialize_line_list(table, comments=["config_hash=x", "seed=3"])
        assert text == _former_line_list(table, comments=["config_hash=x", "seed=3"])

    def test_one_odd_block_among_plain_ones(self):
        # only the third block of four holds an id that is quoted
        ids = [f"e{i}" for i in range(40)]
        ids[25] = "#25"
        table = _table(ids)
        with patch.object(emitternet.lineio, "_WRITE_BLOCK", 10):
            text = serialize_line_list(table)
        assert text == _former_line_list(table)
        assert '"#25",' in text

    def test_ids_that_are_not_str(self):
        table = LineTable([1, "b", 3.5], [0.0, 1.0, 2.0], [1.5, 2.5, 3.5])
        assert serialize_line_list(table) == _former_line_list(table)

    def test_a_lone_surrogate_in_an_id(self, tmp_path):
        # a str holds it, and only the UTF-8 file refuses it
        table = LineTable(["a\ud800b", "c"], [0.0, 1.0], [1.5, 2.5])
        assert serialize_line_list(table) == _former_line_list(table)
        with pytest.raises(UnicodeEncodeError):
            emitternet.lineio.write_line_list(tmp_path / "lines.csv", table)

    def test_empty_table(self):
        table = LineTable([], [], [])
        assert serialize_line_list(table) == _former_line_list(table)

    def test_a_sampled_ensemble_of_1e5_rows(self):
        table = sample_ensemble(EnsembleModel(), 100_000, 1)
        assert serialize_line_list(table) == _former_line_list(table)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(st.sampled_from('ab#, "é\t\r\n'), max_size=4),
                st.floats(-1e20, 1e20),
                st.floats(1e-300, 1e300),
                st.one_of(st.just(math.nan), st.floats(5e-324, 1e300)),
                st.one_of(st.just(math.nan), st.floats(5e-324, 1e300)),
            ),
            max_size=12,
        ),
        st.integers(1, 5),
    )
    def test_generated_tables(self, rows, block):
        ids, a1, gap, w1, w2 = (list(c) for c in zip(*rows)) if rows else ([],) * 5
        a2 = [x + g if x + g > x else math.nextafter(x, math.inf) for x, g in zip(a1, gap)]
        table = LineTable(ids, a1, a2, w1, w2)
        with patch.object(emitternet.lineio, "_WRITE_BLOCK", block):
            text = serialize_line_list(table)
        assert text == _former_line_list(table)


def _assert_table_is_former(tmp_path, header, columns, rows, block=None) -> str:
    """``write_table`` of ``columns`` writes the bytes that the former
    ``write_table`` wrote of ``rows``; returns that text."""
    comments = ["emitternet 0.1.0", "config_hash=x"]
    _former_write_table(tmp_path / "former.csv", header, rows, comments)
    with patch.object(emitternet.lineio, "_WRITE_BLOCK", block or emitternet.lineio._WRITE_BLOCK):
        write_table(tmp_path / "table.csv", header, columns, comments)
    want = (tmp_path / "former.csv").read_bytes()
    assert (tmp_path / "table.csv").read_bytes() == want
    return want.decode("utf-8")


class TestTableEqualsFormerTable:
    def test_histogram(self, tmp_path):
        # float, float, int: the int column sends each block through csv.writer
        table = sample_ensemble(EnsembleModel(), 3000, 2)
        hist = histogram(table.zfs_ghz, 0.001)
        assert len(hist.counts) > 100
        edges = hist.bin_edges
        columns = [edges[:-1], edges[1:], hist.counts]
        rows = zip(edges, edges[1:], hist.counts)
        _assert_table_is_former(tmp_path, ["bin_low", "bin_high", "count"], columns, rows)

    def test_int_and_float_curve(self, tmp_path):
        curve = birthday_threshold(1e-6, 0.99).curve
        assert len(curve) > 2 * _NUMPY_CELLS
        header = ["n_emitters", "collision_probability"]
        _assert_table_is_former(tmp_path, header, list(zip(*curve)), curve)

    def test_float_curve(self, tmp_path):
        table = sample_ensemble(EnsembleModel(), 200, 3)
        curve = overlap_curve(table, [10.0, 29.0, 60.0], bootstrap_resamples=100, seed=1)
        columns = [curve.windows_mhz, curve.probabilities, curve.std_errors]
        header = ["window_mhz", "probability", "std_error"]
        _assert_table_is_former(tmp_path, header, columns, zip(*columns))

    def test_scene(self, tmp_path):
        positions = np.random.default_rng(4).uniform(0.0, 1.0, (1720, 3)) * [20.0, 20.0, 10.0]
        header = ["x_um", "y_um", "z_um"]
        _assert_table_is_former(tmp_path, header, positions.T, positions.tolist())

    def test_blocks_across_the_threshold(self, tmp_path):
        # blocks of 1500, 1500 and 1000 rows: the last one is below the threshold
        rng = np.random.default_rng(5)
        n = 4000
        long_digits = rng.uniform(-1e3, 1e3, n)
        counts = rng.poisson(20.0, n) * 1.0
        steps = np.arange(n) * 0.025 - 7.0
        ints = rng.integers(-(2**40), 2**40, n)
        columns = [long_digits, counts, steps, ints]
        rows = zip(*(c.tolist() for c in columns))
        assert 1000 < _NUMPY_CELLS < 1500
        text = _assert_table_is_former(tmp_path, ["a", "b", "c", "d"], columns, rows, 1500)
        assert text.count("\n") == n + 3
        _assert_table_is_former(tmp_path, ["a", "b", "c"], columns[:3], zip(*columns[:3]), 1500)

    def test_empty_table(self, tmp_path):
        # no rows, as a sweep over an empty list of etas gives: the columns
        # are built per header key, since zip(*rows) would give none
        header = ["eta", "fidelity_published", "fidelity_enumeration", "discrepancy"]
        columns = [[] for _ in header]
        text = _assert_table_is_former(tmp_path, header, columns, [])
        assert text.endswith("\n" + ",".join(header) + "\n")

    def test_text_columns(self, tmp_path):
        # text cells that csv.writer quotes, rows it quotes whole, and a
        # trailing NUL, which a numpy str array would drop
        names = ["a", "#b", " #c", "d,e", 'f"g', "h\ni", "", "é", "x#", "j\0"] * 300
        values = np.random.default_rng(6).uniform(0.0, 1.0, len(names))
        rows = list(zip(names, values.tolist(), names[::-1]))
        columns = [names, values, names[::-1]]
        _assert_table_is_former(tmp_path, ["name", "value", "other"], columns, rows, 1024)
        plain = [f"e{i}" for i in range(len(names))]
        columns = [plain, values, plain]
        _assert_table_is_former(tmp_path, ["name", "value", "other"], columns, zip(*columns), 1024)

    def test_one_column(self, tmp_path):
        # csv.writer quotes an empty field that is a row's only one
        names = ["a", "", "b"]
        _assert_table_is_former(tmp_path, ["name"], [names], zip(names))
        values = np.random.default_rng(7).uniform(0.0, 1.0, 2 * _NUMPY_CELLS)
        _assert_table_is_former(tmp_path, ["value"], [values], zip(values.tolist()))

    @pytest.mark.parametrize("ints", [[0, 2**63], [-1, 2**63]])
    def test_ints_beyond_int64(self, tmp_path, ints):
        # np.asarray makes float64 of these lists, which wrote 0.0 and 9.223372036854776e+18
        text = _assert_table_is_former(tmp_path, ["n"], [ints], zip(ints))
        assert text.endswith("\nn\n" + "".join(f"{n}\n" for n in ints))

    def test_floats_among_ints(self, tmp_path):
        # a float64 column before, which wrote 1.0 and 3.0; csv.writer writes
        # a numpy float as the repr of a float
        column = [1, np.float64(2.5), 3]
        columns = [column, ["a", "b", "c"]]
        text = _assert_table_is_former(tmp_path, ["x", "t"], columns, zip(*columns))
        assert text.endswith("\nx,t\n1,a\n2.5,b\n3,c\n")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(st.sampled_from('ab#, "é\r\n'), max_size=3),
                st.floats(allow_nan=False),
                st.integers(-(2**70), 2**70),
            ),
            max_size=12,
        ),
        st.integers(1, 5),
        st.sampled_from([0, 4, _NUMPY_CELLS]),
    )
    def test_generated_tables(self, tmp_path_factory, rows, block, threshold):
        tmp_path = tmp_path_factory.mktemp("table")
        columns = [[row[j] for row in rows] for j in range(3)]
        with patch.object(emitternet.lineio, "_NUMPY_CELLS", threshold):
            _assert_table_is_former(tmp_path, ["t", "x", "n"], columns, rows, block)

    def test_columns_of_two_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "table.csv", ["a", "b"], [[1.0, 2.0], [1.0]])


def test_spectrum_is_written_as_repr(tmp_path):
    freqs = np.linspace(-2.0, 2.0, 1001)
    counts = np.concatenate([[0.0, 1.0, 1e-7, 3e20], np.linspace(0.0, 1e4, 997) ** 1.5])
    write_spectrum(tmp_path / "spec.csv", PleSpectrum(freqs, counts), comments=["seed=1"])
    rows = "".join(f"{f!r},{c!r}\n" for f, c in zip(freqs.tolist(), counts.tolist()))
    want = "# seed=1\nfrequency_ghz,counts\n" + rows
    assert (tmp_path / "spec.csv").read_text(encoding="utf-8") == want
