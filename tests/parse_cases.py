"""The parse tests: `parse_trace` against the row parser of `oracles`, and
which of its readers reads each block of a CSV trace.

They are collected through `test_trace_model.py`, which imports their
classes, so each keeps its name there. pytest re-reads the source of a
failing test's module for every failing Hypothesis example, and this
module is short.
"""

import contextlib
import csv
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from infrasense import trace_model
from infrasense.trace_model import (
    CSV_COLUMNS,
    FIX_COLUMNS,
    EmptyTraceError,
    Fixes,
    SchemaError,
    Trace,
    parse_trace,
    write_trace_csv,
)
from infrasense.reports import json_line

from conftest import make_trace, perfbench_module
from oracles import parse_trace_rows


def write_csv(tmp_path, rows, header="t,ax,ay,az,gx,gy,gz,lat,lon,speed,acc"):
    path = tmp_path / "trace.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


REQUIRED = ("t", "ax", "ay", "az")
GROUPS = (REQUIRED, ("gx", "gy", "gz"), ("lat", "lon", "speed", "acc"))


def draw_dirty_groups(data) -> dict:
    """Per column, whether it mixes junk in: the required, gyro and geo
    columns are each all clean (numbers only) or all dirty."""
    dirty = {}
    for group in GROUPS:
        dirty.update(dict.fromkeys(group, data.draw(st.booleans())))
    return dirty


PRESENT = st.sampled_from([True] * 7 + [False])  # an optional column or key
JUNK = st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "1e999", "junk", "1..2", "--1"])
# str.strip removes \x1c but float() rejects it, so its column is read cell by cell
_PAD = st.sampled_from(["", "", " ", "\t ", "\x1c"])
# A CSV column's cells share one padding, drawn with the header: a cell is
# then one or two choices, which keeps a failing test's shrink short.
_PADS = st.tuples(_PAD, _PAD)


def _cells(values):
    """Two kinds of column: numbers as written, and the same numbers mixed
    with junk cells."""
    number = values.map(repr)
    return number, st.one_of(*[number] * 6, JUNK)


def _padded(cells, pads):
    left, right = pads
    return cells.map(lambda cell: left + cell + right)


# t takes few values, so rows repeat and fall out of order; the geo ranges
# straddle the fix rule's limits, so some fixes are invalid
CELLS = {
    "t": _cells(st.integers(0, 12).map(lambda k: k * 0.01)),
    **{c: _cells(st.one_of(st.floats(-20, 20), st.integers(-20, 20)))
       for c in ("ax", "ay", "az", "gx", "gy", "gz")},
    "lat": _cells(st.floats(-100, 100)),
    "lon": _cells(st.floats(-190, 190)),
    "speed": _cells(st.floats(-2, 60)),
    "acc": _cells(st.floats(-1, 20)),
}
JSON_NUMBER = st.one_of(st.floats(-100, 100), st.integers(0, 12).map(lambda k: k * 0.01),
                        st.integers(-100, 100))
JSON_VALUES = st.one_of(
    JSON_NUMBER, JSON_NUMBER, st.sampled_from([math.nan, math.inf, -math.inf]),
    st.tuples(_PAD, st.floats(-100, 100).map(repr), _PAD).map("".join), JUNK,
    st.none(), st.booleans(), st.just([1.0]),
)


# Rows per drawn file. Every cell is a few choices, and a failing test's
# shrinker replays and caches thousands of examples, so its time and memory
# grow with the choices per example. Eight rows keep a failure quick to
# shrink and still span several blocks of 1-4.
ROWS = st.integers(0, 8)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
# The parse tests skip Hypothesis's explain phase, which after shrinking a
# failure reruns the test up to 500 times per argument to mark the parts of
# the example that do not matter: that was most of a failing run's time.
PARSE = settings(deadline=None, phases=[p for p in Phase if p is not Phase.explain])
# the kinds of line the split cannot read
HAND_OFF = ("quoted", "quoted_newline", "blank", "short", "long", "no_final_newline")
GEO = ("lat", "lon", "speed", "acc")


def _parse_outcome(parse, path, fmt):
    """What `parse` makes of a file, as one value: its error's type and text,
    or each array's shape and bytes, the report and the rate."""
    try:
        trace, report = parse(path, fmt)
    except Exception as e:  # both parsers must fail alike
        return type(e).__name__, str(e)
    arrays = {"t": trace.t, "accel": trace.accel, "gyro": trace.gyro,
              **{f"fixes.{k}": getattr(trace.fixes, k) for k in FIX_COLUMNS}}
    return ({k: None if a is None else (a.shape, a.tobytes()) for k, a in arrays.items()},
            report, trace.rate)


def assert_same_parse(path, fmt):
    """parse_trace equals the row parser bit for bit, or fails the same way.

    One assert: Hypothesis shrinks each failing line as a bug of its own."""
    assert _parse_outcome(parse_trace, path, fmt) == _parse_outcome(parse_trace_rows, path, fmt)


class TestParseTrace:
    def test_three_rows_rate_inferred(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,0,0,-9.81,,,,,,,",
            "0.01,0,0,-9.81,,,,,,,",
            "0.02,0,0,-9.81,,,,,,,",
        ])
        trace, report = parse_trace(path)
        assert len(trace) == 3
        # median of successive differences is 0.01 s -> 100 Hz
        assert trace.rate == pytest.approx(100.0)
        assert report.rows_dropped == 0

    def test_single_valid_row_is_empty_trace(self, tmp_path):
        path = write_csv(tmp_path, ["0,0,0,-9.81,,,,,,,"])
        with pytest.raises(EmptyTraceError):
            parse_trace(path)

    def test_out_of_order_rows_sorted_and_counted(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,1,0,-9.81,,,,,,,",
            "0.02,3,0,-9.81,,,,,,,",
            "0.01,2,0,-9.81,,,,,,,",
        ])
        trace, report = parse_trace(path)
        assert list(trace.t) == [0.0, 0.01, 0.02]
        assert list(trace.accel[:, 0]) == [1.0, 2.0, 3.0]
        assert report.reorders == 1

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path, ["0,0,0"], header="t,ax,ay")
        with pytest.raises(SchemaError):
            parse_trace(path)

    def test_nonfinite_rows_dropped(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,0,0,-9.81,,,,,,,",
            "0.01,nan,0,-9.81,,,,,,,",
            "0.02,0,0,-9.81,,,,,,,",
        ])
        trace, report = parse_trace(path)
        assert len(trace) == 2
        assert report.rows_dropped == 1

    def test_jsonl_roundtrip_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t": 0, "ax": 0, "ay": 0, "az": -9.81, "gx": 0.1, "gy": 0, "gz": 0}\n'
            '{"t": 0.01, "ax": 0, "ay": 0, "az": -9.81, "gx": 0.1, "gy": 0, "gz": 0,'
            ' "lat": 51.0, "lon": 7.0, "speed": 10.0, "acc": 5.0}\n'
        )
        trace, _ = parse_trace(path, "jsonl")
        assert trace.gyro is not None
        assert len(trace.fixes) == 1

    def test_csv_writer_roundtrip(self, tmp_path):
        trace = make_trace(duration=2.0, rate=50.0, gyro=np.zeros((101, 3)))
        out = tmp_path / "out.csv"
        write_trace_csv(trace, out)
        back, report = parse_trace(out)
        assert np.allclose(back.t, trace.t)
        assert np.allclose(back.accel, trace.accel)
        assert back.gyro is not None
        assert len(back.fixes) == len(trace.fixes)

    @given(n=st.integers(2, 300), rate=st.sampled_from([20.0, 50.0, 100.0]),
           data=st.data())
    def test_csv_writer_roundtrip_off_grid_fixes(self, tmp_path_factory, n, rate, data):
        t = np.arange(n) / rate
        rows = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        # every fix sits off the grid, by 1 % to 49 % of a sample interval
        offsets = data.draw(st.lists(
            st.tuples(st.floats(0.01, 0.49), st.sampled_from([-1.0, 1.0])),
            min_size=len(rows), max_size=len(rows)))
        geo = st.tuples(st.floats(-90, 90), st.floats(-180, 180),
                        st.floats(0, 60), st.floats(0.1, 100))
        fixes = Fixes(*np.array([(t[i] + sign * frac / rate, *data.draw(geo))
                                 for i, (frac, sign) in zip(rows, offsets)]).T)
        trace = Trace(t=t, accel=np.zeros((n, 3)), gyro=None, fixes=fixes)
        out = tmp_path_factory.mktemp("roundtrip") / "out.csv"
        write_trace_csv(trace, out)
        back, _ = parse_trace(out)
        assert len(back.fixes) == len(fixes)
        assert back.fixes.t.tolist() == t[rows].tolist()
        assert np.all(np.abs(back.fixes.t - fixes.t) <= 0.5 / rate)
        for name in FIX_COLUMNS[1:]:
            assert getattr(back.fixes, name).tolist() == getattr(fixes, name).tolist()

    def test_invalid_fix_row_dropped_and_counted(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,0,0,-9.81,,,,51.0,7.0,10.0,5.0",
            "0.01,0,0,-9.81,,,,95.0,7.0,10.0,5.0",
            "0.02,0,0,-9.81,,,,51.0,7.0,10.0,",
            "junk,0,0,-9.81,,,,,,,",
            "0.03,0,0,-9.81,,,,51.0,7.0,10.0,5.0",
        ])
        trace, report = parse_trace(path)
        assert list(trace.t) == [0.0, 0.02, 0.03]
        assert trace.fixes.t.tolist() == [0.0, 0.03]
        assert report.rows_read == 5 and report.rows_dropped == 2
        assert report.drops == {"required_nonfinite": 1, "invalid_fix": 1}

    def test_jsonl_int_beyond_float_range_is_missing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [{"t": 0.0, "ax": 0, "ay": 0, "az": -9.81},
                {"t": 0.01, "ax": 10 ** 400, "ay": 0, "az": -9.81},
                {"t": 0.02, "ax": 0, "ay": 0, "az": -9.81, "gx": 10 ** 400},
                {"t": 0.03, "ax": 0, "ay": 0, "az": -9.81}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        trace, report = parse_trace(path, "jsonl")
        assert list(trace.t) == [0.0, 0.02, 0.03]
        assert trace.gyro is None
        assert report.drops == {"required_nonfinite": 1, "invalid_fix": 0}

    @given(data=st.data())
    @settings(PARSE, max_examples=100)
    def test_csv_matches_row_parser(self, tmp_path_factory, data):
        assert_same_parse(write_drawn(tmp_path_factory, "trace.csv", draw_csv(data)), "csv")

    @given(data=st.data())
    @settings(PARSE, max_examples=100)
    def test_jsonl_matches_row_parser(self, tmp_path_factory, data):
        assert_same_parse(write_drawn(tmp_path_factory, "trace.jsonl", draw_jsonl(data)), "jsonl")

    # Blocks of 1-4 rows over files of up to 8: blocks of short rows only,
    # a junk cell in one block of a column, blank lines between blocks.
    @given(data=st.data(), block=st.integers(1, 4))
    @settings(PARSE, max_examples=100)
    def test_csv_matches_row_parser_in_small_blocks(self, tmp_path_factory, data, block):
        path = write_drawn(tmp_path_factory, "trace.csv", draw_csv(data))
        with mock.patch.object(trace_model, "_ROW_BLOCK", block):
            assert_same_parse(path, "csv")

    @given(data=st.data(), block=st.integers(1, 4))
    @settings(PARSE, max_examples=100)
    def test_jsonl_matches_row_parser_in_small_blocks(self, tmp_path_factory, data, block):
        path = write_drawn(tmp_path_factory, "trace.jsonl", draw_jsonl(data))
        with mock.patch.object(trace_model, "_ROW_BLOCK", block):
            assert_same_parse(path, "jsonl")

    # Rows of the header's width only: every block is split as text.
    @given(data=st.data(), block=st.integers(1, 10))
    @settings(PARSE, max_examples=100)
    def test_split_rows_match_row_parser(self, tmp_path_factory, data, block):
        header, cells = draw_header(data)
        rows = [draw_row(data, header, cells) for _ in range(data.draw(ROWS))]
        ends = data.draw(st.lists(LINE_END, min_size=len(rows) + 1, max_size=len(rows) + 1))
        lines = [line + end for line, end in zip([",".join(header), *rows], ends)]
        path = write_drawn_text(tmp_path_factory, "".join(lines))
        with spy_readers() as blocks, mock.patch.object(trace_model, "_ROW_BLOCK", block):
            assert_same_parse(path, "csv")
        assert "csv" not in [reader for reader, _ in blocks]
        assert_c_reader_rules(blocks, header)

    # Regular rows for at least one block of 1-4, then one of these kinds of
    # line, then regular rows again: a block the split cannot read hands it
    # and every later row to csv.reader.
    @given(data=st.data(), block=st.integers(1, 4),
           kind=st.sampled_from([*HAND_OFF, "bare_cr", "nul", "non_ascii"]))
    @settings(PARSE, max_examples=200)
    def test_hand_off_to_csv_reader_matches_row_parser(self, tmp_path_factory, data, block,
                                                       kind):
        header, cells = draw_header(data)
        head = [draw_row(data, header, cells) for _ in range(data.draw(st.integers(block, 2 * block)))]
        tail = [] if kind == "no_final_newline" else [
            draw_row(data, header, cells) for _ in range(data.draw(st.integers(0, 3)))]
        row = draw_row(data, header, cells).split(",")
        j = data.draw(st.integers(0, len(row) - 1))
        if kind == "quoted":
            row[j] = '"' + row[j] + '"'
        elif kind == "quoted_newline":
            row[j] = '"' + row[j] + data.draw(st.sampled_from(["\n", "\r\n", "\n7", "\r"])) + '"'
        elif kind == "short":
            row = row[:data.draw(st.integers(1, len(row) - 1))]
        elif kind == "long":  # at twice the width plus one, its line end falls in a row's place
            row += ["7"] * data.draw(st.sampled_from([1, 2, len(row), len(row) + 1]))
        elif kind == "nul":
            row[j] = data.draw(st.sampled_from(["\x00", row[j] + "\x00"]))
        elif kind == "non_ascii":
            row[j] = data.draw(st.sampled_from(["\xe9", row[j] + "\xe9", "\u2028" + row[j]]))
        odd = {"blank": "\n", "bare_cr": ",".join(row) + "\r",
               "no_final_newline": ",".join(row)}.get(kind, ",".join(row) + "\n")
        text = "".join(line + "\n" for line in [",".join(header), *head]) + odd
        path = write_drawn_text(tmp_path_factory, text + "".join(line + "\n" for line in tail))
        with spy_readers() as blocks, mock.patch.object(trace_model, "_ROW_BLOCK", block):
            assert_same_parse(path, "csv")
        readers = [reader for reader, _ in blocks]
        assert readers[0] != "csv"
        assert (readers[-1] == "csv") == (kind in HAND_OFF)
        assert_c_reader_rules(blocks, header)

    @pytest.mark.parametrize("where", ["header", "split_block", "reader_block"])
    def test_cell_past_the_field_limit_is_schema_error(self, tmp_path, monkeypatch, where):
        # a 200 000-character cell, in the header, in a block the split hands
        # to csv.reader, or in a row csv.reader reads after a quoted one
        monkeypatch.setattr(trace_model, "_ROW_BLOCK", 1)
        big = "1" * 200_000
        lines = ["t,ax,ay,az", "0,0,0,-9.81", "0.01,0,0,-9.81", "0.02,0,0,-9.81"]
        if where == "header":
            lines[0] += ",note" + big
        else:
            lines[2] = big + lines[2]
        if where == "reader_block":
            lines[1] = '"0",0,0,-9.81'
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="field larger than field limit"):
            parse_trace(path)
        assert_same_parse(path, "csv")

    @pytest.mark.parametrize("line", ['"t ax ay az"', "[1, 2]", "3.5"])
    def test_jsonl_line_not_an_object_is_schema_error(self, tmp_path, line):
        # a string holds "t" etc. as substrings, so only a type check catches it
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 0, "ax": 0, "ay": 0, "az": -9.81}\n' + line + "\n")
        with pytest.raises(SchemaError, match="line 2"):
            parse_trace(path, "jsonl")
        assert_same_parse(path, "jsonl")

    def test_jsonl_int_past_the_digit_limit_is_schema_error(self, tmp_path):
        # json.loads raises a ValueError that is no JSONDecodeError for it
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 0, "ax": 0, "ay": 0, "az": -9.81}\n'
                        '{"t": 1%s, "ax": 0, "ay": 0, "az": -9.81}\n' % ("0" * 5000))
        for parse in (parse_trace, parse_trace_rows):
            with pytest.raises(SchemaError, match=r"^line 2: invalid JSON \(Exceeds the limit"):
                parse(path, "jsonl")
        assert_same_parse(path, "jsonl")


class TestReaders:
    """Which of the CSV readers reads each block (`spy_readers`), on the
    edge cases of numpy's C reader and on the benchmark's rides."""

    @pytest.mark.parametrize("body", [
        "", "\n\n\n", "  \n\t\n", "0,0,0,-9.81\n0.01,0,0,-9.81\n\n\n\n0.02,0,0,-9.81\n",
    ], ids=["header_only", "blank_lines", "whitespace_lines", "blank_lines_between_blocks"])
    def test_no_warning_on_blank_lines(self, tmp_path, monkeypatch, body):
        # np.loadtxt warns "input contained no data" on a block of blank lines
        monkeypatch.setattr(trace_model, "_ROW_BLOCK", 2)
        path = tmp_path / "trace.csv"
        path.write_text("t,ax,ay,az\n" + body)
        with warnings.catch_warnings(), spy_readers() as blocks:
            warnings.simplefilter("error")
            assert_same_parse(path, "csv")
        assert_c_reader_rules(blocks, ["t", "ax", "ay", "az"])

    def test_lines_past_the_field_limit_reach_csv_reader(self, tmp_path, monkeypatch):
        # each cell is within the limit and each line past it: only csv.reader
        # checks the cells
        monkeypatch.setattr(trace_model, "_ROW_BLOCK", 2)
        limit = csv.field_size_limit(20)
        try:
            path = write_csv(tmp_path, [f"0.0{i},0.25,0.5,-9.75,0.0,0.5,0.0,51.0,7.0,10.0,5.0"
                                        for i in range(5)])
            with spy_readers() as blocks:
                assert_same_parse(path, "csv")
            assert [reader for reader, _ in blocks] == ["csv"]
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("digits, reader", [(28, "loadtxt"), (29, "split")])
    def test_geo_cell_that_fills_its_field_goes_to_the_split(self, tmp_path, digits, reader):
        # "51." and 28 digits fill 31 of the 32 bytes; 29 digits would be cut short
        lat = "51." + "1" * digits
        path = write_csv(tmp_path, [f"0,0,0,-9.81,{lat},7.0,10.0,5.0", "0.01,0,0,-9.81,,,,"],
                         header="t,ax,ay,az,lat,lon,speed,acc")
        with spy_readers() as blocks:
            assert_same_parse(path, "csv")
        assert [r for r, _ in blocks] == [reader]
        assert parse_trace(path)[0].fixes.lat.tolist() == [float(lat)]

    def test_benchmark_ride_is_read_by_the_c_reader(self, tmp_path, monkeypatch):
        inputs = perfbench_module("inputs", monkeypatch)
        path = tmp_path / "road.csv"
        inputs.road_ride(1).write_csv(path)
        with spy_readers() as blocks:
            assert_same_parse(path, "csv")
        assert {reader for reader, _ in blocks} == {"loadtxt"}

    def test_written_ride_without_gyro_is_split(self, tmp_path):
        # empty gyro cells and CRLF line ends: numpy's reader refuses every block
        path = tmp_path / "ride.csv"
        write_trace_csv(make_trace(duration=100.0, gyro=None), path)
        with spy_readers() as blocks:
            assert_same_parse(path, "csv")
        assert len(blocks) == 3 and {reader for reader, _ in blocks} == {"split"}


JSON_TEXT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6).map(json.dumps)
# around or after the value: JSON and non-JSON whitespace, a BOM, a second
# value, junk, or nothing
_EDGES = st.sampled_from(["", "", " ", "\t", "\x1c", "\ufeff", " 1", "{}", "x", "]", "\\"])


class TestJsonLine:
    """`json_line` gives what json.loads gives: the same value or an error
    of the same type and text."""

    @given(st.one_of(st.tuples(_EDGES, JSON_TEXT, _EDGES).map("".join),
                     st.tuples(JSON_TEXT, st.integers(0, 40)).map(lambda p: p[0][:p[1]]),
                     st.text(max_size=12)))
    @settings(max_examples=400, deadline=None)
    def test_same_value_or_error_as_json_loads(self, line):
        try:
            expect = json.loads(line)
        except ValueError as e:
            with pytest.raises(type(e)) as got:
                json_line(line)
            assert str(got.value) == str(e)
            return
        got = json_line(line)
        assert type(got) is type(expect)
        assert json.dumps(got) == json.dumps(expect)


def draw_header(data) -> tuple[list[str], dict]:
    """A drawn CSV header, with optional columns left out and an extra or
    repeated name, and the strategy of each of its schema columns' cells,
    padded with whitespace or not."""
    header = [c for c in CSV_COLUMNS if c in REQUIRED or data.draw(PRESENT)]
    if data.draw(st.booleans()):  # a column outside the schema, or a repeated name
        extra = data.draw(st.sampled_from(["note", *header]))
        header.insert(data.draw(st.integers(0, len(header))), extra)
    dirty = draw_dirty_groups(data)
    return header, {c: _padded(CELLS[c][dirty[c]], data.draw(_PADS))
                    for c in header if c in CELLS}


def draw_csv(data) -> list[str]:
    """Lines of a drawn CSV trace: optional columns left out, an extra or
    repeated header name, blank, short and long rows, junk cells."""
    header, cells = draw_header(data)
    lines = [",".join(header)]
    for _ in range(data.draw(ROWS)):
        if data.draw(st.integers(0, 9)) == 0:
            lines.append("")  # blank line
            continue
        row = list(draw_cells(data, header, cells))
        size = data.draw(st.sampled_from([len(row)] * 10 + [1, len(row) - 1, len(row) + 2]))
        row = (row + ["7"] * 2)[:size]  # a short row, or a long one with extra cells
        lines.append(",".join(row))
    return lines


def draw_cells(data, header, cells) -> tuple[str, ...]:
    """The cells of one row of the header's width, in one draw: each
    ``data.draw`` call costs more than the choices it makes."""
    return data.draw(st.tuples(*(cells.get(c, JUNK) for c in header)))


def draw_row(data, header, cells) -> str:
    """One row of the header's width."""
    return ",".join(draw_cells(data, header, cells))


@contextlib.contextmanager
def spy_readers():
    """Which reader reads each block of a CSV parse while in the block, with
    the block's lines: "loadtxt" (numpy's C reader), "split" or "csv", the
    block that neither can read, which csv.reader reads with every later
    row."""
    blocks = []
    loadtxt, split = trace_model._loadtxt_columns, trace_model._split_cells

    def spy_loadtxt(lines, *args):
        columns = loadtxt(lines, *args)
        if columns is not None:
            blocks.append(("loadtxt", lines))
        return columns

    def spy_split(lines, *args):
        cells = split(lines, *args)
        blocks.append(("split" if cells is not None else "csv", lines))
        return cells

    with mock.patch.object(trace_model, "_loadtxt_columns", spy_loadtxt), \
            mock.patch.object(trace_model, "_split_cells", spy_split):
        yield blocks


def is_number(cell: str) -> bool:
    """A cell that `float` reads once stripped; no drawn cell holds an
    underscore, which `float` takes and numpy's reader refuses."""
    try:
        float(cell.strip())
    except ValueError:
        return False
    return True


def c_readable(lines, header) -> bool:
    """Whether numpy's C reader may read a block of CSV lines under this
    header: each line ends in a newline alone and is ASCII, with no quote
    or NUL, no longer than the field limit and of the header's width, and
    its required and gyro cells are numbers. Geo cells may hold anything
    shorter than the reader's field."""
    index = {name: j for j, name in enumerate(header) if name in CSV_COLUMNS}
    numbers = [j for name, j in index.items() if name not in GEO]
    geo = [j for name, j in index.items() if name in GEO]
    for line in lines:
        cells = line[:-1].split(",")
        if (not line.endswith("\n") or any(c in line for c in '"\r\x00')
                or not line.isascii() or len(line) > csv.field_size_limit()
                or len(cells) != len(header) or not all(is_number(cells[j]) for j in numbers)
                or any(len(cells[j]) >= trace_model._GEO_WIDTH for j in geo)):
            return False
    return True


def assert_c_reader_rules(blocks, header):
    """numpy's C reader read each block it may read, and no other."""
    for reader, lines in blocks:
        assert (reader == "loadtxt") == c_readable(lines, header), (reader, lines)


def draw_jsonl(data) -> list[str]:
    """Lines of a drawn JSONL trace: blank lines, left-out optional keys and
    values of any JSON type."""
    dirty = draw_dirty_groups(data)
    values = {c: JSON_VALUES if dirty[c] else JSON_NUMBER for c in CSV_COLUMNS}
    partial = data.draw(st.booleans())  # rows may leave out optional keys
    lines = []
    for _ in range(data.draw(ROWS)):
        if data.draw(st.integers(0, 9)) == 0:
            lines.append("  ")  # blank line
            continue
        keys = [c for c in CSV_COLUMNS
                if c in REQUIRED or not partial or data.draw(PRESENT)]
        row = data.draw(st.tuples(*(values[k] for k in keys)))
        lines.append(json.dumps(dict(zip(keys, row))))
    return lines


def write_drawn(tmp_path_factory, name, lines):
    path = tmp_path_factory.mktemp("parse") / name
    path.write_text("\n".join(lines) + "\n")
    return path


def write_drawn_text(tmp_path_factory, text):
    """A drawn CSV file, its line ends as drawn."""
    path = tmp_path_factory.mktemp("parse") / "trace.csv"
    path.write_bytes(text.encode())
    return path
