import contextlib
import json
import math
import tracemalloc
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
    gravity_split,
    median,
    parse_trace,
    reorient,
    sampling_gaps,
    write_trace_csv,
)
from infrasense.reports import json_line

from conftest import make_trace
from oracles import gravity_split_loop, parse_trace_rows, write_trace_csv_writer


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
        with spy_split() as split, mock.patch.object(trace_model, "_ROW_BLOCK", block):
            assert_same_parse(path, "csv")
        assert None not in split

    # Regular rows for at least one block of 1-4, then one of these kinds of
    # line, then regular rows again: a block the split cannot read hands it
    # and every later row to csv.reader.
    @given(data=st.data(), block=st.integers(1, 4),
           kind=st.sampled_from([*HAND_OFF, "bare_cr", "nul"]))
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
        odd = {"blank": "\n", "bare_cr": ",".join(row) + "\r",
               "no_final_newline": ",".join(row)}.get(kind, ",".join(row) + "\n")
        text = "".join(line + "\n" for line in [",".join(header), *head]) + odd
        path = write_drawn_text(tmp_path_factory, text + "".join(line + "\n" for line in tail))
        with spy_split() as split, mock.patch.object(trace_model, "_ROW_BLOCK", block):
            assert_same_parse(path, "csv")
        assert split[0] is not None
        assert (split[-1] is None) == (kind in HAND_OFF)

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
def spy_split():
    """The results of `_split_cells` while in the block, one per block."""
    results, split = [], trace_model._split_cells

    def spy(*args):
        results.append(split(*args))
        return results[-1]

    with mock.patch.object(trace_model, "_split_cells", spy):
        yield results


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


def ride(n, rng, gyro=True, fix_t=None):
    """n samples at 100 Hz of random readings, with 1 Hz fixes unless
    `fix_t` gives their times."""
    t = np.arange(n) / 100.0
    fix_t = t[::100] if fix_t is None else np.asarray(fix_t, dtype=float)
    k = len(fix_t)
    fixes = Fixes(fix_t, rng.uniform(-90, 90, k), rng.uniform(-180, 180, k),
                  rng.uniform(0, 60, k), rng.uniform(0.1, 100, k))
    gyro = rng.normal(0.0, 0.1, (n, 3)) if gyro else None
    return Trace(t=t, accel=rng.normal(0.0, 3.0, (n, 3)), gyro=gyro, fixes=fixes)


class TestWriteTraceCsv:
    CASES = {
        "gyro": dict(gyro=True),
        "no_gyro": dict(gyro=False),
        # off the grid, before the first and after the last sample, and two
        # fixes on one row (the later one is written)
        "sparse_fixes": dict(gyro=False, fix_t=[-0.5, 0.004, 0.031, 0.033, 0.036, 0.1549, 0.5, 9.0]),
        "no_fixes": dict(gyro=True, fix_t=[]),
    }

    @pytest.mark.parametrize("block", [None, 3])
    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_bytes_match_the_csv_writer(self, tmp_path, monkeypatch, case, n, block):
        if block:
            monkeypatch.setattr(trace_model, "_ROW_BLOCK", block)
        trace = ride(n, np.random.default_rng(n), **self.CASES[case])
        trace.accel[0, 0] = -0.0
        write_trace_csv(trace, tmp_path / "a.csv")
        write_trace_csv_writer(trace, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestParseMemory:
    # tracemalloc counts every allocation, so the peak repeats from run to
    # run. A 10-min ride at 100 Hz (7.9 MB of CSV): a parse that holds every
    # cell as a str at once peaks at 60 MB, one in row blocks at 16 MB.
    def test_parse_peak(self, tmp_path):
        path = tmp_path / "ride.csv"
        write_trace_csv(ride(60_000, np.random.default_rng(1)), path)
        tracemalloc.start()
        try:
            parse_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_rows_to_trace_copies_only_what_it_keeps(self):
        # 60 000 clean rows in order: the Trace takes the t column as it is
        # and stacks accel and gyro once (6 columns); the row masks, the kept
        # index and the sample-rate median bring the peak to 11.8 columns of
        # n floats. Stacking every column and then copying it through the
        # kept rows, as the parse once did, peaked at 21.8.
        n = 60_000
        trace = ride(n, np.random.default_rng(1))  # a fix on every 100th row
        geo = np.full((4, n), math.nan)
        geo[:, ::100] = [getattr(trace.fixes, k) for k in FIX_COLUMNS[1:]]
        cols = dict(zip(CSV_COLUMNS, [trace.t, *trace.accel.T.copy(), *trace.gyro.T.copy(),
                                      *geo]))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            parsed, report = trace_model._columns_to_trace(cols, n)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert report.rows_dropped == report.reorders == 0
        np.testing.assert_array_equal(parsed.accel, trace.accel)
        np.testing.assert_array_equal(parsed.gyro, trace.gyro)
        assert peak <= 14 * 8 * n, peak / (8 * n)


def low_pass(g0, inputs, tau, dt):
    """gravity_split on a trace that starts at g0 and then reads `inputs`,
    one step of dt apart."""
    accel = np.vstack([g0, inputs])
    t = np.arange(len(accel)) * dt
    return gravity_split(Trace(t=t, accel=accel, gyro=None), tau)


def tau_for(alpha, dt=1.0):
    """Time constant whose smoothing factor tau / (tau + dt) is alpha."""
    return alpha * dt / (1.0 - alpha)


class TestGravityFilter:
    def test_geometric_convergence(self):
        # closed form: g_z after n steps of constant input a is a*(1 - alpha^n)
        a = np.array([0.0, 0.0, 9.81])
        gravity, linear = low_pass(np.zeros(3), np.tile(a, (50, 1)), tau_for(0.9), 1.0)
        for n in range(1, 51):
            assert gravity[n, 2] == pytest.approx(9.81 * (1 - 0.9 ** n), rel=1e-12)
        assert abs(linear[50, 2]) < 9.81 * 0.9 ** 50 * 1.01

    def test_fixed_point(self):
        g = np.array([0.1, -0.2, 9.8])
        _, linear = low_pass(g, g[None, :], tau_for(0.5), 1.0)
        assert np.allclose(linear, 0.0)

    def test_alpha_near_one_freezes_estimate(self):
        # tau / (tau + 1e-9) = 1 - 1e-12: a zero step takes the 1e-9 s clamp
        gravity, _ = low_pass(np.array([0.0, 0.0, 5.0]), np.array([[100.0, 100.0, 100.0]]),
                              1000.0, 0.0)
        assert gravity[1, 2] == pytest.approx(5.0, abs=1e-9)

    def test_decomposition_lossless(self, rng):
        inputs = rng.normal(size=(20, 3))
        gravity, linear = low_pass(rng.normal(size=3), inputs, tau_for(0.95), 1.0)
        assert np.allclose(linear[1:] + gravity[1:], inputs, atol=1e-12)

    @given(alpha=st.floats(0.01, 0.99), n=st.integers(1, 40))
    def test_contraction_property(self, alpha, n):
        a = np.array([1.0, -2.0, 9.0])
        g0 = np.array([0.5, 0.5, 0.5])
        gravity, _ = low_pass(g0, np.tile(a, (n, 1)), tau_for(alpha), 1.0)
        expected = alpha ** n * np.linalg.norm(g0 - a)
        assert np.linalg.norm(gravity[n] - a) == pytest.approx(expected, rel=1e-9)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_scan_matches_step_loop(self, data):
        # steps from 0 (the 1e-9 s clamp) to 1000 s, in runs of one rate each:
        # rate changes, gaps, and runs long enough to cross scan blocks
        dt = st.one_of(st.just(0.0), st.floats(1e-6, 0.05), st.floats(0.05, 5.0),
                       st.floats(5.0, 1000.0))
        pieces = data.draw(st.lists(st.tuples(st.integers(1, 1500), dt), min_size=1, max_size=6))
        t = np.concatenate([[0.0], np.cumsum(np.concatenate([np.full(k, d) for k, d in pieces]))])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.floats(0.01, 20.0))
        accel = rng.normal(scale=scale, size=(len(t), 3)) + 9.81 * rng.normal(size=3)
        trace = Trace(t=t, accel=accel, gyro=None)
        tau = data.draw(st.floats(0.05, 20.0))
        gravity, linear = gravity_split(trace, tau)
        want_gravity, want_linear = gravity_split_loop(trace, tau)
        assert np.isfinite(gravity).all() and np.isfinite(linear).all()
        bound = 1e-12 * np.max(np.abs(accel))
        assert np.max(np.abs(gravity - want_gravity)) <= bound
        assert np.max(np.abs(linear - want_linear)) <= bound


class TestAlphaFromTimeconstant:
    """The per-step smoothing factor tau / (tau + dt) of the gravity low-pass."""

    def one_step(self, tau, dt):
        # from g = 1 towards 0: the first step lands on alpha itself
        gravity, _ = low_pass(np.ones(3), np.zeros((1, 3)), tau, dt)
        return gravity[1, 0]

    def test_direct_value(self):
        assert self.one_step(1.0, 0.01) == pytest.approx(1.0 / 1.01, rel=1e-12)

    def test_small_dt_limit(self):
        alpha = self.one_step(1.0, 0.0)
        assert alpha == pytest.approx(1.0, abs=1e-8)
        assert alpha < 1.0  # the zero step is clamped to 1e-9 s

    def test_symmetry_case(self):
        assert self.one_step(0.5, 0.5) == 0.5

    @pytest.mark.parametrize("tau,dt", [(0, 1), (-1, 1)])
    def test_domain_errors(self, tau, dt):
        with pytest.raises(ValueError):
            self.one_step(tau, dt)


def rotation_x(deg):
    r = math.radians(deg)
    return np.array([[1, 0, 0],
                     [0, math.cos(r), -math.sin(r)],
                     [0, math.sin(r), math.cos(r)]])


class TestReorient:
    def test_aligned_trace_identity(self):
        trace = make_trace(duration=5.0, with_fixes=False)
        res = reorient(trace)
        assert np.max(np.abs(res.rotation - np.eye(3))) < 1e-6

    def test_rotated_90_about_x_recovers_gravity(self):
        trace = make_trace(duration=5.0, with_fixes=False)
        rot = rotation_x(90)
        rotated = Trace(t=trace.t, accel=(rot @ trace.accel.T).T, gyro=None)
        res = reorient(rotated)
        assert np.mean(res.trace.accel[:, 2]) == pytest.approx(-9.81, abs=0.1)

    def test_stationary_trace_forward_undetermined(self):
        trace = make_trace(duration=5.0, with_fixes=False)
        res = reorient(trace)
        assert not res.forward_resolved

    def test_norms_preserved(self, rng):
        n = 501
        trace = make_trace(duration=5.0, accel_z=rng.normal(scale=0.5, size=n))
        res = reorient(trace)
        before = np.linalg.norm(trace.accel, axis=1)
        after = np.linalg.norm(res.trace.accel, axis=1)
        assert np.max(np.abs(before - after)) < 1e-9

    def test_forward_axis_recovered_with_motion(self):
        # surge (forward accel) along device y while moving: y must map to +x
        n = 1001
        accel_z = np.zeros(n)
        trace = make_trace(duration=10.0, rate=100.0, accel_z=accel_z, speed=10.0)
        accel = trace.accel.copy()
        t = trace.t
        # surge bursts on the device y axis, starting after a quiet second
        accel[:, 1] += 2.0 * (((t - 1.0) % 3.0 < 1.0) & (t >= 1.0))
        moved = Trace(t=trace.t, accel=accel, gyro=None, fixes=trace.fixes)
        res = reorient(moved, tau=5.0)
        assert res.forward_resolved
        # the surge axis (device +y) must land on vehicle +x
        mapped = res.rotation @ np.array([0.0, 1.0, 0.0])
        assert mapped[0] == pytest.approx(1.0, abs=1e-2)


def test_sampling_gaps():
    t = np.concatenate([np.arange(100) * 0.01, 1.99 + np.arange(50) * 0.01,
                        2.5 + np.arange(10) * 0.01])
    gaps = sampling_gaps(t)
    assert gaps["count"] == 2
    assert gaps["total_s"] == pytest.approx((1.99 - 0.99) + (2.5 - 2.48))
    assert sampling_gaps(np.arange(10) * 0.01) == {"count": 0, "total_s": 0.0}


# finite values with repeats, and the values where medians are delicate
MEDIAN_ELEMENTS = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, 1.7976931348623157e308]),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))


class TestMedian:
    """`median` is `np.median` bit for bit, without importing numpy.ma."""

    @given(data=st.data(), length=st.integers(1, 40), rows=st.none() | st.integers(1, 4),
           special=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_np_median(self, data, length, rows, special):
        elements = MEDIAN_ELEMENTS if special else st.floats(-1e3, 1e3)
        shape = (length,) if rows is None else (rows, length)
        a = np.array(data.draw(st.lists(elements, min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
        axis = -1 if rows is None else 1
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, max + max
            want = np.median(a, axis=axis)
            got = median(a, axis=axis)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, got, want)

    def test_empty_reads_nan_as_np_median_does(self):
        with pytest.warns(RuntimeWarning):
            assert math.isnan(median(np.array([])))


def test_gravity_split_initializes_at_first_sample(rng):
    trace = make_trace(duration=2.0)
    gravity, linear = gravity_split(trace)
    assert np.allclose(gravity[0], trace.accel[0])
    assert np.allclose(gravity + linear, trace.accel, atol=1e-12)


def test_geofix_validation():
    with pytest.raises(ValueError):
        Fixes(*np.array([(0.0, 91.0, 0.0, 1.0, 5.0)]).T)
    with pytest.raises(ValueError):
        Fixes(*np.array([(0.0, 0.0, 0.0, -1.0, 5.0)]).T)
    with pytest.raises(ValueError):
        Fixes(*np.array([(0.0, 0.0, 0.0, 1.0, 0.0)]).T)


NAN_GYRO = np.zeros((101, 3))
NAN_GYRO[50, 0] = np.nan


class TestMalformedColumns:
    """A trace and its fixes refuse columns the analyses would misread."""

    @pytest.mark.parametrize("accel, gyro", [
        (np.zeros((96, 3)), None),  # 5 rows short
        (np.zeros((101, 3)), np.zeros((101, 2))),  # 2 gyro columns
        (np.zeros((101, 3)), NAN_GYRO),
    ])
    def test_samples(self, accel, gyro):
        with pytest.raises(ValueError):
            Trace(t=np.arange(101) / 100.0, accel=accel, gyro=gyro)

    @pytest.mark.parametrize("column, value", [
        ("t", np.nan), ("t", np.inf), ("speed", np.nan), ("accuracy", np.nan),
    ])
    def test_nonfinite_fix(self, column, value):
        cols = {"t": [0.0, 1.0], "lat": [51.0, 51.0], "lon": [7.0, 7.0],
                "speed": [10.0, 20.0], "accuracy": [5.0, 5.0]}
        cols[column][1] = value
        with pytest.raises(ValueError):
            Fixes(**cols)

    def test_unsorted_fixes(self):
        # np.interp would read the speed at t = 0 as 20, not 10
        with pytest.raises(ValueError):
            Fixes(t=[1.0, 0.0], lat=[51.0, 51.0], lon=[7.0, 7.0], speed=[20.0, 10.0],
                  accuracy=[5.0, 5.0])

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            Fixes(t=[0.0, 1.0], lat=[51.0], lon=[7.0, 7.0], speed=[10.0, 10.0],
                  accuracy=[5.0, 5.0])
