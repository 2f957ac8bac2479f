import datetime as dt
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from freqconn import ingest
from freqconn.errors import DataError, NumericError, UsageError
from freqconn.ingest import (
    ReturnGrid,
    TickSeries,
    bipower_variation,
    build_panel,
    filter_calendar,
    load_ticks,
    read_panel_csv,
    resample_grid,
    simulate_var,
    summary_stats,
    synth_var_panel,
    write_panel_csv,
)
from helpers import make_model
from oracles import calendar_excludes, resample_per_day


DATA = Path(__file__).parent / "data"


def ticks_csv(rows):
    return io.BytesIO(("timestamp,price\n" + "\n".join(rows) + "\n").encode())


class TestLoadTicks:
    def test_parses_increasing_rows(self):
        ts = load_ticks(ticks_csv([
            "2001-03-05T10:00:00+00:00,50.0",
            "2001-03-05T10:00:05+00:00,50.5",
            "2001-03-05T10:01:00+00:00,51.0",
        ]), "CO")
        assert len(ts) == 3
        assert ts.prices.tolist() == [50.0, 50.5, 51.0]

    def test_duplicate_timestamp_keeps_last_price(self):
        ts = load_ticks(ticks_csv([
            "2001-03-05T10:00:00+00:00,50.0",
            "2001-03-05T10:00:00+00:00,51.0",
        ]), "CO")
        assert len(ts) == 1
        assert ts.prices[0] == 51.0

    def test_negative_price_names_line(self):
        with pytest.raises(DataError, match="line 3"):
            load_ticks(ticks_csv([
                "2001-03-05T10:00:00+00:00,50.0",
                "2001-03-05T10:00:01+00:00,-1.0",
            ]), "CO")

    def test_out_of_order_row_rejected_with_line(self):
        with pytest.raises(DataError, match="line 3.*out-of-order"):
            load_ticks(ticks_csv([
                "2001-03-05T10:00:05+00:00,50.0",
                "2001-03-05T10:00:00+00:00,51.0",
            ]), "CO")

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="empty|no data"):
            load_ticks(io.BytesIO(b"timestamp,price\n"), "CO")

    def test_crlf_and_zulu_accepted(self):
        raw = io.BytesIO(b"timestamp,price\r\n2001-03-05T10:00:00Z,50.0\r\n")
        ts = load_ticks(raw, "CO")
        assert len(ts) == 1

    def test_offset_normalized_to_utc(self):
        ts = load_ticks(ticks_csv(["2001-03-05T10:00:00+02:00,50.0"]), "CO")
        assert ts.timestamps[0] == np.datetime64("2001-03-05T08:00:00", "us")

    def test_non_utf8_bytes_are_data_error(self):
        raw = b"timestamp,price\n2001-03-05T10:00:00+00:00,5\xff\n"
        offset = raw.index(0xff)
        with pytest.raises(DataError, match=f"^CO: not UTF-8 text at byte offset {offset}$"):
            load_ticks(io.BytesIO(raw), "CO")

    @pytest.mark.parametrize("body", [
        None,  # the CO fixture, canonical rows
        b"timestamp,price\r\n2001-03-05T10:00:00+02:00,50.0\r\n2001-03-05T10:00:01Z,50.5\r\n",
    ])
    def test_path_and_binary_stream_parse_alike(self, body, tmp_path):
        path = DATA / "ticks_CO.csv"
        if body is not None:
            path = tmp_path / "ticks.csv"
            path.write_bytes(body)
        from_path = load_ticks(path, "CO")
        with open(path, "rb") as fh:
            from_stream = load_ticks(fh, "CO")
        assert from_path.timestamps.tobytes() == from_stream.timestamps.tobytes()
        assert from_path.prices.tobytes() == from_stream.prices.tobytes()


class TestTickSeries:
    def test_repeated_timestamp_rejected(self):
        ts = np.array(["2001-03-05T10:00", "2001-03-05T10:00"], dtype="datetime64[us]")
        with pytest.raises(DataError, match="strictly increasing"):
            TickSeries("CO", ts, np.array([50.0, 51.0]))

    def test_order_check_copies_no_timestamps(self):
        # the checks allocate boolean masks only, about 2 bytes a row; a copy
        # of the int64 timestamps would add 8 or more
        n = 200_000
        ts = np.datetime64("2001-03-05T00:00", "us") + np.arange(n).astype("timedelta64[s]")
        prices = np.full(n, 50.0)
        tracemalloc.start()
        try:
            TickSeries("CO", ts, prices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n


def outcome(parse, text):
    """Arrays as bytes, or the DataError message, of one parse of ``text``."""
    try:
        ticks = parse(text)
    except DataError as exc:
        return "error", str(exc)
    return ticks.timestamps.dtype, ticks.timestamps.tobytes(), ticks.prices.tobytes()


def per_line(text):
    return ingest._load_rows(text.lstrip("\ufeff"), "CO")


def array_path(text):
    return load_ticks(io.BytesIO(text.encode()), "CO")


def canonical(text):
    return ingest._load_canonical(text.encode())


@pytest.fixture
def window_rows(monkeypatch):
    """Row count of every window the array path parses."""
    counts = []
    chunk = ingest._canonical_chunk

    def counted(rows):
        counts.append(len(rows))
        return chunk(rows)

    monkeypatch.setattr(ingest, "_canonical_chunk", counted)
    return counts


ROW = "2001-03-05T10:00:00+00:00"


def canonical_file(seed, n):
    """Random time-ordered canonical rows around a year end, month ends and
    two Feb 29s, with offsets that move the UTC day across midnight, and
    every fifth instant written twice (with different offsets and prices)."""
    rng = np.random.default_rng(seed)
    epoch = dt.datetime(1970, 1, 1)
    days = [dt.date(1999, 12, 31), dt.date(2000, 2, 29), dt.date(2003, 4, 30),
            dt.date(2003, 12, 31), dt.date(2004, 2, 28), dt.date(2004, 2, 29),
            dt.date(2100, 2, 28)]
    utc = np.sort(np.concatenate([
        (dt.datetime.combine(d, dt.time()) - epoch).days * 86_400
        + rng.integers(-86_400, 2 * 86_400, n // len(days)) for d in days]))
    utc = np.repeat(utc, np.where(np.arange(len(utc)) % 5 == 0, 2, 1))
    rows = ["timestamp,price"]
    for u in utc.tolist():
        off = int(rng.integers(-1439, 1440))
        local = epoch + dt.timedelta(seconds=u + off * 60)
        sign = "+" if off >= 0 else "-"
        price = float(rng.lognormal(3.0, 2.0))
        rows.append(f"{local.isoformat()}{sign}{abs(off) // 60:02d}:{abs(off) % 60:02d},"
                    f"{price!r}")
    return "\n".join(rows) + "\n"


class TestArrayPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_canonical_files_match_per_line_parser(self, seed, monkeypatch, window_rows):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 100)  # duplicates straddle window edges
        text = canonical_file(seed, 700)
        assert canonical(text) is not None
        assert max(window_rows) <= 4 and sum(window_rows) == text.count("\n") - 1
        assert outcome(array_path, text) == outcome(per_line, text)

    def test_duplicate_across_chunk_boundary_keeps_last_price(self, monkeypatch, window_rows):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 40)  # a window ends after row 2
        text = ("timestamp,price\n2004-02-29T23:00:00+00:00,1.0\n"
                "2004-02-29T23:30:00+00:00,2.0\n2004-03-01T01:30:00+02:00,3.0\n")
        assert canonical(text) is not None
        assert window_rows == [2, 1]
        ticks = array_path(text)
        assert ticks.prices.tolist() == [1.0, 3.0]
        assert outcome(array_path, text) == outcome(per_line, text)

    @pytest.mark.parametrize("text", [
        f"timestamp,price\n{ROW},50.0\n2001-03-05T10:00:01+00:00,51.0",  # no final line end
        f"\ufefftimestamp,price\n{ROW},50.0\n",
        f"\ufeff\ufeffTimestamp,Price\n{ROW},50.0\n",
    ])
    def test_missing_final_line_end_and_bom_take_array_path(self, text):
        assert canonical(text) is not None
        assert outcome(array_path, text) == outcome(per_line, text)

    @pytest.mark.parametrize("budget", [1 << 20, 40])  # 40: a window ends on the last row
    @pytest.mark.parametrize("text", [
        f"timestamp,price\n{ROW},50.0\n2001-03-05T10:00:01+00:00,51.0\n\n",
        f"timestamp,price\n{ROW},50.0\n2001-03-05T10:00:01+00:00,51.0\n\n\n",
        "timestamp,price\n\n",
        "timestamp,price",
        "",
    ])
    def test_trailing_blank_lines_and_empty_bodies_match_per_line_parser(self, text, budget,
                                                                        monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", budget)
        assert canonical(text) is None  # a blank row goes row by row
        assert outcome(array_path, text) == outcome(per_line, text)

    @pytest.mark.parametrize("price", [
        "1.", ".5", "1E-5", "+1", "1e", "e5", "1.2.3", "--1", "1e500", "0", "-0.0",
        "nan", "inf", "1_0", " 1.0", "", "1.5\0", "1." + "0" * 100, "1.5\r", "1.5\u00e9",
    ])
    def test_prices_match_per_line_parser(self, price):
        text = f"timestamp,price\n{ROW},50.0\n2001-03-05T10:00:01+00:00,{price}\n"
        assert outcome(array_path, text) == outcome(per_line, text)
        if set(price) - set("0123456789.eE+-"):  # left to Python's float, whatever numpy accepts
            assert canonical(text) is None

    @pytest.mark.parametrize("rows", [
        [f"{ROW},50.0", "", "2001-03-05T10:00:01+00:00,51.0"],
        [f"{ROW},50.0,1"],
        ["2001-03-05T10:00:00Z,50.0"],
        ["2001-03-05T10:00:00.123456+00:00,50.0"],
        ["2001-03-05 10:00:00+00:00,50.0"],
        ["2001-03-05T10:00:00+24:00,50.0"],
        ["2001-02-30T10:00:00+00:00,50.0"],
        ["2001-03-05T24:00:00+00:00,50.0"],
        ["2001-03-05T10:00:05+00:00,50.0", f"{ROW},51.0"],
        ["2001-03-05T10:00:00-00:30,50.0", "2001-03-05T10:00:00+00:00,51.0"],
        ["0001-01-01T00:30:00+01:00,50.0"],
        ["9999-12-31T23:30:00-01:00,50.0"],
        ["0000-01-01T10:00:00+00:00,50.0"],
        ["2100-02-29T10:00:00+00:00,50.0"],
        ["2001-13-05T10:00:00+00:00,50.0"],
        ["2001-03-00T10:00:00+00:00,50.0"],
        ["2001-03-05T10:60:00+00:00,50.0"],
        ["2001-03-05T10:00:60+00:00,50.0"],
        ["2001-03-05T10:00:00+05:60,50.0"],
        ["2001-03-05T10:00:00+23:60,50.0"],
    ])
    def test_irregular_rows_match_per_line_parser(self, rows):
        text = "timestamp,price\n" + "\n".join(rows) + "\n"
        assert outcome(array_path, text) == outcome(per_line, text)

    @pytest.mark.parametrize("rows, array_parse", [
        # one date, three offsets: the rows share their date bytes but not a UTC day
        (["2001-03-05T10:00:00+05:00,50.0", "2001-03-05T09:00:00-03:00,51.0",
          "2001-03-05T23:30:00-03:00,52.0", "2001-03-06T08:00:00+05:00,53.0"], True),
        # offsets that move UTC back over the year end, then forward over it
        (["2003-12-31T20:00:00+00:00,50.0", "2004-01-01T00:30:00+03:00,51.0",
          "2003-12-31T23:00:00-02:00,52.0", "2004-01-01T01:30:00+00:00,53.0"], True),
        # impossible dates that start a run in the middle of a window
        (["2003-02-28T10:00:00+00:00,50.0", "2003-02-28T11:00:00+00:00,50.5",
          "2003-02-29T10:00:00+00:00,51.0", "2003-02-29T11:00:00+00:00,52.0",
          "2003-03-01T10:00:00+00:00,53.0"], False),
        (["2004-04-30T10:00:00+00:00,50.0", "2004-04-31T10:00:00+00:00,51.0",
          "2004-04-31T11:00:00+00:00,52.0"], False),
        # the extreme years with the widest offsets on either side
        (["0002-01-01T00:00:00+23:59,50.0", "0002-01-01T00:00:00-23:59,51.0",
          "9998-12-31T23:59:59+23:59,52.0", "9998-12-31T23:59:59-23:59,53.0"], True),
    ])
    def test_date_runs_match_per_line_parser(self, rows, array_parse, window_rows):
        text = "timestamp,price\n" + "\n".join(rows) + "\n"
        assert (canonical(text) is not None) == array_parse
        assert window_rows[0] == len(rows)  # every row in one window
        assert outcome(array_path, text) == outcome(per_line, text)

    def test_overlong_row_goes_row_by_row(self):
        text = f"timestamp,price\n{ROW},1.{'0' * 36}\n2001-03-05T10:00:01+00:00,1.{'0' * 37}\n"
        assert canonical(text) is None  # a 39-byte price
        assert canonical(text.replace("0" * 37, "0" * 36)) is not None
        assert outcome(array_path, text) == outcome(per_line, text)

    def test_fixtures_never_fall_back(self, monkeypatch):
        def per_line_parser_called(*_):
            raise AssertionError("per-line parser used")

        monkeypatch.setattr(ingest, "_parse_timestamp", per_line_parser_called)
        for path in sorted(DATA.glob("ticks_*.csv")):
            assert len(load_ticks(path, path.stem)) > 1000

    def test_peak_memory_grows_with_file_bytes_not_copies(self, tmp_path, monkeypatch):
        """Doubling the rows adds less than twice the added file bytes to the
        peak: the file's bytes, the 16-byte arrays per row and one window."""
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 4096)
        start = np.datetime64("2003-11-17T00:00:00", "s")
        sizes, peaks = [], []
        for n in (20_000, 40_000):
            stamps = np.datetime_as_string(start + np.arange(n) * 7).tolist()
            prices = (25.0 + np.arange(n) * 1e-4).tolist()
            path = tmp_path / f"ticks_{n}.csv"
            path.write_text("timestamp,price\n" + "".join(
                f"{s}+00:00,{p!r}\n" for s, p in zip(stamps, prices)))
            tracemalloc.start()
            try:
                assert len(load_ticks(path, "CO")) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(path.stat().st_size)
        assert peaks[1] - peaks[0] < 2 * (sizes[1] - sizes[0])


class TestFilterCalendar:
    def test_saturday_removed(self):
        ts = load_ticks(ticks_csv([
            "2001-03-02T10:00:00+00:00,50.0",   # Friday
            "2001-03-03T10:00:00+00:00,51.0",   # Saturday
        ]), "CO")
        kept = filter_calendar(ts)
        assert len(kept) == 1
        assert kept.prices[0] == 50.0

    def test_fixed_window_removes_christmas(self):
        ts = load_ticks(ticks_csv([
            "2001-12-20T10:00:00+00:00,50.0",   # Thursday
            "2001-12-25T10:00:00+00:00,51.0",   # Tuesday, inside Dec 24-26
        ]), "CO")
        kept = filter_calendar(ts)
        assert kept.timestamps.tolist() == [np.datetime64("2001-12-20T10:00:00", "us")]

    def test_year_wrap_window(self):
        ts = load_ticks(ticks_csv([
            "2001-12-31T10:00:00+00:00,50.0",   # Monday
            "2002-01-02T10:00:00+00:00,51.0",   # Wednesday
            "2002-01-03T10:00:00+00:00,52.0",   # Thursday
        ]), "CO")
        kept = filter_calendar(ts)
        assert kept.timestamps.tolist() == [np.datetime64("2002-01-03T10:00:00", "us")]

    def test_no_excluded_day_identity(self):
        ts = load_ticks(ticks_csv([
            "2001-03-02T10:00:00+00:00,50.0",   # Friday
            "2001-12-27T10:00:00+00:00,51.0",   # Thursday, between the windows
        ]), "CO")
        kept = filter_calendar(ts)
        assert np.array_equal(kept.prices, ts.prices)

    def test_holidays_removed(self):
        ts = load_ticks(ticks_csv([
            "2001-03-05T10:00:00+00:00,50.0",   # Monday
            "2001-03-06T10:00:00+00:00,51.0",   # Tuesday, a holiday
        ]), "CO")
        kept = filter_calendar(ts, [dt.date(2001, 3, 6)])
        assert kept.prices.tolist() == [50.0]

    def test_every_day_excluded_is_data_error(self):
        ts = load_ticks(ticks_csv(["2001-03-03T10:00:00+00:00,50.0"]), "CO")  # Saturday
        with pytest.raises(DataError, match="exclude every observation"):
            filter_calendar(ts)

    @pytest.mark.parametrize("holidays", [frozenset(), frozenset(
        dt.date(2000, 1, 1) + dt.timedelta(days=int(i))
        for i in np.random.default_rng(3).choice(12_000, 300, replace=False))])
    def test_matches_rule_oracle_day_by_day(self, holidays):
        """One tick at noon UTC on every day from 1999 to 2031: the days kept
        are exactly those the generic exclusion-window rule keeps."""
        days = np.arange("1999-01-01", "2032-01-01", dtype="datetime64[D]")
        ts = TickSeries("CO", days.astype("datetime64[us]") + np.timedelta64(12, "h"),
                        np.ones(len(days)))
        kept = filter_calendar(ts, holidays).timestamps.astype("datetime64[D]").tolist()
        assert kept == [d for d in days.tolist() if not calendar_excludes(d, holidays)]

    def test_idempotent(self):
        ts = load_ticks(ticks_csv([
            "2001-03-02T10:00:00+00:00,50.0",
            "2001-03-03T10:00:00+00:00,51.0",
            "2001-12-25T10:00:00+00:00,52.0",
        ]), "CO")
        once = filter_calendar(ts)
        twice = filter_calendar(once)
        assert np.array_equal(once.prices, twice.prices)
        assert np.array_equal(once.timestamps, twice.timestamps)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_day_runs_match_unique_days(self, seed):
        ticks = array_path(canonical_file(seed, 700))
        days, first = ingest._day_runs(ticks.timestamps)
        want_days, want_first = np.unique(ticks.timestamps.astype("datetime64[D]"),
                                          return_index=True)
        assert np.array_equal(days, want_days) and np.array_equal(first, want_first)


def minute_ticks(pairs, day="2001-03-05"):
    rows = [f"{day}T{hhmmss}+00:00,{price!r}" for hhmmss, price in pairs]
    return load_ticks(ticks_csv(rows), "CO")


class TestResampleGrid:
    def test_constant_price_gives_zero_returns(self):
        ts = minute_ticks([("00:01:00", 100.0), ("12:00:00", 100.0)])
        (grid,) = resample_grid(ts)
        assert len(grid.returns) > 0
        assert (grid.returns == 0.0).all()

    def test_single_return_across_one_boundary(self):
        ts = minute_ticks([("00:02:00", 100.0), ("00:06:00", 100.0 * math.exp(0.01))])
        (grid,) = resample_grid(ts, spacing=dt.timedelta(minutes=5), session=(0, 600))
        assert grid.returns.shape == (1,)
        assert grid.returns[0] == pytest.approx(0.01, abs=1e-12)

    def test_tick_exactly_on_grid_point(self):
        ts = minute_ticks([("00:05:00", 100.0), ("00:07:00", 200.0)])
        (grid,) = resample_grid(ts, spacing=dt.timedelta(minutes=5), session=(0, 900))
        # grid prices: 00:05 -> 100 (at-or-before), 00:10 and 00:15 -> 200
        assert grid.returns == pytest.approx([math.log(2.0), 0.0])

    def test_prices_already_on_grid_reproduce_returns(self):
        prices = [100.0, 101.0, 99.5, 102.0]
        times = ["00:00:00", "00:05:00", "00:10:00", "00:15:00"]
        ts = minute_ticks(list(zip(times, prices)))
        (grid,) = resample_grid(ts, spacing=dt.timedelta(minutes=5), session=(0, 900))
        expected = np.diff(np.log(prices))
        assert np.array_equal(grid.returns, expected)

    def test_thin_day_skipped_with_warning(self, caplog):
        ts = minute_ticks([("23:58:00", 100.0)])
        with caplog.at_level("WARNING", logger="freqconn.ingest"):
            grids = resample_grid(ts)
        assert grids == []
        assert any("day_skipped" in rec.message for rec in caplog.records)

    def test_spacing_must_divide_session(self):
        ts = minute_ticks([("00:01:00", 100.0)])
        with pytest.raises(UsageError, match="divide"):
            resample_grid(ts, spacing=dt.timedelta(minutes=7), session=(0, 600))


GRIDS = {"5 min, whole day": (5, (0, 86_400)), "1 min, 08:00-16:00": (1, (8 * 3600, 16 * 3600))}


def assert_matches_per_day(ticks, grid, caplog, block_days):
    """Bit-for-bit the per-day oracle's returns, skipped days and warnings."""
    minutes, session = GRIDS[grid]
    block_days((session[1] - session[0]) // (minutes * 60) + 1)
    caplog.clear()
    with caplog.at_level("WARNING", logger="freqconn.ingest"):
        got = resample_grid(ticks, spacing=dt.timedelta(minutes=minutes), session=session)
    want, skipped = resample_per_day(ticks, minutes * 60, session)
    assert [(g.trading_day, g.returns.tobytes()) for g in got] == [
        (day, r.tobytes()) for day, r in want]
    assert [rec.getMessage() for rec in caplog.records] == [
        f"day_skipped symbol={ticks.symbol} date={day} reason=insufficient_grid_prices"
        for day in skipped]
    return got, skipped


@pytest.fixture(params=[0, 1, 2], ids=["default block", "1-day blocks", "2-day blocks"])
def block_days(request, monkeypatch):
    """Sets the resample block to the default, or to one or two days of a
    grid of the given points per day, so that runs of days straddle block
    edges."""
    def set_for(points_per_day):
        if request.param:
            monkeypatch.setattr(ingest, "_BLOCK_POINTS", request.param * points_per_day)
    return set_for


class TestResampleMatchesPerDay:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_fixtures(self, grid, block_days, caplog):
        for path in sorted(DATA.glob("ticks_*.csv")):
            ticks = filter_calendar(load_ticks(path, path.stem))
            got, _ = assert_matches_per_day(ticks, grid, caplog, block_days)
            assert len(got) == 5

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_canonical_files(self, seed, grid, block_days, caplog):
        ticks = array_path(canonical_file(seed, 700))
        got, _ = assert_matches_per_day(ticks, grid, caplog, block_days)
        assert len(got) > 7

    @pytest.mark.parametrize("grid", GRIDS)
    def test_edge_days(self, grid, block_days, caplog):
        stamps = [
            "2001-03-05T10:00:00", "2001-03-05T23:00:00",
            "2001-03-06T00:00:00",  # on the 5th's last grid point of a whole day
            "2001-03-06T15:59:00", "2001-03-06T16:00:00",
            "2001-03-07T23:58:00",  # one priced point on a whole-day grid
            "2001-03-08T16:30:00", "2001-03-08T17:00:00",  # after 16:00: none priced
            "2001-03-09T08:00:00", "2001-03-09T12:00:00",
            "2001-03-10T23:59:59",  # alone, after a session's last grid point
        ]
        ticks = TickSeries("CO", np.array(stamps, dtype="datetime64[us]"),
                           100.0 + np.arange(len(stamps)))
        got, skipped = assert_matches_per_day(ticks, grid, caplog, block_days)
        first_day = {g.trading_day: g.returns for g in got}[dt.date(2001, 3, 5)]
        # the whole day's 24:00 point takes the 5th's last price, not the 6th's first
        want = math.log(101.0 / 100.0) if GRIDS[grid][1][1] == 86_400 else 0.0
        assert first_day.sum() == pytest.approx(want, abs=1e-15)
        assert dt.date(2001, 3, 10) in skipped


def day_of(returns):
    return ReturnGrid("CO", dt.date(2001, 3, 5), np.asarray(returns, dtype=float))


class TestBipowerVariation:
    def test_constant_returns_closed_form(self):
        n, c = 78, 0.01
        bpv = bipower_variation(day_of([c] * n))
        assert bpv == pytest.approx((math.pi / 2) * (n - 1) * c**2, rel=1e-13)

    def test_zero_interleaved_returns_give_zero(self):
        assert bipower_variation(day_of([0.01, 0.0, 0.01])) == 0.0

    def test_isolated_jump_gives_zero(self):
        assert bipower_variation(day_of([0.0, 0.0, 5.0, 0.0, 0.0])) == 0.0

    def test_too_few_returns(self):
        with pytest.raises(DataError, match="insufficient intraday returns"):
            bipower_variation(day_of([0.01]))

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal(78) * 0.01
        assert bipower_variation(day_of(r)) == bipower_variation(day_of(-r))

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal(78) * 0.01
        assert bipower_variation(day_of(3.0 * r)) == pytest.approx(
            9.0 * bipower_variation(day_of(r)), rel=1e-12)


class TestBuildPanel:
    def make_inputs(self):
        d = [dt.date(2001, 3, i) for i in range(5, 9)]
        return {
            "CO": [(d[0], 1e-4), (d[1], 2e-4), (d[2], 3e-4), (d[3], 4e-4)],
            "HO": [(d[0], 2e-4), (d[1], 1e-4), (d[3], 5e-4)],
        }

    def test_inner_join_on_dates(self):
        panel = build_panel(self.make_inputs(), transform="raw")
        assert panel.shape == (3, 2)
        assert panel.dates == (dt.date(2001, 3, 5), dt.date(2001, 3, 6), dt.date(2001, 3, 8))

    def test_raw_transform_is_identity(self):
        panel = build_panel(self.make_inputs(), transform="raw")
        assert panel.values[0].tolist() == [1e-4, 2e-4]

    def test_log_transform_is_log_of_sqrt(self):
        panel = build_panel(self.make_inputs(), transform="log")
        assert panel.values[0, 0] == pytest.approx(math.log(0.01), abs=1e-12)

    def test_log_of_nonpositive_names_cell(self):
        bad = self.make_inputs()
        bad["CO"][1] = (dt.date(2001, 3, 6), 0.0)
        with pytest.raises(DataError, match="CO 2001-03-06"):
            build_panel(bad, transform="log")

    def test_empty_intersection(self):
        with pytest.raises(DataError, match="no dates shared"):
            build_panel({
                "CO": [(dt.date(2001, 3, 5), 1e-4)],
                "HO": [(dt.date(2001, 3, 6), 1e-4)],
            })

    def test_needs_two_symbols(self):
        with pytest.raises(DataError, match="2 symbols"):
            build_panel({"CO": [(dt.date(2001, 3, 5), 1e-4)]})


class TestSummaryStats:
    def test_constant_column_markers(self):
        dates = tuple(dt.date(2001, 3, 5 + i) for i in range(3))
        panel = build_panel({
            "A": [(d, 2.0) for d in dates],
            "B": [(d, float(v)) for d, v in zip(dates, (1, 2, 3))],
        }, transform="raw")
        stats = summary_stats(panel)
        assert stats.mean.tolist() == [2.0, 2.0]
        assert stats.median.tolist() == [2.0, 2.0]
        assert stats.std[0] == 0.0
        assert math.isnan(stats.skewness[0]) and math.isnan(stats.kurtosis[0])
        assert not math.isnan(stats.skewness[1])

    def test_raw_moments_match_direct_computation(self):
        rng = np.random.default_rng(11)
        dates = tuple(dt.date(2001, 3, 1) + dt.timedelta(days=i) for i in range(200))
        cols = {s: [(d, float(v)) for d, v in zip(dates, rng.lognormal(size=200))]
                for s in ("A", "B")}
        panel = build_panel(cols, transform="raw")
        stats = summary_stats(panel)
        x = panel.values
        assert stats.mean == pytest.approx(x.mean(axis=0), rel=1e-12)
        assert stats.std == pytest.approx(x.std(axis=0, ddof=1), rel=1e-12)
        m = x - x.mean(axis=0)
        skew = (m**3).mean(axis=0) / ((m**2).mean(axis=0)) ** 1.5
        kurt = (m**4).mean(axis=0) / ((m**2).mean(axis=0)) ** 2
        assert stats.skewness == pytest.approx(skew, rel=1e-12)
        assert stats.kurtosis == pytest.approx(kurt, rel=1e-12)


class TestSynthVarPanel:
    def test_white_noise_covariance(self):
        model = make_model(np.zeros((2, 2)), np.eye(2))
        panel = synth_var_panel(model, 50_000, seed=3)
        cov = np.cov(panel.values.T)
        assert np.abs(cov - np.eye(2)).max() < 0.02

    def test_same_seed_bit_identical(self):
        model = make_model([[0.5, 0.2], [0.1, 0.5]], np.eye(2))
        a = synth_var_panel(model, 500, seed=42)
        b = synth_var_panel(model, 500, seed=42)
        assert np.array_equal(a.values, b.values)
        assert a.dates == b.dates

    def test_lyapunov_oracle(self):
        from oracles import lyapunov_cov

        phi1 = np.array([[0.5, 0.2], [0.1, 0.5]])
        model = make_model(phi1, np.eye(2))
        panel = synth_var_panel(model, 100_000, seed=5)
        x = panel.values - panel.values.mean(axis=0)
        gamma0 = x.T @ x / len(x)
        truth = lyapunov_cov(phi1, np.eye(2))
        assert np.abs(gamma0 - truth).max() / np.abs(truth).max() < 0.02
        gamma1 = x[1:].T @ x[:-1] / (len(x) - 1)
        assert np.abs(gamma1 - phi1 @ truth).max() / np.abs(truth).max() < 0.02

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_batched_replicate_equals_single_seed_run(self, k):
        model = make_model([0.4 * np.eye(k), 0.2 * np.eye(k)], 0.5 * np.eye(k) + 0.5)
        batch = simulate_var(model, 300, [(7000, 3, r) for r in range(4)])
        assert batch.shape == (4, 300, k)
        for r in range(4):
            assert np.array_equal(batch[r], simulate_var(model, 300, [(7000, 3, r)])[0])

    def test_unstable_generator_rejected(self):
        model = make_model(np.eye(2), np.eye(2))
        with pytest.raises(NumericError, match="unstable"):
            synth_var_panel(model, 100, seed=0)


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        model = make_model([[0.5, 0.2], [0.1, 0.5]], np.eye(2), names=("CO", "HO"))
        panel = synth_var_panel(model, 50, seed=9)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert back.symbols == panel.symbols
        assert back.dates == panel.dates
        assert np.array_equal(back.values, panel.values)

    def test_rejects_single_symbol(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,CO\n2001-03-05,1.0\n")
        with pytest.raises(DataError):
            read_panel_csv(path)
