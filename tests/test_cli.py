import math
from pathlib import Path

import numpy as np
import pytest

from freqconn import dynamics
from freqconn.cli import (
    _OPTIONS,
    build_parser,
    default_synth_model,
    main,
    parse_band_string,
    parse_session,
)
from freqconn.errors import UsageError
from freqconn.varcore import model_from_text, model_to_text
from helpers import make_model

DATA = Path(__file__).parent / "data"
TICKS = [str(DATA / "ticks_CO.csv"), str(DATA / "ticks_HO.csv")]


def run(argv):
    return main(argv)


def read_kv(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir()) if p.is_file()}


class TestParsing:
    def test_band_string(self):
        short, long_ = parse_band_string("1:5,5:inf")
        assert short.lower == pytest.approx(math.pi / 5)
        assert short.upper == pytest.approx(math.pi)
        assert long_.lower == 0.0

    def test_inverted_band_string_rejected(self):
        with pytest.raises(UsageError):
            parse_band_string("5:1")

    def test_session_parsing(self):
        assert parse_session("00:00-24:00") == (0, 86400)
        assert parse_session("08:30-16:00") == (8 * 3600 + 1800, 16 * 3600)
        with pytest.raises(UsageError):
            parse_session("8am-4pm")


class TestRv:
    def test_golden_file(self, tmp_path):
        # committed golden output; first run verified against an independent
        # loop-based resample + BPV computation (see data/generate_ticks.py)
        assert run(["rv", *TICKS, "--symbols", "CO,HO", "--transform", "log",
                    "--out", str(tmp_path)]) == 0
        golden = (DATA / "golden_rv_CO.csv").read_bytes()
        assert (tmp_path / "rv_CO.csv").read_bytes() == golden

    def test_saturday_exclusions_logged(self, tmp_path):
        run(["rv", TICKS[0], "--out", str(tmp_path)])
        logtext = (tmp_path / "run.log").read_text()
        assert "calendar_excluded symbol=ticks_CO rows=180" in logtext
        assert not (tmp_path / "panel.csv").exists()  # single symbol, no panel

    def test_constant_price_gives_zero_rv(self, tmp_path):
        rows = ["timestamp,price"]
        for day in ("2001-03-05", "2001-03-06"):
            for hh in range(8, 16):
                rows.append(f"{day}T{hh:02d}:00:00+00:00,50.0")
        src = tmp_path / "FLAT.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run(["rv", str(src), "--out", str(out)]) == 0
        values = [float(line.split(",")[1])
                  for line in (out / "rv_FLAT.csv").read_text().splitlines()[1:]]
        assert values == [0.0, 0.0]

    def test_zero_bpv_day_left_out_of_panel(self, tmp_path):
        # two ticks 12 minutes apart give no two adjacent non-zero returns
        co = (DATA / "ticks_CO.csv").read_text().splitlines()
        rows = ["timestamp,price", "2001-03-05T09:00:00+00:00,25.0",
                "2001-03-05T09:12:00+00:00,25.1"]
        rows += [line for line in co[1:] if not line.startswith("2001-03-05")]
        src = tmp_path / "C.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run(["rv", str(src), TICKS[1], "--out", str(out)]) == 0
        assert "2001-03-05,0.0" in (out / "rv_C.csv").read_text().splitlines()
        assert "day_dropped symbol=C date=2001-03-05 reason=non_positive_bpv" in (
            out / "run.log").read_text().splitlines()
        dates = [line.split(",")[0] for line in (out / "panel.csv").read_text().splitlines()[1:]]
        assert "2001-03-05" not in dates and len(dates) == 4

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00",
                                       "9999-12-31T23:30:00-01:00"])
    def test_utc_shift_out_of_range_is_data_error(self, stamp, tmp_path, capsys):
        src = tmp_path / "EDGE.csv"
        src.write_text(f"timestamp,price\n{stamp},50.0\n")
        assert run(["rv", str(src), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("data error: line 2: ")

    def test_non_utf8_ticks_are_data_error(self, tmp_path, capsys):
        src = tmp_path / "BAD.csv"
        raw = b"timestamp,price\n2001-03-05T10:00:00+00:00,5\xff\n"
        src.write_bytes(raw)
        assert run(["rv", str(src), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: {src}: not UTF-8 text at byte offset {raw.index(0xff)}\n")

    def test_non_utf8_holidays_are_data_error(self, tmp_path, capsys):
        holidays = tmp_path / "holidays.txt"
        raw = b"2001-03-05\n2001-03-0\xff\n"
        holidays.write_bytes(raw)
        assert run(["rv", *TICKS, "--holidays", str(holidays),
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: {holidays}: not UTF-8 text at byte offset {raw.index(0xff)}\n")

    def test_summary_stats_table_layout(self, tmp_path):
        run(["rv", *TICKS, "--symbols", "CO,HO", "--out", str(tmp_path)])
        lines = (tmp_path / "summary_stats.csv").read_text().splitlines()
        assert lines[0] == "statistic,CO,HO"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "mean", "median", "std", "skewness", "kurtosis"]


class TestSynthAndFit:
    def test_synth_panel_header(self, tmp_path):
        assert run(["synth", "--k", "3", "--periods", "400", "--seed", "7",
                    "--out", str(tmp_path)]) == 0
        header = (tmp_path / "panel.csv").read_text().splitlines()[0]
        assert header == "date,V1,V2,V3"

    def test_non_utf8_model_is_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        raw = model_to_text(make_model(np.diag([0.5, 0.3]), np.eye(2))).encode() + b"# \xff\n"
        model_path.write_bytes(raw)
        assert run(["synth", "--model", str(model_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: {model_path}: not UTF-8 text at byte offset {raw.index(0xff)}\n")

    def test_truth_sidecar_diagonal_model_total_zero(self, tmp_path):
        model = make_model(np.diag([0.5, 0.3]), np.diag([1.0, 2.0]))
        model_path = tmp_path / "model.txt"
        model_path.write_text(model_to_text(model))
        out = tmp_path / "out"
        assert run(["synth", "--model", str(model_path), "--periods", "300",
                    "--out", str(out)]) == 0
        truths = {}
        for line in (out / "truth.txt").read_text().splitlines():
            if line.startswith("truth: "):
                mid, value = line[len("truth: "):].rsplit(" ", 1)
                truths[mid] = float(value)
        assert truths["total"] == 0.0
        assert abs(truths["abs_total@1-5 days"]) < 1e-12

    def test_truth_band_totals_reconstruct(self, tmp_path):
        assert run(["synth", "--k", "3", "--periods", "300", "--seed", "3",
                    "--out", str(tmp_path)]) == 0
        text = (tmp_path / "truth.txt").read_text()
        residual = float(next(l for l in text.splitlines()
                              if l.startswith("truth_reconstruction_residual:")).split(":")[1])
        assert residual < 1e-12

    def test_fit_round_trip(self, tmp_path):
        run(["synth", "--k", "2", "--periods", "800", "--seed", "5", "--out", str(tmp_path)])
        out = tmp_path / "fit"
        assert run(["fit", str(tmp_path / "panel.csv"), "--lags", "2",
                    "--out", str(out)]) == 0
        model = model_from_text((out / "var_model.txt").read_text())
        assert model.k == 2 and model.p == 2
        assert model.is_stable


class TestConnect:
    def test_reconciliation_residual_small(self, tmp_path):
        run(["synth", "--k", "3", "--periods", "1200", "--seed", "11", "--out", str(tmp_path)])
        out = tmp_path / "conn"
        assert run(["connect", str(tmp_path / "panel.csv"), "--out", str(out)]) == 0
        report = read_kv(out / "report.txt")
        assert float(report["reconstruction_residual"]) < 1e-12
        table_lines = (out / "connectedness_table.csv").read_text().splitlines()
        assert table_lines[0] == ",V1,V2,V3"
        assert len(table_lines) == 4
        band_csv = (out / "band_measures.csv").read_text().splitlines()
        assert band_csv[0] == "band,measure,variable_i,variable_j,value"

    def test_diagonal_panel_reports_near_zero_totals(self, tmp_path):
        model = make_model(np.diag([0.5, 0.3, 0.2]), np.diag([1.0, 2.0, 0.5]))
        model_path = tmp_path / "model.txt"
        model_path.write_text(model_to_text(model))
        run(["synth", "--model", str(model_path), "--periods", "5000", "--seed", "44",
             "--out", str(tmp_path)])
        out = tmp_path / "conn"
        assert run(["connect", str(tmp_path / "panel.csv"), "--out", str(out)]) == 0
        report = read_kv(out / "report.txt")
        # no cross-dynamics in truth: fitted totals are estimation noise only
        assert float(report["time_domain_total"]) < 0.05
        for line in (out / "band_measures.csv").read_text().splitlines()[1:]:
            band, measure, _, _, value = line.split(",")
            if measure in ("within_total", "absolute_total"):
                assert abs(float(value)) < 0.05, (band, measure, value)

    def test_non_partition_bands_reported(self, tmp_path):
        run(["synth", "--k", "2", "--periods", "900", "--seed", "12", "--out", str(tmp_path)])
        out = tmp_path / "conn"
        assert run(["connect", str(tmp_path / "panel.csv"), "--bands", "1:5",
                    "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "not_computed" in report

    def test_bad_band_string_is_usage_error(self, tmp_path, capsys):
        run(["synth", "--k", "2", "--periods", "900", "--seed", "12", "--out", str(tmp_path)])
        code = run(["connect", str(tmp_path / "panel.csv"), "--bands", "5:1",
                    "--out", str(tmp_path / "x")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_panel_is_data_error(self, tmp_path):
        assert run(["connect", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2

    def test_non_utf8_panel_is_data_error(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        raw = b"date,A,B\n2001-01-01,1.0,\xff\n"
        panel.write_bytes(raw)
        assert run(["connect", str(panel), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: {panel}: not UTF-8 text at byte offset {raw.index(0xff)}\n")

    def test_collinear_panel_is_numeric_error(self, tmp_path):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(300)
        lines = ["date,A,B"]
        day0 = np.datetime64("2001-01-01")
        for i, v in enumerate(col):
            lines.append(f"{day0 + i},{float(v)!r},{float(2 * v)!r}")
        panel = tmp_path / "collinear.csv"
        panel.write_text("\n".join(lines) + "\n")
        assert run(["connect", str(panel), "--out", str(tmp_path / "out")]) == 3


class TestRoll:
    def test_single_window_matches_connect(self, tmp_path):
        run(["synth", "--k", "2", "--periods", "300", "--seed", "21", "--out", str(tmp_path)])
        panel = str(tmp_path / "panel.csv")
        conn_out, roll_out = tmp_path / "conn", tmp_path / "roll"
        run(["connect", panel, "--out", str(conn_out)])
        assert run(["roll", panel, "--window", "300", "--out", str(roll_out)]) == 0
        rows = (roll_out / "rolling.csv").read_text().splitlines()[1:]
        assert len({r.split(",")[0] for r in rows}) == 1  # single anchor date
        total_cell = next(r.split(",")[3] for r in rows if r.split(",")[1] == "total")
        report = read_kv(conn_out / "report.txt")
        assert total_cell == report["time_domain_total"]

    def test_bootstrap_run_is_deterministic(self, tmp_path):
        run(["synth", "--k", "2", "--periods", "260", "--seed", "22", "--out", str(tmp_path)])
        panel = str(tmp_path / "panel.csv")
        out = tmp_path / "roll"
        snapshots = []
        for _ in range(2):  # identical config including out dir -> identical bytes
            assert run(["roll", panel, "--window", "250", "--step", "5", "--boot", "100",
                        "--significance", "0.1", "--seed", "9", "--out", str(out)]) == 0
            snapshots.append(tree_bytes(out))
        assert snapshots[0] == snapshots[1]

    def test_bootstrap_golden_file(self, tmp_path):
        # committed output of this exact run; pins the bootstrap numbers, not
        # only run-to-run determinism
        run(["synth", "--k", "2", "--periods", "280", "--seed", "31", "--out", str(tmp_path)])
        out = tmp_path / "roll"
        assert run(["roll", str(tmp_path / "panel.csv"), "--window", "250", "--step", "10",
                    "--bands", "1:5,5:inf", "--boot", "100", "--significance", "0.1",
                    "--seed", "4", "--out", str(out)]) == 0
        got = (out / "rolling.csv").read_text().splitlines()
        want = (DATA / "rolling.csv").read_text().splitlines()
        assert got[0] == want[0] and len(got) == len(want)
        for g, w in zip(got[1:], want[1:]):
            g, w = g.split(","), w.split(",")
            assert g[:3] == w[:3]
            for a, b in zip(g[3:], w[3:]):
                assert a == b if "" in (a, b) else abs(float(a) - float(b)) <= 1e-12

    def test_ratios_and_trends_emitted(self, tmp_path):
        run(["synth", "--k", "2", "--periods", "700", "--seed", "23", "--out", str(tmp_path)])
        out = tmp_path / "roll"
        assert run(["roll", str(tmp_path / "panel.csv"), "--window", "500", "--step", "20",
                    "--ratios", "--out", str(out)]) == 0
        ratios = (out / "ratios.csv").read_text().splitlines()
        assert ratios[0] == "date,measure,value"
        trends = (out / "trends.csv").read_text().splitlines()
        assert trends[0] == "measure,slope,intercept,r_squared"
        assert any(l.startswith("ratio.within_total,") for l in trends[1:])

    def test_stationary_total_trend_indistinguishable_from_zero(self, tmp_path):
        run(["synth", "--k", "2", "--periods", "2500", "--seed", "24", "--out", str(tmp_path)])
        out = tmp_path / "roll"
        assert run(["roll", str(tmp_path / "panel.csv"), "--window", "500", "--step", "500",
                    "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "rolling.csv").read_text().splitlines()[1:]]
        totals = np.array([float(r[3]) for r in rows if r[1] == "total"])
        x = np.arange(len(totals), dtype=float)
        xc = x - x.mean()
        slope = float(xc @ (totals - totals.mean()) / (xc @ xc))
        resid = totals - totals.mean() - slope * xc
        se = math.sqrt(float(resid @ resid) / (len(totals) - 2) / float(xc @ xc))
        assert abs(slope) < 3 * se

    def test_events_annotated_in_meta(self, tmp_path):
        run(["synth", "--k", "2", "--periods", "300", "--seed", "25", "--out", str(tmp_path)])
        events = tmp_path / "events.csv"
        events.write_text("date,label\n2000-10-02,shock one\n1990-01-01,too early\n")
        out = tmp_path / "roll"
        assert run(["roll", str(tmp_path / "panel.csv"), "--window", "250", "--step", "10",
                    "--events", str(events), "--out", str(out)]) == 0
        meta = (out / "rolling_meta.txt").read_text()
        assert "event: 2000-10-02 ->" in meta
        assert "event: 1990-01-01 -> unplaced too early" in meta


    def test_non_utf8_events_are_data_error(self, tmp_path, capsys):
        run(["synth", "--k", "2", "--periods", "300", "--seed", "25", "--out", str(tmp_path)])
        events = tmp_path / "events.csv"
        raw = b"date,label\n2000-10-02,caf\xe9\n"
        events.write_bytes(raw)
        assert run(["roll", str(tmp_path / "panel.csv"), "--window", "250", "--step", "10",
                    "--events", str(events), "--out", str(tmp_path / "roll")]) == 2
        assert capsys.readouterr().err.endswith(
            f"data error: {events}: not UTF-8 text at byte offset {raw.index(0xe9)}\n")

    def test_bad_events_header_fails_before_any_window(self, tmp_path, capsys, monkeypatch):
        run(["synth", "--k", "2", "--periods", "300", "--seed", "25", "--out", str(tmp_path)])
        events = tmp_path / "events.csv"
        events.write_text("date,labl\n2000-10-02,shock one\n")
        calls = []
        monkeypatch.setattr(dynamics, "rolling_connectedness",
                            lambda *args, **kwargs: calls.append(args))
        assert run(["roll", str(tmp_path / "panel.csv"), "--window", "250", "--step", "10",
                    "--events", str(events), "--out", str(tmp_path / "roll")]) == 2
        assert capsys.readouterr().err.endswith(
            f"data error: {events}: expected header 'date,label'\n")
        assert calls == []


class TestConfigResolution:
    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        raw = b"[freqconn]\nseed = 4\n# caf\xe9\n"
        cfg.write_bytes(raw)
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"usage error: config file {str(cfg)!r}: not UTF-8 "
                                           f"text at byte offset {raw.index(0xe9)}\n")

    def test_config_file_without_freqconn_section_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[other]\nseed = 4\n")
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"usage error: config file {str(cfg)!r} lacks a [freqconn] section\n")

    @pytest.mark.parametrize("text, message", [
        ("seed = 4\n", "File contains no section headers."),
        ("[freqconn]\nseed = 4\nseed = 5\n",
         "While reading from {path!r} [line  3]: option 'seed' in section 'freqconn' "
         "already exists"),
        ("[freqconn]\nbands = 1:5%,5:inf\n",
         "'%' must be followed by '%' or '(', found: '%,5:inf'"),
    ], ids=["no section header", "duplicate key", "percent sign"])
    def test_malformed_config_file_is_usage_error(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        path = str(cfg)
        assert capsys.readouterr().err == (
            f"usage error: config file {path!r}: {message.format(path=path)}\n")

    def test_flags_beat_file_beats_defaults(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[freqconn]\nperiods = 321\nseed = 4\nk = 2\n")
        out = tmp_path / "a"
        assert run(["synth", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        echo = dict(line.split(" = ") for line in
                    (out / "resolved_config.txt").read_text().splitlines() if " = " in line)
        assert echo["periods"] == "321"   # from file
        assert echo["seed"] == "9"        # flag wins
        assert echo["htrunc"] == "100"    # default
        n_rows = len((out / "panel.csv").read_text().splitlines()) - 1
        assert n_rows == 321

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FREQCONN_OUT", str(target))
        assert run(["synth", "--k", "2", "--periods", "120", "--seed", "1"]) == 0
        assert (target / "panel.csv").exists()

    def test_unknown_config_file_rejected(self, tmp_path):
        assert run(["synth", "--config", str(tmp_path / "missing.ini"),
                    "--out", str(tmp_path)]) == 1

    def test_default_model_is_stable_for_various_k(self):
        for k in (2, 3, 5, 8):
            model = default_synth_model(k)
            assert model.is_stable
            assert np.linalg.eigvalsh(model.sigma).min() > 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[freqconn]\nwindw = 300\n")
        code = run(["synth", "--k", "2", "--periods", "120", "--config", str(cfg),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "'windw'" in err

    def test_key_read_by_another_command_accepted(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[freqconn]\nwindow = 300\nspacing = 10\n")
        out = tmp_path / "out"
        assert run(["synth", "--k", "2", "--periods", "120", "--config", str(cfg),
                    "--out", str(out)]) == 0
        echo = (out / "resolved_config.txt").read_text().splitlines()
        assert "k = 2" in echo
        assert not any(line.startswith(("window", "spacing")) for line in echo)


COMMANDS = ("rv", "fit", "connect", "roll", "synth")


def offered_flags(command):
    subs = next(a for a in build_parser()._actions if a.dest == "command")
    return {flag for action in subs.choices[command]._actions
            for flag in action.option_strings} - {"-h", "--help"}


class TestOptionTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_parser_offers_exactly_its_rows(self, command):
        rows = {"--" + key.replace("_", "-") for key, opt in _OPTIONS.items()
                if command in opt.commands.split()}
        assert offered_flags(command) == rows | {"--config", "--out"}

    def test_flag_counts(self):
        counts = {c: len(offered_flags(c)) for c in COMMANDS}
        assert counts == {"rv": 7, "fit": 4, "connect": 7, "roll": 14, "synth": 10}

    @pytest.mark.parametrize("argv", [
        ["rv", TICKS[0], "--nfreq", "64"],
        ["fit", "panel.csv", "--boot", "100"],
        ["connect", "panel.csv", "--window", "300"],
        ["synth", "--no-intercept"],
        ["roll", "panel.csv", "--spacing", "5"],
        ["fit", "panel.csv", "--transform", "log"],
        ["connect", "panel.csv", "--transform", "log"],
        ["roll", "panel.csv", "--transform", "raw"],
        ["synth", "--transform", "sqrt"],
    ])
    def test_unread_flag_is_usage_error(self, argv, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_echo_keys_are_table_keys(self, command, tmp_path):
        """The echo lists ``out`` and exactly the config keys the command reads."""
        (tmp_path / "holidays.txt").write_text("")
        (tmp_path / "events.csv").write_text("date,label\n")
        model = make_model(np.diag([0.5, 0.3]), np.eye(2))
        (tmp_path / "model.txt").write_text(model_to_text(model))
        panel = tmp_path / "synth"
        assert run(["synth", "--model", str(tmp_path / "model.txt"), "--periods", "120",
                    "--out", str(panel)]) == 0
        cfg = tmp_path / "run.ini"
        cfg.write_text("[freqconn]\nwindow = 100\nstep = 10\nsymbols = CO,HO\n"
                       f"holidays = {tmp_path / 'holidays.txt'}\n"
                       f"events = {tmp_path / 'events.csv'}\n"
                       f"model = {tmp_path / 'model.txt'}\nperiods = 120\n")
        inputs = TICKS if command == "rv" else [] if command == "synth" else [
            str(panel / "panel.csv")]
        out = tmp_path / "out"
        assert run([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 0
        keys = [line.split(" = ")[0]
                for line in (out / "resolved_config.txt").read_text().splitlines()]
        read_keys = {key for key, opt in _OPTIONS.items()
                     if opt.type is not bool and command in opt.commands.split()}
        assert set(keys) - {"command", "input"} == read_keys | {"out"}


class TestRunLog:
    def test_warnings_go_to_run_log(self, tmp_path, capsys):
        # stable (eigenvalues 0.5) but non-normal: psi_1 outgrows psi_0
        model = make_model([[0.5, 2.0], [0.0, 0.5]], np.eye(2))
        (tmp_path / "model.txt").write_text(model_to_text(model))
        synth = tmp_path / "synth"
        assert run(["synth", "--model", str(tmp_path / "model.txt"), "--periods", "300",
                    "--htrunc", "1", "--out", str(synth)]) == 0
        out = tmp_path / "roll"
        assert run(["roll", str(synth / "panel.csv"), "--lags", "1", "--window", "250",
                    "--step", "25", "--htrunc", "1", "--out", str(out)]) == 0
        lines = (out / "run.log").read_text().splitlines()
        assert any(line.startswith("warning category=RuntimeWarning message=Wold tail norm")
                   for line in lines)
        assert "Wold tail" not in capsys.readouterr().err


class TestByteOrderMark:
    """Every reader drops leading BOMs, as the tick reader does: an input
    with one gives the same outputs as the input without."""

    def outputs(self, tmp_path, name, text, argv):
        """Output files of ``argv(path)`` on ``text`` without and with a
        leading BOM, less the config echo, which names the input."""
        trees = []
        for bom in ("", "\ufeff"):
            path = tmp_path / f"{len(bom)}{name}"
            path.write_text(bom + text, encoding="utf-8")
            out = tmp_path / f"out{len(bom)}"
            assert run([*argv(str(path)), "--out", str(out)]) == 0
            trees.append({file: data for file, data in tree_bytes(out).items()
                          if file != "resolved_config.txt"})
        return trees

    def synth_panel(self, tmp_path):
        out = tmp_path / "synth"
        assert run(["synth", "--k", "2", "--periods", "300", "--seed", "25",
                    "--out", str(out)]) == 0
        return out / "panel.csv"

    def test_panel(self, tmp_path):
        text = self.synth_panel(tmp_path).read_text()
        plain, marked = self.outputs(tmp_path, "panel.csv", text, lambda p: ["fit", p])
        assert plain == marked

    def test_events(self, tmp_path):
        panel = str(self.synth_panel(tmp_path))
        plain, marked = self.outputs(
            tmp_path, "events.csv", "date,label\n2000-10-02,shock one\n",
            lambda p: ["roll", panel, "--window", "250", "--step", "10", "--events", p])
        assert plain == marked and b"placed=true" in plain["run.log"]

    def test_holidays(self, tmp_path):
        plain, marked = self.outputs(tmp_path, "holidays.txt", "2001-03-06\n",
                                     lambda p: ["rv", *TICKS, "--holidays", p])
        assert plain == marked and b"\n2001-03-07," in plain["panel.csv"]
        assert b"2001-03-06" not in plain["panel.csv"]

    def test_config(self, tmp_path):
        plain, marked = self.outputs(tmp_path, "run.ini", "[freqconn]\nperiods = 150\n",
                                     lambda p: ["synth", "--config", p])
        assert plain == marked and len(plain["panel.csv"].splitlines()) == 151

    def test_model(self, tmp_path):
        text = model_to_text(make_model(np.diag([0.5, 0.3]), np.eye(2)))
        text = text.split("\n", 1)[1]  # the BOM precedes "k: 2", not the unread format line
        plain, marked = self.outputs(tmp_path, "model.txt", text,
                                     lambda p: ["synth", "--model", p, "--periods", "120"])
        assert plain == marked
