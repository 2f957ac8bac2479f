"""Command-line front end wiring the pipeline end to end.

Subcommands: ``rv`` (ticks -> daily bi-power volatility), ``fit`` (panel ->
VAR model), ``connect`` (full-sample connectedness report), ``roll``
(rolling analysis with optional bootstrap bands, events, and ratio/trend
output), ``synth`` (synthetic panel plus a truth sidecar).

Configuration precedence: command-line flags beat the ``--config`` INI file
(section ``[freqconn]``), which beats built-in defaults. Every run echoes
the resolved configuration keys its command reads and a structured
one-line-per-event run log next to its outputs; given the same config and
seed, re-runs are byte-identical.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import datetime as dt
import io
import logging
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, freqdomain, ingest, timedomain, varcore
from .dynamics import DEFAULT_SIGNIFICANCE, DEFAULT_WINDOW
from .errors import DataError, NumericError, UsageError
from .freqdomain import DEFAULT_N_FREQ, MIN_N_FREQ
from .varcore import DEFAULT_TRUNCATION

log = logging.getLogger("freqconn.cli")  # stable name even under python -m

ENV_OUT_DIR = "FREQCONN_OUT"


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Option:
    """A flag on each subcommand in ``commands`` and, unless a switch (``type``
    bool), a config key that every command resolves and those commands echo."""

    commands: str
    help: str
    type: type = str
    default: object = None        # None: resolved and echoed only when given
    check: tuple | None = None    # (predicate, requirement) on the resolved value
    choices: tuple | None = None


def _at_least(n):
    return (lambda v: v >= n), f">= {n}"


_OPTIONS = {
    "lags": _Option("fit connect roll synth", "VAR lag order", int, 2, _at_least(1)),
    "window": _Option("roll", "rolling window length", int, DEFAULT_WINDOW, _at_least(2)),
    "step": _Option("roll", "rolling step", int, 1, _at_least(1)),
    "bands": _Option("connect roll synth", "short:long day bands", str, "1:5,5:inf"),
    "htrunc": _Option("connect roll synth", "MA truncation horizon", int, DEFAULT_TRUNCATION,
                      _at_least(1)),
    "nfreq": _Option("connect roll synth", "frequency grid size", int, DEFAULT_N_FREQ,
                     _at_least(MIN_N_FREQ)),
    "boot": _Option("roll", "bootstrap replications, 0 = off", int, 0, _at_least(0)),
    "significance": _Option("roll", "two-sided bootstrap band significance", float,
                            DEFAULT_SIGNIFICANCE, ((lambda v: 0.0 < v < 1.0), "in (0, 1)")),
    "seed": _Option("roll synth", "random seed", int, 0),
    "events": _Option("roll", "events CSV (date,label) for annotation"),
    "transform": _Option("rv", "volatility transform", str, "log",
                         choices=ingest.TRANSFORMS),
    "no_intercept": _Option("fit connect roll", "drop the VAR constant term", bool),
    "ratios": _Option("roll", "emit short/long ratio series and trend fits (needs 2 bands)", bool),
    "symbols": _Option("rv", "comma-separated symbols (default: file stems)"),
    "spacing": _Option("rv", "grid spacing in minutes", int, 5, _at_least(1)),
    "session": _Option("rv", "trading session HH:MM-HH:MM", str, "00:00-24:00"),
    "holidays": _Option("rv", "file of ISO dates to exclude, one per line"),
    "k": _Option("synth", "number of variables", int, 3, _at_least(2)),
    "periods": _Option("synth", "panel length", int, 1000, _at_least(2)),
    "model": _Option("synth", "VAR model text file to simulate instead of the default"),
}
_CONFIG_KEYS = ("out", *(key for key, opt in _OPTIONS.items() if opt.type is not bool))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with status 2
        raise UsageError(message)


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    try:
        text = ingest._decode(Path(path).read_bytes(), f"config file {path!r}")
    except OSError:
        raise UsageError(f"config file {path!r} not found or unreadable") from None
    except DataError as exc:
        raise UsageError(str(exc)) from None
    parser = configparser.ConfigParser()
    try:
        parser.read_file(io.StringIO(text, newline=None), source=path)  # universal newlines
        items = dict(parser.items("freqconn"))
    except configparser.NoSectionError:
        raise UsageError(f"config file {path!r} lacks a [freqconn] section") from None
    except configparser.Error as exc:
        raise UsageError(f"config file {path!r}: {str(exc).splitlines()[0]}") from None
    unknown = sorted(set(items) - set(_CONFIG_KEYS))
    if unknown:
        raise UsageError(f"config file {path!r} has unknown key(s) "
                         f"{', '.join(map(repr, unknown))}")
    return items


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """flags > config file > defaults for every config key, checked against
    the option table; also applies the output-dir env var."""
    file_cfg = _load_config_file(args.config)
    out = args.out or file_cfg.get("out") or os.environ.get(ENV_OUT_DIR)
    resolved: dict[str, object] = {"out": out or "freqconn-out"}
    for key, opt in _OPTIONS.items():
        flag = getattr(args, key, None)
        value = file_cfg.get(key, opt.default) if flag is None else flag
        if opt.type is bool or value is None:  # switches are flags only
            continue
        try:
            value = opt.type(value)
        except ValueError:
            raise UsageError(f"config key {key!r} has non-numeric value {value!r}") from None
        if opt.choices and value not in opt.choices:
            raise UsageError(f"{key} must be one of {opt.choices}")
        if opt.check and not opt.check[0](value):
            raise UsageError(f"{key} must be {opt.check[1]}, got {value}")
        resolved[key] = value
    return resolved


def parse_band_string(text: str) -> list[freqdomain.BandSpec]:
    """Comma-separated ``short:long`` day pairs; ``inf`` allowed as long side."""
    bands = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        short_text, sep, long_text = piece.partition(":")
        if not sep:
            raise UsageError(f"band {piece!r} must look like 'short:long' in days")
        try:
            short = float(short_text)
            long_ = math.inf if long_text.strip().lower() == "inf" else float(long_text)
        except ValueError:
            raise UsageError(f"band {piece!r} has non-numeric day counts") from None
        bands.append(freqdomain.days_to_band(short, long_))
    if not bands:
        raise UsageError(f"band string {text!r} contains no bands")
    return bands


def parse_session(text: str) -> tuple[int, int]:
    try:
        start_text, end_text = text.split("-")
        sh, sm = (int(v) for v in start_text.split(":"))
        eh, em = (int(v) for v in end_text.split(":"))
    except ValueError:
        raise UsageError(f"session {text!r} must look like 'HH:MM-HH:MM'") from None
    return sh * 3600 + sm * 60, eh * 3600 + em * 60


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _prepare_out(cfg: dict[str, object]) -> Path:
    out = Path(str(cfg["out"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config_echo(cfg: dict[str, object], out: Path, command: str, inputs: list[str]) -> None:
    lines = [f"command = {command}"]
    lines += [f"input = {p}" for p in inputs]
    lines += [f"{key} = {cfg[key]}" for key in sorted(cfg)
              if key == "out" or command in _OPTIONS[key].commands.split()]
    (out / "resolved_config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


class _RunLog:
    """Collects structured one-line events from the freqconn loggers, and
    Python warnings as ``warning`` events, and writes them to <out>/run.log
    (no timestamps or source paths, so runs stay reproducible)."""

    def __init__(self, out: Path):
        self.path = out / "run.log"
        self.handler = logging.FileHandler(self.path, mode="w", encoding="utf-8")
        self.handler.setFormatter(logging.Formatter("%(message)s"))
        self.logger = logging.getLogger("freqconn")
        self.warnings = warnings.catch_warnings()  # restores showwarning and filters

    def __enter__(self):
        self.prior_level = self.logger.level
        self.logger.setLevel(logging.INFO)
        self.logger.addHandler(self.handler)
        self.warnings.__enter__()
        warnings.showwarning = lambda message, category, *_: log.warning(
            "warning category=%s message=%s", category.__name__, message)
        return self

    def __exit__(self, *exc):
        self.warnings.__exit__(*exc)
        self.logger.removeHandler(self.handler)
        self.logger.setLevel(self.prior_level)
        self.handler.close()
        return False


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rv(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    tick_paths = [Path(p) for p in args.ticks]
    if cfg.get("symbols"):
        symbols = [s.strip() for s in str(cfg["symbols"]).split(",") if s.strip()]
        if len(symbols) != len(tick_paths):
            raise UsageError(f"{len(symbols)} symbols given for {len(tick_paths)} tick files")
    else:
        symbols = [p.stem for p in tick_paths]
    if len(set(symbols)) != len(symbols):
        raise UsageError(f"duplicate symbols in {symbols}")
    holidays: list[dt.date] = []
    if cfg.get("holidays"):
        holidays_path = str(cfg["holidays"])
        lines = ingest._decode(Path(holidays_path).read_bytes(), holidays_path).splitlines()
        for lineno, line in enumerate(lines, 1):
            if line.strip():
                try:
                    holidays.append(dt.date.fromisoformat(line.strip()))
                except ValueError:
                    raise DataError(f"holidays line {lineno}: bad date {line.strip()!r}") from None
    session = parse_session(str(cfg["session"]))
    spacing = dt.timedelta(minutes=int(cfg["spacing"]))

    _write_config_echo(cfg, out, "rv", [str(p) for p in tick_paths])
    with _RunLog(out):
        per_symbol: dict[str, list[tuple[dt.date, float]]] = {}
        for path, symbol in zip(tick_paths, symbols):
            ticks = ingest.load_ticks(path, symbol)
            rows = len(ticks)
            log.info("ticks_loaded symbol=%s rows=%d", symbol, rows)
            ticks = ingest.filter_calendar(ticks, holidays)
            log.info("calendar_excluded symbol=%s rows=%d", symbol, rows - len(ticks))
            grids = ingest.resample_grid(ticks, spacing=spacing, session=session)
            daily = [(g.trading_day, ingest.bipower_variation(g)) for g in grids]
            del ticks, grids  # freed before the next file is read
            log.info("rv_days symbol=%s days=%d", symbol, len(daily))
            lines = ["date,bpv"] + [f"{d.isoformat()},{float(v)!r}" for d, v in daily]
            (out / f"rv_{symbol}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            if cfg["transform"] != "raw":  # log and sqrt need BPV > 0
                for d, v in daily:
                    if v <= 0:
                        log.warning("day_dropped symbol=%s date=%s reason=non_positive_bpv",
                                    symbol, d)
                daily = [(d, v) for d, v in daily if v > 0]
            per_symbol[symbol] = daily
        if len(per_symbol) >= 2:
            panel = ingest.build_panel(per_symbol, transform=str(cfg["transform"]))
            ingest.write_panel_csv(panel, out / "panel.csv")
            log.info("panel_written days=%d symbols=%d transform=%s",
                     panel.shape[0], panel.shape[1], cfg["transform"])
            try:
                stats = ingest.summary_stats(ingest.build_panel(per_symbol, transform="sqrt"))
                (out / "summary_stats.csv").write_text(stats.to_csv_text(), encoding="utf-8")
            except DataError as exc:
                log.info("summary_skipped reason=%s", exc)
        else:
            log.info("panel_skipped reason=needs_2_symbols")
    print(f"rv: wrote {len(per_symbol)} symbol file(s) to {out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    _write_config_echo(cfg, out, "fit", [args.panel])
    with _RunLog(out):
        panel = ingest.read_panel_csv(args.panel)
        model = varcore.fit_var(panel, int(cfg["lags"]), include_intercept=not args.no_intercept)
        stable, radius = varcore.stability(model)
        log.info("fit k=%d p=%d n_obs=%d radius=%s stable=%s",
                 model.k, model.p, model.n_obs, repr(float(radius)), str(stable).lower())
        (out / "var_model.txt").write_text(varcore.model_to_text(model), encoding="utf-8")
    print(f"fit: k={model.k} p={model.p} spectral_radius={radius:.6g} -> {out / 'var_model.txt'}")
    return 0


def cmd_connect(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    bands = parse_band_string(str(cfg["bands"]))
    _write_config_echo(cfg, out, "connect", [args.panel])
    with _RunLog(out):
        panel = ingest.read_panel_csv(args.panel)
        model = varcore.fit_var(panel, int(cfg["lags"]), include_intercept=not args.no_intercept)
        h_trunc = int(cfg["htrunc"])
        w = varcore.wold(model, h_trunc)
        table = timedomain.gfevd(model, w, h_trunc)
        dy = timedomain.dy_measures(table)
        grid = freqdomain.spectral_gfevd(model, w, int(cfg["nfreq"]))
        measures = [freqdomain.band_measures(grid, band) for band in bands]

        (out / "connectedness_table.csv").write_text(table.to_csv_text(), encoding="utf-8")
        (out / "connectedness_table.txt").write_text(table.to_text(), encoding="utf-8")
        dy_lines = [
            f"total: {float(dy.total)!r}",
            "from: " + varcore._fmt_matrix(dy.from_others),
            "to: " + varcore._fmt_matrix(dy.to_others),
            "net: " + varcore._fmt_matrix(dy.net),
            "variable_names: " + " ".join(table.variable_names),
        ]
        (out / "dy_measures.txt").write_text("\n".join(dy_lines) + "\n", encoding="utf-8")
        (out / "band_measures.txt").write_text(
            "\n".join(freqdomain.band_measures_to_text(m) for m in measures), encoding="utf-8")
        csv_lines = ["band,measure,variable_i,variable_j,value"]
        for m in measures:
            csv_lines += [",".join(row) for row in freqdomain.band_measures_to_csv_rows(m)]
        (out / "band_measures.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

        report = [f"time_domain_total: {float(dy.total)!r}"]
        for m in measures:
            report.append(f"band[{m.band.label}]: within_total={float(m.within_total)!r} "
                          f"gamma={float(m.gamma)!r} absolute_total={float(m.absolute_total)!r}")
        if freqdomain.is_partition(bands):
            total_abs = sum(m.absolute_total for m in measures)
            residual = abs(total_abs - dy.total)
            report.append(f"sum_band_absolute_totals: {float(total_abs)!r}")
            report.append(f"reconstruction_residual: {float(residual)!r}")
            log.info("reconstruction residual=%s", repr(float(residual)))
        else:
            report.append("reconstruction_residual: not_computed (bands do not partition (0, pi])")
            log.info("reconstruction skipped reason=bands_not_a_partition")
        (out / "report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")
    print("\n".join(report))
    return 0


def cmd_roll(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    bands = parse_band_string(str(cfg["bands"]))
    _write_config_echo(cfg, out, "roll", [args.panel])
    with _RunLog(out):
        panel = ingest.read_panel_csv(args.panel)
        events = dynamics.read_events_csv(str(cfg["events"])) if cfg.get("events") else None
        bootstrap = None
        if int(cfg["boot"]) > 0:
            bootstrap = dynamics.BootstrapSpec(
                replications=int(cfg["boot"]),
                significance=float(cfg["significance"]),
                seed=int(cfg["seed"]),
            )
        result = dynamics.rolling_connectedness(
            panel,
            p=int(cfg["lags"]),
            window=int(cfg["window"]),
            step=int(cfg["step"]),
            bands=bands,
            h_trunc=int(cfg["htrunc"]),
            n_freq=int(cfg["nfreq"]),
            include_intercept=not args.no_intercept,
            bootstrap=bootstrap,
        )
        if events is not None:
            result = dynamics.annotate(result, events)
            for mk in result.annotations:
                placed = mk.anchor_date is not None
                log.info("event label=%r anchor=%s placed=%s", mk.label,
                         mk.anchor_date.isoformat() if placed else "none", str(placed).lower())
        dynamics.write_rolling_csv(result, out / "rolling.csv")
        (out / "rolling_meta.txt").write_text(dynamics.rolling_meta_text(result), encoding="utf-8")
        if args.ratios:
            _write_ratios(result, bands, panel.symbols, out)
    print(f"roll: {result.n_windows} windows, {len(result.gaps)} gaps -> {out / 'rolling.csv'}")
    return 0


def _write_ratios(result, bands, symbols, out: Path) -> None:
    """Short-band / long-band ratio series with linear trend fits for the
    within total and the per-variable within from/to measures."""
    if len(bands) != 2:
        raise UsageError(f"ratio output needs exactly 2 bands, got {len(bands)}")
    short = max(bands, key=lambda b: b.lower)
    long_ = min(bands, key=lambda b: b.lower)
    bases = ["within_total"]
    bases += [f"within_from.{s}" for s in symbols]
    bases += [f"within_to.{s}" for s in symbols]
    ratio_lines = ["date,measure,value"]
    trend_lines = ["measure,slope,intercept,r_squared"]
    for base in bases:
        series = dynamics.ratio_series(result, f"{base}@{short.label}", f"{base}@{long_.label}")
        for day, value in series:
            cell = "" if not np.isfinite(value) else repr(float(value))
            ratio_lines.append(f"{day.isoformat()},ratio.{base},{cell}")
        try:
            fit = dynamics.linear_trend(series)
            trend_lines.append(f"ratio.{base},{float(fit.slope)!r},{float(fit.intercept)!r},"
                               f"{float(fit.r_squared)!r}")
        except DataError as exc:
            log.info("trend_skipped measure=%s reason=%s", base, exc)
    (out / "ratios.csv").write_text("\n".join(ratio_lines) + "\n", encoding="utf-8")
    (out / "trends.csv").write_text("\n".join(trend_lines) + "\n", encoding="utf-8")


def default_synth_model(k: int, p: int = 2) -> varcore.VarModel:
    """Built-in stable generating VAR: symmetric cross-lags and positively
    correlated innovations, spectral radius about 0.73 for any k."""
    eye = np.eye(k)
    ones = np.ones((k, k))
    phi1 = 0.35 * eye + 0.1 * (ones - eye) / (k - 1)
    phi = [phi1] + [0.2 * eye if j == 2 else np.zeros((k, k)) for j in range(2, p + 1)]
    sigma = 0.6 * eye + 0.4 * ones
    names = tuple(f"V{i + 1}" for i in range(k))
    return varcore.VarModel(k=k, p=p, intercept=np.zeros(k), phi=tuple(phi[:p]),
                            sigma=sigma, n_obs=0, variable_names=names)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _prepare_out(cfg)
    bands = parse_band_string(str(cfg["bands"]))
    _write_config_echo(cfg, out, "synth", [])
    with _RunLog(out):
        if cfg.get("model"):
            path = str(cfg["model"])
            model = varcore.model_from_text(ingest._decode(Path(path).read_bytes(), path))
        else:
            model = default_synth_model(int(cfg["k"]), int(cfg["lags"]))
        panel = ingest.synth_var_panel(model, int(cfg["periods"]), int(cfg["seed"]))
        ingest.write_panel_csv(panel, out / "panel.csv")
        log.info("synth_panel days=%d symbols=%d seed=%d",
                 panel.shape[0], panel.shape[1], int(cfg["seed"]))

        h_trunc = int(cfg["htrunc"])
        truth = dict(zip(dynamics.measure_ids(model.variable_names, bands),
                         dynamics.evaluate_measures(model, bands, h_trunc, int(cfg["nfreq"]))))
        lines = [varcore.model_to_text(model).rstrip("\n"), f"h_trunc: {h_trunc}"]
        lines += [f"truth: {mid} {float(value)!r}" for mid, value in truth.items()]
        if freqdomain.is_partition(bands):
            total_abs = sum(truth[f"abs_total@{b.label}"] for b in bands)
            lines.append(f"truth_reconstruction_residual: {float(abs(total_abs - truth['total']))!r}")
        (out / "truth.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"synth: wrote panel ({panel.shape[0]} x {panel.shape[1]}) and truth sidecar to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

_PANEL = ("panel", None, "panel CSV (header date,<symbol>,...)")
_COMMANDS = (  # name, function, help, positional (dest, nargs, help)
    ("rv", cmd_rv, "compute daily bi-power volatility from tick CSVs",
     ("ticks", "+", "tick CSV files (header timestamp,price)")),
    ("fit", cmd_fit, "fit a VAR to a panel CSV", _PANEL),
    ("connect", cmd_connect, "full-sample connectedness report", _PANEL),
    ("roll", cmd_roll, "rolling-window analysis", _PANEL),
    ("synth", cmd_synth, "generate a synthetic panel with truth sidecar", None),
)


def build_parser() -> _Parser:
    """One subparser per command, offering the option-table rows that name it."""
    parser = _Parser(prog="freqconn",
                     description="Volatility connectedness across frequency bands")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, positional in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        if positional:
            dest, nargs, arg_help = positional
            sub.add_argument(dest, nargs=nargs, help=arg_help)
        sub.add_argument("--config", help="INI config file with a [freqconn] section")
        sub.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or freqconn-out)")
        for key, opt in _OPTIONS.items():
            if name not in opt.commands.split():
                continue
            flag = "--" + key.replace("_", "-")
            if opt.type is bool:
                sub.add_argument(flag, action="store_true", help=opt.help)
            else:
                shown = "" if opt.default is None else f" (default {opt.default})"
                sub.add_argument(flag, type=opt.type, choices=opt.choices,
                                 help=opt.help + shown)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
