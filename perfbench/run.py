"""freqconn benchmark: runs ``freqconn.cli.main`` on generated inputs and
prints its metrics, the last line as one JSON object.

    python3 perfbench/run.py --workload rv-ticks --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 1

``--seconds`` is the measuring time per workload (``run_seconds`` in
BENCHMARK.json for comparable figures). ``--trace 0`` reports the
end-to-end metrics (tracing off); ``--trace 1`` the per-layer metrics of
traced calls and the tracing overhead. Run from a
source checkout: the program is imported from ``src/`` next to this
directory, and all files are written under ``.perfbench_work/`` there and
removed at exit. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime as dt
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 90       # beyond --seconds, for the untimed first call
ROOT_GAP_TOL_S = 0.005    # call wall time not covered by the cli.main span
REPLAY_SAMPLE = 12
# wall_norm_s is the mean timed call over the mean reference block sampled
# during the calls (worker.HostSpeed), times this nominal block time (its
# median on the host the benchmark was built on).
REFERENCE_NOMINAL_S = {"estimate": 0.0044, "parse": 0.0031}
# setup_s scales each start by fresh interpreters that only import numpy,
# timed right before and after it, to this nominal time. Start-up is file,
# loader and unmarshal work, which the in-process blocks do not follow.
SPAWN_NOMINAL_S = 0.150

# rv-ticks: a history that spans three year-ends (with their Dec 24-26 and
# Dec 31 - Jan 2 exclusions) and every weekend, at the fixture's density. It
# is long so that the per-day rescan in resample_grid, which grows with
# days x ticks, shows beside parsing.
RV_START = dt.date(2003, 11, 17)
RV_CALENDAR_DAYS = 1000

# roll-*: the paper protocol; window 500, step 1, lag 2, H 100, 512 cells.
WINDOW, H_TRUNC, N_FREQ = 500, 100, 512
PAPER_BANDS = "1:5,5:inf"
WIDE_BANDS = "1:5,5:20,20:60,60:inf"
PAPER_WINDOWS = 300
BOOT_WINDOWS, BOOT_REPLICATIONS = 2, 200
WIDE_WINDOWS = 100

# Both print the monotonic clock once their work is done, so neither
# interpreter teardown nor the parent's wait granularity is counted.
SETUP_CODE = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from freqconn import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[2:])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
sys.exit(rc)
"""
SPAWN_REFERENCE_CODE = """\
import time, numpy
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


@dataclass
class Case:
    """One workload's prepared inputs and how to judge its outputs."""

    argv: list[str]
    setup_argv: list[str]
    throughput_ops: int      # tick rows, windows or replicates per call
    attempted: int           # error_share operations per call
    sizes: dict
    # (out dir, per-call layer summary) -> (problems, info, failed ops per call)
    check: Callable[[Path, dict], tuple[list[str], dict, int]]


@dataclass(frozen=True)
class Workload:
    throughput_name: str     # as the summary names it; ops are throughput_ops
    throughput_unit: str
    reference: str           # worker.REFERENCES block that tracks host speed
    prepare: Callable[[int, Path], Case]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def prepare_rv(seed: int, work: Path) -> Case:
    histories = {sym: inputs.tick_history(seed, i, RV_START, RV_CALENDAR_DAYS)
                 for i, sym in enumerate(inputs.TICK_SYMBOLS)}
    paths = [_write(work / f"ticks_{sym}.csv", inputs.tick_csv_text(h))
             for sym, h in histories.items()]
    tiny = [_write(work / f"tiny_{sym}.csv",
                   inputs.tick_csv_text(inputs.tick_history(seed, i, RV_START, 3)))
            for i, sym in enumerate(inputs.TICK_SYMBOLS)]
    flags = ["--symbols", ",".join(histories), "--spacing", "5",
             "--session", "00:00-24:00", "--transform", "log"]
    rows = sum(len(td.seconds) for h in histories.values() for td in h)
    days = sum(len(checks.expected_days(h)) for h in histories.values())
    rng = np.random.default_rng([seed, 101])

    def check(out: Path, layers: dict) -> tuple[list[str], dict, int]:
        problems, info = checks.check_rv(out, histories, rng)
        if layers["ingest.rows"] != rows:
            problems.append(f"ingest.rows {layers['ingest.rows']} != {rows} generated rows")
        return problems, info, info["days_skipped"]

    return Case(
        argv=["rv", *paths, *flags, "--out", str(work / "out")],
        setup_argv=["rv", *tiny, *flags, "--out", str(work / "setup-out")],
        throughput_ops=rows, attempted=days,
        sizes={"tick_rows": rows, "symbols": len(histories),
               "calendar_days": RV_CALENDAR_DAYS, "trading_days": days // len(histories)},
        check=check,
    )


def prepare_roll(seed: int, work: Path, model: Callable[[], inputs.VarSpec], windows: int,
                 bands: str, boot: int) -> Case:
    spec = model()
    values = inputs.simulate_panel(spec, windows + WINDOW - 1, seed)
    panel = _write(work / "panel.csv", inputs.panel_csv_text(spec.names, values))
    tiny = _write(work / "tiny_panel.csv", inputs.panel_csv_text(spec.names, values[:WINDOW + 1]))
    flags = ["--lags", "2", "--window", str(WINDOW), "--step", "1", "--htrunc", str(H_TRUNC),
             "--nfreq", str(N_FREQ), "--bands", bands]
    boot_flags = ["--boot", str(boot), "--seed", str(seed)]
    ops = windows * boot if boot else windows
    rng = np.random.default_rng([seed, 102])
    picked = rng.choice(windows, min(windows, REPLAY_SAMPLE), replace=False)
    sample = sorted({0, windows - 1, *picked.tolist()})

    def check(out: Path, layers: dict) -> tuple[list[str], dict, int]:
        problems, info = checks.check_roll(out, values, spec.names, WINDOW, bands,
                                           H_TRUNC, N_FREQ, boot, sample)
        if boot:
            want = (windows - info["gap_windows"]) * boot
            if layers["dynamics.replicates"] not in (0, want):
                problems.append(f"{layers['dynamics.replicates']} replicates traced, "
                                f"expected {want}")
            return problems, info, info["gap_windows"] * boot + layers["dynamics.replicates_skipped"]
        return problems, info, info["gap_windows"]

    return Case(
        argv=["roll", panel, *flags, *boot_flags, "--out", str(work / "out")],
        setup_argv=["roll", tiny, *flags, "--boot", "0", "--out", str(work / "setup-out")],
        throughput_ops=ops, attempted=ops,
        sizes={"windows": windows, "k": spec.k, "p": 2, "rows": len(values),
               "replications": boot, "bands": bands,
               "generator_spectral_radius": round(spec.spectral_radius(), 6)},
        check=check,
    )


def _roll(model, windows, bands, boot):
    return lambda seed, work: prepare_roll(seed, work, model, windows, bands, boot)


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "rv-ticks": Workload("ticks_per_s", "rows/s", "parse", prepare_rv),
    "roll-paper": Workload("windows_per_s", "windows/s", "estimate",
                           _roll(inputs.paper_model, PAPER_WINDOWS, PAPER_BANDS, 0)),
    "roll-boot": Workload("replicates_per_s", "replicates/s", "estimate",
                          _roll(inputs.paper_model, BOOT_WINDOWS, PAPER_BANDS, BOOT_REPLICATIONS)),
    "roll-wide": Workload("windows_per_s", "windows/s", "estimate",
                          _roll(inputs.wide_model, WIDE_WINDOWS, WIDE_BANDS, 0)),
}


# --- measurement ---------------------------------------------------------------

def _spawn(code: str, *args: str) -> tuple[float, int]:
    """Seconds from spawning ``python -c code`` to the clock it prints."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        return math.nan, proc.returncode
    return float(proc.stdout.split()[-1]) - start, 0


def measure_setup(argv: list[str]) -> tuple[float, float, int]:
    """Spawn of a fresh interpreter -> freqconn imported -> one small call
    done, and the mean of the numpy-only starts timed around it."""
    before, rc_before = _spawn(SPAWN_REFERENCE_CODE)
    took, rc = _spawn(SETUP_CODE, str(SRC), *argv)
    after, rc_after = _spawn(SPAWN_REFERENCE_CODE)
    if rc_before or rc_after:
        raise RuntimeError("a fresh interpreter could not import numpy")
    return took, (before + after) / 2, rc


def run_worker(case: Case, work: Path, seconds: int, trace: bool,
               reference: str) -> dict | None:
    spec_path, result_path = work / "worker_spec.json", work / "worker_result.json"
    spec = {"src": str(SRC), "argv": case.argv, "out": str(work / "out"),
            "seconds": seconds, "trace": trace, "reference": reference}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                           str(result_path)],
                          stdout=subprocess.DEVNULL, timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0 or not result_path.is_file():
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def layer_metrics(samples: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median self times over traced calls; counts must repeat exactly."""
    metrics, problems = {}, []
    for key in samples[0]:
        values = [s[key] for s in samples]
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if len(set(values)) != 1:
                problems.append(f"{key} differs between identical calls: {sorted(set(values))}")
    return metrics, problems


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    lines: list[str]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(result: dict, info: dict, per_layer: list[dict],
                   problems: list[str]) -> tuple[dict, list[str]]:
    layers, found = layer_metrics(result["layers"])
    problems += found
    gap = max(result["root_gaps"], key=abs)
    if not 0 <= gap <= ROOT_GAP_TOL_S:
        problems.append(f"traced calls spent {gap:.3g} s outside the cli.main span")
    traced = statistics.median(result["traced_walls"])
    untraced = statistics.median(result["walls"])
    layers["freqdomain.recon_residual_max"] = info.get("recon_residual_max", 0.0)
    layers["dynamics.csv_bytes"] = info.get("csv_bytes", 0)
    layers["trace.wall_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    lines = [f"  tracing overhead {traced - untraced:+.4f} s "
             f"({(traced - untraced) / untraced:+.1%}): traced {traced:.4f} s, "
             f"untraced {untraced:.4f} s, {len(result['walls'])} calls each",
             f"  self times sum to the call's wall time within {gap:.2e} s "
             f"(time outside the cli.main span)"]
    lines += [f"  {m['name']:<40} {layers[m['name']]:>14.6g} {m['unit']}"
              for m in per_layer if layers[m["name"]]]
    return {m["name"]: _metric(layers[m["name"]], m["unit"]) for m in per_layer}, lines


def end_to_end_metrics(result: dict, setups: list[tuple[float, float, int]], workload: Workload,
                       case: Case) -> tuple[dict, list[str]]:
    walls = result["walls"]
    wall = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (wall,) * 3
    ref = result["block_s"] / result["samples"]
    nominal = REFERENCE_NOMINAL_S[workload.reference]
    norm = nominal * statistics.fmean(walls) / ref
    setup_raw = statistics.median(t for t, _, _ in setups)
    setup = SPAWN_NOMINAL_S * statistics.median(t / r for t, r, _ in setups)
    metrics = {
        "wall_norm_s": _metric(norm, "s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
    }
    lines = [
        f"  wall_s           {wall:14.4f} s       median of {len(walls)} calls "
        f"(q1 {q1:.4f}, q3 {q3:.4f})",
        f"  wall_norm_s      {norm:14.4f} s       at a {workload.reference} block of "
        f"{nominal * 1e3:g} ms (measured {ref * 1e3:.2f} ms, {result['samples']} samples)",
        f"  {workload.throughput_name:<16} {case.throughput_ops / wall:14.1f} "
        f"{workload.throughput_unit}  ({case.throughput_ops} per call / wall_s)",
        f"  setup_s          {setup:14.4f} s       median of {SETUP_SAMPLES} fresh interpreters "
        f"at a numpy-only start of {SPAWN_NOMINAL_S * 1e3:g} ms "
        f"(raw {setup_raw:.4f} s)",
        f"  peak_rss_mb      {result['peak_rss_mb']:14.1f} MiB",
    ]
    return metrics, lines


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 per_layer: list[dict]) -> Outcome:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        case = workload.prepare(seed, work)
        setups = [measure_setup(case.setup_argv) for _ in range(SETUP_SAMPLES)]
        result = run_worker(case, work, seconds, trace, workload.reference)
        if result is None:
            raise RuntimeError(f"{name}: workload process failed")
        problems = [f"setup call exited {rc}" for _, _, rc in setups if rc != 0]
        check = result["check"]
        rcs = [check["rc"], *result["rcs"]]
        digests = [check["digest"], *result["digests"]]
        if any(rcs):
            problems.append(f"cli.main exit codes {sorted(set(rcs))}")
        if len(set(digests)) != 1:
            problems.append(f"outputs differ between identical calls: {len(set(digests))} digests")
        try:
            found, info, failed_per_call = case.check(work / "out", check["layers"])
        except (OSError, ValueError, KeyError, ArithmeticError) as exc:
            found, info, failed_per_call = [f"output check crashed: {exc!r}"], {}, case.attempted
        problems += found
        attempted = case.attempted * len(rcs)
        lines = [f"== {name}  seed {seed}  trace {int(trace)} ==",
                 "env " + json.dumps(environment(seed, case.sizes))]
        if result["missing"]:
            lines.append(f"  not traced (absent from freqconn): {result['missing']}")
        if trace:
            metrics, more = traced_metrics(result, info, per_layer, problems)
        else:
            metrics, more = end_to_end_metrics(result, setups, workload, case)
        failed = attempted if problems else failed_per_call * len(rcs)
        lines += more
        lines.append(f"  error_share      {failed / attempted:14.4g} ratio   "
                     f"({failed} failed / {attempted} attempted)")
        lines += [f"  check {k}: {v}" for k, v in info.items()]
        lines += [f"  PROBLEM {p}" for p in problems]
        return Outcome(not problems, attempted, failed, metrics, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


# --- environment record ------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> str:
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    for line in maps:
        if "openblas" in line and ".so" in line:
            lib = ctypes.CDLL(line.split()[-1])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment(seed: int, sizes: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads(), "seed": seed, "sizes": sizes}


# --- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring time per workload (run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freqconn" / "__init__.py").is_file():
        print(f"error: no freqconn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import freqconn

    if not Path(freqconn.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported freqconn from {freqconn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        try:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   bench["per_layer"])
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(outcome.lines), flush=True)
        outcomes[name] = outcome
    if len(outcomes) == 1:
        metrics = outcome.metrics
    else:
        metrics = {f"{n}/{k}": v for n, o in outcomes.items() for k, v in o.metrics.items()}
    print(json.dumps({
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
