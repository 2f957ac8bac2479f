"""Self-tests of the benchmark: span arithmetic, host-speed sampling, the
output checks rejecting perturbed values, and BENCHMARK.json agreeing with
what the tracer emits.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from freqconn import cli  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > aa [2, 3];  root > b [5, 9]
    tree = [spans.Span("root", -1, 0.0, 10.0), spans.Span("a", 0, 1.0, 4.0),
            spans.Span("aa", 1, 2.0, 3.0), spans.Span("b", 0, 5.0, 9.0)]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_recorder_nesting_counts_and_replicates():
    ticks = iter(float(t) for t in range(100))
    rec = spans.Recorder(clock=lambda: next(ticks))
    rec.enter("cli.main")                                  # t0
    rec.enter("dynamics.bootstrap_bands")                  # t1
    for ok in (True, False, True):
        rec.enter("varcore.fit_var_values")
        rec.exit(True)
        rec.enter("dynamics.evaluate_measures")
        rec.enter("varcore.wold")
        rec.exit(True)
        rec.exit(ok)
    rec.exit(True)
    rec.exit(True)
    out = rec.summary()
    assert out["varcore.fit_var_values.calls"] == 3
    assert out["varcore.wold.self_s"] == 3.0
    assert out["dynamics.evaluate_measures.self_s"] == 6.0  # 3 spans of 3 s, each minus 1 s of wold
    assert out["dynamics.replicates"] == 3
    assert out["dynamics.replicates_skipped"] == 1
    assert out["cli.main.self_s"] == 2.0
    assert rec.untraced_time(25.0) == 4.0                  # cli.main spans t0..t21


def test_tracer_restores_the_pipeline_names():
    import freqconn.dynamics as dyn
    import freqconn.varcore as vc

    before = (dyn.fit_var_values, vc.VarModel.__dict__["spectral_radius"])
    tracer = spans.Tracer()
    with tracer.recording():
        assert dyn.fit_var_values is not before[0]
    assert (dyn.fit_var_values, vc.VarModel.__dict__["spectral_radius"]) == before
    assert tracer.missing == []


def test_host_speed_samples_during_the_call_and_leaves_them_out(tmp_path):
    class BusyCli:      # spins until a deadline, so its wall time is fixed
        @staticmethod
        def main(argv):
            deadline = time.perf_counter() + 0.45
            while time.perf_counter() < deadline:
                pass
            return 0

    handler = signal.getsignal(signal.SIGALRM)
    speed = worker.HostSpeed("parse")
    rc, wall, _ = worker.call(BusyCli, [], tmp_path / "out", speed)
    assert rc == 0 and speed.samples == 2 and speed.block_s > 0
    assert wall + speed.block_s == pytest.approx(0.45, abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_names_every_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    emitted = set(spans.Recorder().summary()) | {
        "freqdomain.recon_residual_max", "dynamics.csv_bytes", "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == emitted
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def test_generator_persistence():
    assert inputs.paper_model().spectral_radius() == pytest.approx(0.7256, abs=1e-3)
    assert inputs.wide_model().spectral_radius() == pytest.approx(0.978, abs=1e-3)


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _perturb(path: Path, line_no: int, column: int, delta: float) -> str:
    lines = path.read_text().splitlines()
    cells = lines[line_no].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[line_no] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return cells[1]


def test_roll_replay_rejects_a_perturbed_value(tmp_path):
    spec = inputs.paper_model()
    values = inputs.simulate_panel(spec, 505, seed=3)
    panel = tmp_path / "panel.csv"
    panel.write_text(inputs.panel_csv_text(spec.names, values))
    out = tmp_path / "out"
    assert _main(["roll", str(panel), "--window", "500", "--bands", "1:5,5:inf",
                  "--out", str(out)]) == 0
    args = (values, spec.names, 500, "1:5,5:inf", 100, 512, 0, [0, 3, 5])
    problems, info = checks.check_roll(out, *args)
    assert problems == [] and info["windows"] == 6
    measure = _perturb(out / "rolling.csv", 4, 3, 1e-9)   # "total" of window 3
    problems, _ = checks.check_roll(out, *args)
    assert len(problems) == 1 and measure in problems[0]


def test_rv_reference_rejects_a_perturbed_bpv(tmp_path):
    start = dt.date(2004, 12, 23)   # spans Dec 24-26, a weekend, Dec 31 - Jan 2
    histories = {s: inputs.tick_history(5, i, start, 14)
                 for i, s in enumerate(inputs.TICK_SYMBOLS)}
    paths = []
    for symbol, history in histories.items():
        paths.append(tmp_path / f"{symbol}.csv")
        paths[-1].write_text(inputs.tick_csv_text(history))
    out = tmp_path / "out"
    assert _main(["rv", *map(str, paths), "--symbols", "CO,HO,XB", "--out", str(out)]) == 0
    problems, info = checks.check_rv(out, histories, np.random.default_rng(0), n_sample=20)
    assert problems == [] and info["days_skipped"] == 0
    assert info["panel_days"] == len(checks.expected_days(histories["CO"])) == 8
    _perturb(out / "rv_HO.csv", 2, 1, 1e-12)
    problems, _ = checks.check_rv(out, histories, np.random.default_rng(0), n_sample=20)
    assert any(p.startswith("HO ") for p in problems)
