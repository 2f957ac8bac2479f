"""Workload process: calls ``freqconn.cli.main`` on prepared inputs and
writes timings, output digests and layer summaries as JSON.

    python3 worker.py SPEC.json RESULT.json

The first call is traced and untimed: it warms the process, gives the
reference output digest and the per-call counts. Timed rounds follow until
``seconds`` have passed (at least ``MIN_ROUNDS``). Each round times one
untraced call, during which a small fixed ``reference`` block is timed every
``SAMPLE_PERIOD_S`` (see ``HostSpeed``). With ``trace`` set, a traced call
ends the round, so the tracing overhead is measured on interleaved calls.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

MIN_ROUNDS = 3
SAMPLE_PERIOD_S = 0.2

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((500, 7))
_C = _RNG.standard_normal((6, 6))
_LINES = [f"2004-01-{d:02d}T{h:02d}:{m:02d}:{m * 7 % 60:02d}+00:00,{25 + m / 7!r}"
          for d in range(5, 7) for h in range(8, 12) for m in range(60)]


def _estimate_block() -> None:
    for _ in range(8):
        np.linalg.lstsq(_X, _X[:, :3], rcond=None)
        np.linalg.eigvals(_C)
        np.fft.irfft(np.fft.rfft(_X, axis=0), axis=0)
    table = {str(i): i * 1.5 for i in range(4_000)}
    ",".join(repr(v) for v in table.values())


def _parse_block() -> None:
    utc = dt.timezone.utc
    stamps, prices = [], []
    for line in _LINES:
        stamp, price = line.split(",")
        moment = dt.datetime.fromisoformat(stamp).astimezone(utc).replace(tzinfo=None)
        ts = np.datetime64(moment, "us")
        if stamps and ts <= stamps[-1]:
            continue
        stamps.append(ts)
        prices.append(float(price))
    days = np.array(stamps, dtype="datetime64[us]").astype("datetime64[D]")
    weekday = {d: d.astype(object).weekday() < 5 for d in np.unique(days)}
    np.array([weekday[d] for d in days])


# Fixed blocks of the work a workload is made of, a few milliseconds each:
# small least squares, eigenvalues, FFTs and float/str/dict work
# ("estimate"), or per-tick timestamp parsing and per-day lookups ("parse").
# They do not use freqconn, so a change to the program cannot move them;
# they follow only the host's current speed.
REFERENCES = {"estimate": _estimate_block, "parse": _parse_block}


class HostSpeed:
    """Times a reference block every ``SAMPLE_PERIOD_S`` while a call runs,
    from a SIGALRM handler in the calling thread. The host's speed changes
    within a single call, so blocks timed only before and after a call
    follow it poorly; samples spread through the call follow it closely."""

    def __init__(self, kind: str):
        self.block = REFERENCES[kind]
        self.block_s = 0.0
        self.samples = 0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.block()
        self.block_s += time.perf_counter() - start
        self.samples += 1

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_kib() -> int:
    """This process's resident high-water mark. ``ru_maxrss`` is not used:
    Linux carries the spawning parent's peak into it across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def call(cli, argv: list[str], out: Path, speed: HostSpeed | None = None) -> tuple[int, float, str]:
    """Runs ``cli.main(argv)``; returns its exit code, its wall time and the
    digest of its outputs. With ``speed``, the host's speed is sampled during
    the call and the sampled block time is left out of the wall time."""
    shutil.rmtree(out, ignore_errors=True)
    sampled_before = speed.block_s if speed else 0.0
    with speed.sampling() if speed else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed call, reported with its traceback
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
    if speed:
        wall -= speed.block_s - sampled_before
    return rc, wall, digest(out) if rc == 0 else ""


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from freqconn import cli

    import spans

    argv, out, trace = spec["argv"], Path(spec["out"]), spec["trace"]
    tracer = spans.Tracer()
    with tracer.recording() as rec:
        rc, _, ref_digest = call(cli, argv, out)
    result = {
        "check": {"rc": rc, "digest": ref_digest, "layers": rec.summary()},
        "missing": tracer.missing,
        "rcs": [], "digests": [], "walls": [], "traced_walls": [],
        "layers": [], "root_gaps": [],
    }
    speed = HostSpeed(spec["reference"])
    began = time.perf_counter()
    while True:
        rc, wall, dg = call(cli, argv, out, speed)
        result["rcs"].append(rc)
        result["digests"].append(dg)
        result["walls"].append(wall)
        if trace:
            with tracer.recording() as rec:
                rc, wall, dg = call(cli, argv, out)
            result["rcs"].append(rc)
            result["digests"].append(dg)
            result["traced_walls"].append(wall)
            result["layers"].append(rec.summary())
            result["root_gaps"].append(rec.untraced_time(wall))
        rounds = len(result["walls"])
        elapsed = time.perf_counter() - began
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > spec["seconds"]:
            break
    result["peak_rss_mb"] = peak_rss_kib() / 1024
    result["block_s"], result["samples"] = speed.block_s, speed.samples
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
