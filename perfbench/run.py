#!/usr/bin/env python3
"""Benchmark of the mqtorsion command line, measured from outside the program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Every timed unit is a fresh ``python -m mqtorsion.cli ...`` child process, so
interpreter start, package import, memo caches and finite-field tables are
paid on every call, as a user pays them.  Workloads (see ``workloads.py``):

* ``verify_all``   -- ``mqtorsion verify --all``;
* ``tower_derive`` -- ``torsion --mode derive`` over seeded multi-quadratic
  fields of growing degree, one child per field;
* ``cli_calls``    -- a closed loop, one call at a time, over a seeded mix of
  small CLI queries.

A run first compiles the sources, then repeats whole passes over the
workload's calls until the next pass would end after ``--seconds`` (at least
one pass), and times ``SETUP_RUNS`` fresh set-up children before and after.
Times are scaled to nominal machine speed by a reference loop timed while
the children run (see ``PROBE_LOOPS``).  Every answer is checked
(``checks.py``).  With ``--trace 1`` the run instead makes one untraced and
one traced pass (``tracer.py`` installs the wrappers) and
reports the per-layer numbers and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The exit code is 0 when every answer is correct, 1
when any check failed and 2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 20
# The machine's speed drifts by up to about 1.5x in episodes of seconds to
# minutes, for CPU time as for wall time.  A thread of this process measures
# the CPU time of a fixed pure-Python loop every PROBE_EVERY_S, on the same
# core as the children, which tracks it.  End-to-end times are reported at
# nominal speed: scaled by PROBE_NOMINAL_S, a fixed constant of the order of
# the loop's CPU time on the 2-core machine the benchmark was built on, over
# the median of the probes within PROBE_WINDOW_S of the child.
PROBE_LOOPS = 400_000
PROBE_NOMINAL_S = 0.030
PROBE_EVERY_S = 0.5
PROBE_WINDOW_S = 1.0
# children still running this long after the start are killed, so that a run
# always ends within 180 s
RUN_DEADLINE_S = 170.0
SETUP_CODE = (
    "import mqtorsion.cli\n"
    "from mqtorsion import classify, mwtors\n"
    "mwtors.model_registry(); classify.default_ranks(); classify.exceptional_registry()\n"
)

clock = time.perf_counter


@dataclass
class Sample:
    call: workloads.Call
    start: float
    wall_s: float
    rc: int
    out: bytes
    err: bytes
    rss_mb: float
    trace: dict | None = None


class Runner:
    """Starts children one at a time and waits for each (closed loop)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._n = 0
        self.probes: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._stop = threading.Event()
        self._prober = threading.Thread(target=self._probe_loop, daemon=True)

    def _probe_loop(self) -> None:
        while True:
            t0, c0 = clock(), time.thread_time()
            x = 0
            for i in range(PROBE_LOOPS):
                x += i * i
            t1, c1 = clock(), time.thread_time()
            self.probes.append(((t0 + t1) / 2, c1 - c0))
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self):
        # children inherit the affinity of the thread that starts them
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._prober.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._prober.join()

    def nominal(self, start: float, wall: float) -> float:
        """``wall`` scaled to nominal machine speed, from the probes around
        the child that ran from ``start`` (the nearest one if none is near)."""
        mid = start + wall / 2
        near = [d for t, d in self.probes if abs(t - mid) <= wall / 2 + PROBE_WINDOW_S]
        if not near:
            near = [min(self.probes, key=lambda p: abs(p[0] - mid))[1]]
        return wall * PROBE_NOMINAL_S / statistics.median(near)

    def run(self, argv: list[str], env: dict | None = None) -> tuple[float, float, int, bytes, bytes, float]:
        """(start, wall seconds, exit code, stdout, stderr, peak RSS in MB) of one child."""
        self._n += 1
        out_path, err_path = WORK / f"{self._n}.out", WORK / f"{self._n}.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = clock()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env or self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - clock()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        out, err = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return t0, wall, proc.returncode, out, err, usage.ru_maxrss / 1024.0

    def cli(self, call: workloads.Call, trace: bool = False, env: dict | None = None) -> Sample:
        if trace:
            trace_path = WORK / f"trace-{self._n + 1}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *call.argv]
        else:
            argv = [sys.executable, "-m", "mqtorsion.cli", *call.argv]
        sample = Sample(call, *self.run(argv, env))
        if trace and trace_path.exists():
            sample.trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return sample

    def setup(self) -> tuple[float, float]:
        """(start, wall seconds) of one fresh set-up child."""
        return self.run([sys.executable, "-c", SETUP_CODE])[:2]

    def run_pass(self, calls, trace: bool = False, env: dict | None = None) -> tuple[list[Sample], float]:
        t0 = clock()
        samples = [self.cli(call, trace, env) for call in calls]
        return samples, clock() - t0


def build(runner: Runner) -> None:
    """Byte-compile the sources, as an installed package ships them."""
    _, _, rc, out, err, _ = runner.run([sys.executable, "-m", "compileall", "-q", str(SRC / "mqtorsion")])
    if rc != 0:
        raise SystemExit(f"perfbench: compiling the sources failed\n{out.decode()}{err.decode()}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, permille in (("p90", 900), ("p99", 990), ("p99.9", 999)):
        if len(values) * (1000 - permille) >= 10_000:
            best = (label, statistics.quantiles(values, n=1000, method="inclusive")[permille - 1])
    return best


def per_call_medians(samples: list[Sample], times: list[float]) -> dict[tuple, float]:
    by_call: dict[tuple, list[float]] = {}
    for s, t in zip(samples, times):
        by_call.setdefault(s.call.argv, []).append(t)
    return {argv: statistics.median(ts) for argv, ts in by_call.items()}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def timed_run(runner: Runner, wl: workloads.Workload, seconds: float):
    runner.setup()  # warm the file cache; not counted
    # half the set-up samples before the loop and half after it, so that one
    # slow episode of the machine does not cover all of them
    setups = [runner.setup() for _ in range(SETUP_RUNS // 2)]
    samples: list[Sample] = []
    passes: list[float] = []
    t0 = clock()
    while True:
        got, dt = runner.run_pass(wl.calls)
        samples += got
        passes.append(dt)
        if clock() - t0 + statistics.mean(passes) > seconds or clock() > runner.deadline:
            break
    loop_s = clock() - t0
    setups += [runner.setup() for _ in range(SETUP_RUNS - len(setups))]
    failures = checks.check(runner, wl, samples)

    walls = [s.wall_s for s in samples]
    nominal = [runner.nominal(s.start, s.wall_s) for s in samples]
    medians = per_call_medians(samples, nominal)
    setup_raw = statistics.median(wall for _, wall in setups)
    metrics = {
        "setup_s": (statistics.median(runner.nominal(*s) for s in setups), "s"),
        "pass_s": (sum(medians.values()), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
    }
    speed = PROBE_NOMINAL_S / statistics.median(d for _, d in runner.probes)

    lines = [
        f"machine speed  {speed:.3f} of nominal  median of {len(runner.probes)} probes; "
        f"times below are at nominal speed, raw in brackets",
        f"setup_s  {metrics['setup_s'][0]:.4f} s ({setup_raw:.4f})  median of {SETUP_RUNS} fresh set-up children",
    ]
    lines += wl.report(medians, per_call_medians(samples, walls), nominal, walls, loop_s)
    t = tail(nominal)
    tail_text = f"{t[0]} {1000 * t[1]:.1f} ms" if t else "no percentile has 10 samples beyond it"
    lines.append(
        f"call latency  p50 {1000 * statistics.median(nominal):.1f} ms ({1000 * statistics.median(walls):.1f}), "
        f"{tail_text}, {len(samples) / loop_s:.3f} calls/s, n={len(walls)} calls in {len(passes)} passes"
    )
    lines.append(f"{wl.name}_failed  {len(failures)} of {len(samples)} answers")
    lines.append(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB  largest child")
    return metrics, len(samples), failures, lines


def traced_run(runner: Runner, wl: workloads.Workload):
    untraced, _ = runner.run_pass(wl.calls)
    traced, _ = runner.run_pass(wl.calls, trace=True)
    plain_s, traced_s = (sum(runner.nominal(s.start, s.wall_s) for s in p) for p in (untraced, traced))
    failures = checks.check(runner, wl, untraced + traced)
    missing = [s for s in traced if s.trace is None]
    failures += [f"{' '.join(s.call.argv)}: tracer wrote no trace" for s in missing]
    metrics = layers.layer_metrics([s.trace for s in traced if s.trace])
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    lines = [f"{name}  {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"traced pass {traced_s:.2f} s, untraced pass {plain_s:.2f} s at nominal speed, {len(wl.calls)} calls each"
    )
    lines.append(f"{wl.name}_failed  {len(failures)} of {len(untraced) + len(traced)} answers")
    return metrics, len(untraced) + len(traced), failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mqtorsion" / "cli.py").is_file():
        print(f"perfbench: no mqtorsion sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        with Runner(clock() + RUN_DEADLINE_S) as runner:
            build(runner)
            wl = workloads.WORKLOADS[args.workload](args.seed)
            if args.trace:
                metrics, attempted, failures, lines = traced_run(runner, wl)
            else:
                metrics, attempted, failures, lines = timed_run(runner, wl, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in lines:
        print("  " + line)
    for failure in failures[:20]:
        print("  FAIL " + failure)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
