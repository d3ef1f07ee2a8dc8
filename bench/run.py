"""dhyper benchmark: one workload, one seed, one fresh interpreter.

Run from the repository root:

    python3 bench/run.py --workload erdelyi --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory; the run
fails (exit 2, no result line) when it is not there.  One client sends
tasks in a closed loop: a task starts when the previous one has been
answered and checked.  Each task is timed alone and checked outside its
timed region; the run stops at the first cycle boundary after the timed
tasks add up to ``--seconds``.

The host is shared, and how fast it runs Python drifts by a third within
minutes.  So every time the end-to-end metrics use is rescaled to a
reference host speed: it is multiplied by ``REFERENCE_CALIBRATION_S`` over
the time a fixed calibration loop, which runs no dhyper code, takes around
it (the mean of the calibrations just before and just after; one is taken
whenever a quarter second of tasks has passed).  The ``#`` summary line
gives the unscaled figures and the measured calibration.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
three set-ups, each in a fresh interpreter started by this run, timed from
process start until the first task could run (import, input generation and,
for ``membership``, basis completion), rescaled by the calibrations of the
parent before the start and of the child when it is ready.

``--trace 1`` prints the per-layer metrics instead, with unscaled times.  It
runs a fixed number of cycles per workload, so every count repeats exactly
for a given seed and program; spans are written to ``bench/traces/``.  ``trace.overhead_s`` is the
traced wall time minus that of the same set-up and tasks replayed untraced
in a fresh interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
SETUP_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 150
# cycles run by a traced run: about ten seconds of tasks at the seed commit
TRACE_CYCLES = {"erdelyi": 4, "toric": 1, "series": 2, "membership": 300}
# the scale of the reported times: about the median calibration time in the
# baseline runs, so scaled and unscaled times agree on a typically loaded host
REFERENCE_CALIBRATION_S = 0.003
CALIBRATE_EVERY_S = 0.25


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import dhyper from ``src/`` beside the benchmark, and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "dhyper", "__init__.py")):
        fail(f"no program source at {SRC}")
    sys.path.insert(0, SRC)
    import dhyper

    if os.path.dirname(os.path.dirname(os.path.abspath(dhyper.__file__))) != SRC:
        fail(f"dhyper was imported from {dhyper.__file__}, not from {SRC}")
    import workloads

    return workloads


def child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"child run {args} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def calibration_s() -> float:
    """Best of three timings of a fixed loop of Fraction and dict work."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = {}
        x = Fraction(1, 3)
        for i in range(300):
            x = (x * Fraction(i % 5 + 1, i % 3 + 2) + 1) % 97
            acc[i % 7, i % 11] = acc.get((i % 7, i % 11), 0) + x
        best = min(best, time.perf_counter() - start)
    return best


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """(unscaled, scaled) seconds from spawning a fresh interpreter until it
    could run its first task."""
    before = calibration_s()
    start = time.monotonic()
    ready, after = map(float, child(["--workload", workload, "--seed", str(seed), "--setup-probe"]).split())
    return ready - start, (ready - start) * REFERENCE_CALIBRATION_S * 2 / (before + after)


class Loop:
    """The closed loop: time each task, check it, tally the outcomes."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.failed = 0
        self.undecided = 0
        self.calibrations = [(0, calibration_s())]  # (tasks run before it, seconds)
        self._uncalibrated_s = 0.0

    def run_task(self, task) -> None:
        if self._uncalibrated_s >= CALIBRATE_EVERY_S:
            self.calibrations.append((len(self.latencies), calibration_s()))
            self._uncalibrated_s = 0.0
        tracer = self.tracer
        if tracer is not None:
            tracer.task += 1
            tracer.active = True
        error = None
        start = time.perf_counter()
        try:
            answer = task.run()
        except Exception as exc:  # a crash is a failed task, not a failed run
            error = exc
        self.latencies.append(time.perf_counter() - start)
        self._uncalibrated_s += self.latencies[-1]
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                decided = task.check(answer)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if self.failed <= 3:
                print(f"bench: task {task.kind} {task.inputs!r} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        elif not decided:
            self.undecided += 1

    def run(self, wl, seconds: float | None = None, cycles: int | None = None) -> None:
        for done, cycle in enumerate(wl.cycles(), start=1):
            for task in cycle:
                self.run_task(task)
            if seconds is not None and sum(self.latencies) >= seconds:
                break
            if cycles is not None and done >= cycles:
                break
        self.calibrations.append((len(self.latencies), calibration_s()))

    def scaled_latencies(self) -> list[float]:
        """Each latency at the reference speed, by the calibrations around it."""
        cal, j, out = self.calibrations, 0, []
        for i, t in enumerate(self.latencies):
            while cal[j + 1][0] <= i:
                j += 1
            out.append(t * REFERENCE_CALIBRATION_S * 2 / (cal[j][1] + cal[j + 1][1]))
        return out

    def summary(self, name: str, seed: int) -> str:
        n = len(self.latencies)
        busy = sum(self.latencies)
        if n > 10:
            tail = sorted(self.scaled_latencies())[n - 11]
            tail_text = f"task_tail_s {tail:.6f} at p{100 * (n - 10) / n:.1f} of {n} tasks"
        else:
            tail_text = f"task_tail_s n/a ({n} tasks, fewer than 11)"
        return (
            f"# {name} seed {seed}: {n} tasks in {busy:.3f} s; {tail_text}; "
            f"failed_frac {self.failed / n:.4f}; inconclusive_frac {self.undecided / n:.4f}"
        )


def timed_prepare(wl) -> float:
    start = time.perf_counter()
    wl.prepare()
    return time.perf_counter() - start


def result(loop: Loop, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": loop.failed == 0,
            "attempted": len(loop.latencies),
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def measure(name: str, seed: int, seconds: float) -> None:
    workloads = load_program()
    samples = [setup_sample(name, seed) for _ in range(SETUP_SAMPLES)]
    wl = workloads.WORKLOADS[name](seed)
    wl.prepare()
    loop = Loop()
    loop.run(wl, seconds=seconds)
    scaled = loop.scaled_latencies()
    metrics = {
        "tasks_per_s": (len(scaled) / sum(scaled), "1/s"),
        "task_p50_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(s for _, s in samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    calibration = statistics.median(c for _, c in loop.calibrations)
    print(loop.summary(name, seed))
    print(
        f"# unscaled: tasks_per_s {len(loop.latencies) / sum(loop.latencies):.4f}, "
        f"task_p50_s {statistics.median(loop.latencies):.6f}, "
        f"setup_s {statistics.median(r for r, _ in samples):.4f}; "
        f"calibration {calibration * 1000:.3f} ms (reference {REFERENCE_CALIBRATION_S * 1000:g} ms)"
    )
    print(result(loop, metrics))


def replay(name: str, seed: int, cycles: int) -> None:
    """Untraced set-up and tasks of a traced run, for the overhead."""
    workloads = load_program()
    wl = workloads.WORKLOADS[name](seed)
    prepare_s = timed_prepare(wl)
    loop = Loop()
    loop.run(wl, cycles=cycles)
    print(json.dumps({"wall_s": prepare_s + sum(loop.latencies), "tasks": len(loop.latencies)}))


def traced(name: str, seed: int) -> None:
    workloads = load_program()
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    wl = workloads.WORKLOADS[name](seed)
    tracer.active = True
    prepare_s = timed_prepare(wl)
    tracer.active = False
    loop = Loop(tracer)
    loop.run(wl, cycles=TRACE_CYCLES[name])
    wall = prepare_s + sum(loop.latencies)

    out_dir = os.path.join(BENCH, "traces")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")

    untraced = json.loads(child(["--workload", name, "--seed", str(seed), "--replay", str(TRACE_CYCLES[name])]))
    if untraced["tasks"] != len(loop.latencies):
        fail("the untraced replay ran another task count")
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced["wall_s"], "s")
    busy = sum(tracer.busy.values())
    shares = ", ".join(f"{layer} {tracer.busy[layer] / busy:.1%}" for layer in tracing.LAYERS)
    print(loop.summary(name, seed))
    print(f"# busy shares: {shares}; {len(tracer.spans)} spans")
    print(result(loop, metrics))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("erdelyi", "toric", "series", "membership"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        wl = load_program().WORKLOADS[args.workload](args.seed)
        wl.prepare()
        next(wl.cycles())
        ready = time.monotonic()
        print(ready, calibration_s())
    elif args.replay is not None:
        replay(args.workload, args.seed, args.replay)
    elif args.trace:
        traced(args.workload, args.seed)
    else:
        measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
