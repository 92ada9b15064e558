"""Cold-CLI benchmark for kvlie.

    python3 perfbench/run.py --workload verify-d9 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. With `--trace 0` each command of the
workload runs as a fresh `python -m kvlie.cli` process, one at a time (a
closed loop with one client), and the run reports the end-to-end metrics.
With `--trace 1` one such untraced pass is followed by traced passes in this
process, which report the per-layer metrics. `--workload all` runs every
workload in turn and prints every metric with its unit and sample count.

Every command's exit code and output are checked; a wrong exit code, wrong
output, traceback or timeout is a failed operation, and any failed operation
makes the run exit 1. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import UNITS, Tracer, counts_differ, instrument, layer_modules, lru_caches, summarize
from workloads import SETUP_COMMAND, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES_PER_PASS = 3  # plus one discarded warm-up probe per run
RUN_LIMIT_S = 150.0  # hard cap on one run; the contract allows 180 s
THREADS_ENV = "KVLIE_THREADS"  # unset, so the CLI stays single-threaded
# Unset, so cold commands run from cached bytecode as an installed kvlie does.
BYTECODE_ENV = "PYTHONDONTWRITEBYTECODE"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
SPEED_SCALED = ("wall_s", "cpu_s", "setup_s")

REFERENCE_ITERATIONS = 40_000
REFERENCE_S = 0.16  # the median reference reading on the reference machine (README)


@dataclass
class Outcome:
    """One command run: what it printed and what it cost."""

    command: Command
    code: int | None
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float = 0.0
    rss_mib: float = 0.0
    timed_out: bool = False

    def problem(self) -> str | None:
        if self.timed_out:
            return "timed out"
        if b"Traceback (most recent call last)" in self.stderr:
            return "traceback: " + self.stderr.decode(errors="replace").strip().splitlines()[-1]
        if self.code != 0:
            return f"exit code {self.code}"
        return self.command.check(self.stdout)

    def signature(self) -> tuple[int | None, str]:
        return self.code, hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, outcome: Outcome, problem: str | None = None) -> Outcome:
        self.attempted += 1
        problem = outcome.problem() or problem
        if problem:
            self.failed += 1
            self.problems.append(f"{outcome.command.text()}: {problem}")
        return outcome


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in (THREADS_ENV, BYTECODE_ENV)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cold(command: Command, env: dict[str, str], timeout: float) -> Outcome:
    """Run one command in a fresh interpreter; rusage comes from os.wait4."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kvlie.cli", *command.argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env,
    )
    chunks = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj] += data
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - start
    return Outcome(
        command, None if timed_out else proc.returncode,
        bytes(chunks[proc.stdout]), bytes(chunks[proc.stderr]), wall,
        cpu=usage.ru_utime + usage.ru_stime, rss_mib=usage.ru_maxrss / 1024,
        timed_out=timed_out,
    )


@dataclass
class Clock:
    start: float
    seconds: float

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def timeout(self) -> float:
        return max(0.0, RUN_LIMIT_S - self.elapsed())

    def room_for(self, pass_s: float) -> bool:
        return self.elapsed() + pass_s <= self.seconds


def cold_pass(commands: list[Command], tally: Tally, clock: Clock) -> list[Outcome]:
    env = child_env()
    return [tally.add(run_cold(c, env, clock.timeout())) for c in commands]


def _reset_bernoulli(scalars) -> None:
    # kv.clear_caches() does not reach the Bernoulli prefix memo; a fresh
    # process starts with only B_0, so each traced command does too.
    values = getattr(scalars, "_bernoulli_values", None)
    if isinstance(values, list):
        del values[1:]


def traced_pass(commands: list[Command]) -> tuple[list[Outcome], dict[str, float]]:
    """Run the commands in this process under the tracer, cold caches each."""
    os.environ.pop(THREADS_ENV, None)
    layers = layer_modules()
    clear_caches = layers["kv"].clear_caches
    tracer = Tracer()
    outcomes = []
    with instrument(tracer):
        for command in commands:
            clear_caches()
            for module in layers.values():  # caches kv.clear_caches() does not name
                for fn in lru_caches(module):
                    fn.cache_clear()
            _reset_bernoulli(layers["scalars"])
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = layers["cli"].main(list(command.argv))
                except SystemExit as exc:  # the codes the interpreter would exit with
                    code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    code = 1
                    err.write(traceback.format_exc())
            wall = perf_counter() - start
            tracer.add_cache_stats(layers)
            stdout = out.getvalue().encode()
            tracer.counts["cli.output_bytes"] += len(stdout)
            outcomes.append(Outcome(command, code, stdout, err.getvalue().encode(), wall))
        clear_caches()
    return outcomes, tracer.metrics()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _samples(values: list[float]) -> str:
    return "[" + " ".join(f"{v:.6g}" for v in values) + "]"


def report(name: str, unit: str, values: list[float], raw: list[float] | None = None) -> None:
    q1, q2, q3 = quartiles(values)
    line = (f"metric {name} [{unit}] n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}"
            f" samples={_samples(values)}")
    if raw is not None:
        line += f" raw_median={statistics.median(raw):.6g} raw={_samples(raw)}"
    print(line)


def reference_s() -> float:
    """Time a fixed workload of the kind kvlie's inner loops run: `Fraction`
    arithmetic and dict updates keyed by tuples of small ints. It uses no
    kvlie code, so it only tells how fast this machine runs Python now."""
    start = perf_counter()
    acc: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, REFERENCE_ITERATIONS):
        key = (i % 7, i % 3, i % 5, i % 2)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(1, i % 97 + 1)
    return perf_counter() - start


def run_untraced(commands: list[Command], tally: Tally, clock: Clock) -> dict[str, float]:
    env = child_env()

    def cold(command: Command) -> Outcome:
        return tally.add(run_cold(command, env, clock.timeout()))

    cold(SETUP_COMMAND)  # warm-up: the first run in a fresh checkout compiles bytecode
    raw: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    readings = []
    while True:
        start = perf_counter()
        # Probes sit between passes so that they sample the same machine load.
        readings.append(reference_s())
        raw["setup_s"] += [cold(SETUP_COMMAND).wall for _ in range(SETUP_PROBES_PER_PASS)]
        outcomes = []
        for command in commands:
            readings.append(reference_s())
            outcomes.append(cold(command))
        raw["wall_s"].append(sum(o.wall for o in outcomes))
        raw["cpu_s"].append(sum(o.cpu for o in outcomes))
        raw["peak_rss_mb"].append(max(o.rss_mib for o in outcomes))
        if tally.problems or not clock.room_for(perf_counter() - start):
            break
    readings.append(reference_s())
    # One factor for the run: single readings are noisier than a long command,
    # but their median follows the machine's speed from one run to the next.
    factor = REFERENCE_S / statistics.median(readings)
    values = {}
    for name, samples in raw.items():
        scaled = [v * factor for v in samples] if name in SPEED_SCALED else samples
        report(name, END_TO_END_UNITS[name], scaled, samples if name in SPEED_SCALED else None)
        values[name] = statistics.median(scaled)
    report("machine.reference_s", "s", readings)
    return values


def run_traced(commands: list[Command], tally: Tally, clock: Clock) -> dict[str, float]:
    env = child_env()
    tally.add(run_cold(SETUP_COMMAND, env, clock.timeout()))  # warm-up, as in untraced runs
    cold = cold_pass(commands, tally, clock)
    cold_s = sum(o.wall for o in cold)
    passes = []
    while True:
        outcomes, metrics = traced_pass(commands)
        for c, t in zip(cold, outcomes):
            mismatch = None
            if c.signature() != t.signature():
                mismatch = f"traced (exit, sha256) {t.signature()} != untraced {c.signature()}"
            tally.add(t, mismatch)
        traced_s = sum(o.wall for o in outcomes)
        metrics["trace_overhead_ratio"] = traced_s / cold_s
        passes.append(metrics)
        if tally.problems or not clock.room_for(traced_s):
            break
    differ = counts_differ(passes)
    if differ:
        tally.problems.append(f"counts differ between traced passes: {', '.join(differ)}")
    for name in passes[0]:
        report(name, UNITS[name], [p[name] for p in passes])
    return summarize(passes)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    commands = WORKLOADS[name](seed)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commands": [c.text() for c in commands],
        "python": platform.python_version(), "commit": git_commit(),
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
    }
    tally = Tally()
    clock = Clock(perf_counter(), seconds)
    print(f"workload {name}")
    values = (run_traced if trace else run_untraced)(commands, tally, clock)
    record["loadavg_end"] = os.getloadavg()
    record["elapsed_s"] = round(clock.elapsed(), 3)
    print("record " + json.dumps(record))
    print(f"metric ops_failed_frac [ratio] n={tally.attempted} "
          f"value={tally.failed / tally.attempted:.6g}")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return tally, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_cold kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "kvlie" / "cli.py").is_file():
        print(f"perfbench: no kvlie sources under {SRC}; run from a kvlie checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(END_TO_END_UNITS, **UNITS, ops_failed_frac="ratio")
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        tally, values = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        correct = correct and not tally.problems
        if args.workload == "all":
            values["ops_failed_frac"] = tally.failed / tally.attempted
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
