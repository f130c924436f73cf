"""Benchmark of the paramag-loss CLI, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the harness is one closed-loop client: it starts
``python -m paramagloss.cli ...`` for each invocation of the workload's
script, waits for it to exit, checks its output, and only then starts the
next.  Whole passes of the script repeat; the last is the one whose end
comes nearest to ``--seconds``.  Right before and right after each
invocation, on the same CPU, the harness times a fixed reference task;
the reported time metrics are invocation times in units of that task, so
they do not follow the drifting speed of a shared host.

With ``--trace 1`` it runs the same script in this process through
``paramagloss.cli.main``, alternating a plain pass with a pass whose
package entry points are wrapped by ``spans.Tracer``, and times the
package's imports with ``-X importtime`` in fresh interpreters.

Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
from importlib import metadata
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BUNDLED_DB = SRC / "paramagloss" / "data" / "sapphire_defects.json"
BUNDLED_TABLE = SRC / "paramagloss" / "data" / "rare_earth_lines.json"

import numpy as np  # noqa: E402

import check  # noqa: E402  (the benchmark's own modules sit beside this file)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
REFERENCE_REPEATS = 3
INVOCATION_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Modelled bytes per line-point of the Lorentzian mix: read omega, read
# and write the accumulator (3 x 8 B).  Computed, not measured.
KERNEL_BYTES_PER_LINE_POINT = 24

END_TO_END = {
    "invocation_ref.p50": "ref",
    "cpu_ref.p50": "ref",
    "rows_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed with the result but not in it: raw times follow the host's speed.
END_TO_END_RAW = {
    "invocation_ms.p50": "ms",
    "invocations_per_s": "1/s",
    "rows_per_s": "1/s",
    "cpu_ms.p50": "ms",
    "reference_ms.p50": "ms",
}

PER_LAYER = {
    "import.paramagloss_ms": "ms",
    "import.scipy_special_ms": "ms",
    "import.numpy_ms": "ms",
    "cli.self_ms": "ms",
    "ensemble.load_species_db.ms": "ms",
    "ensemble.load_species_db.lines": "count",
    "ensemble.species_loss.calls": "count",
    "ensemble.species_loss.us_per_call": "us",
    "ensemble.sweep.self_ms": "ms",
    "spin.line_coupling_sq.calls": "count",
    "spin.line_coupling_sq.ms": "ms",
    "kernels.lorentzian_mix.calls": "count",
    "kernels.lorentzian_mix.ms": "ms",
    "kernels.lorentzian_mix.line_points": "count",
    "kernels.lorentzian_mix.ns_per_line_point": "ns",
    "kernels.lorentzian_mix.bytes_computed": "B",
    "lineshape.calls": "count",
    "lineshape.ms": "ms",
    "ioformat.write.ms": "ms",
    "ioformat.bytes": "B",
    "ioformat.mb_per_s": "MB/s",
    "emission.ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.layers_absent": "count",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no program, or a broken set-up)."""


@dataclass
class Outcome:
    """One finished invocation."""

    wall_s: float
    exit_code: int
    out: bytes
    err: str
    cpu_s: float = 0.0
    rss_kb: int = 0
    ref_s: float = 0.0  # the reference task's wall time around this invocation
    ref_cpu_s: float = 0.0  # and its CPU time


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    out_bytes: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, checker: check.Checker, inv, outcome: Outcome) -> None:
        self.attempted += 1
        try:
            self.rows += checker.check(inv, outcome.exit_code, outcome.out, outcome.err)
        except check.CheckFailed as exc:
            self.failed += 1
            self.reasons.append(f"{' '.join(inv.argv)}: {exc}")
            return
        if inv.expect_exit == 0:
            self.out_bytes += len(outcome.out)


# ------------------------------------------------------------- processes


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PARAMAG_LOSS_DB"}
    env["PYTHONPATH"] = str(SRC)
    # The child gets one core: a BLAS thread pool would only compete with
    # itself there and add its time to cpu_ms.
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def _read_and_remove(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def spawn(argv, workdir: Path, env, output: str | None = None) -> Outcome:
    """Run the CLI once as a child process and wait for it to exit."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "paramagloss.cli", *argv],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=workdir,
            env=env,
        )
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = _read_and_remove(out_path)
    stderr = _read_and_remove(err_path).decode("utf-8", "replace")
    if output is not None:
        stdout = _read_and_remove(output)
    return Outcome(
        wall_s=wall,
        exit_code=proc.returncode,
        out=stdout,
        err=stderr,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
    )


def pin_to_one_cpu() -> None:
    """Keep this process, and so every child and reference task, on one CPU.

    The two vCPUs of a shared host speed up and slow down independently,
    so the reference task must run where the invocations run.  The child
    has that CPU to itself while the harness blocks in ``os.wait4``.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


_REFERENCE_GRID = np.linspace(1.0, 2.0, 4000)


def _reference_slice() -> float:
    """About 10 ms of the work the CLI does: scalar maths, number formatting, a numpy kernel."""
    acc = 0.0
    for i in range(10_000):
        acc += math.sqrt(i + 1.5) * math.exp(-i * 1e-4)
    text = ",".join(f"{v:.9e}" for v in _REFERENCE_GRID[:2500])
    mix = np.sum(1.0 / (1.0 + (_REFERENCE_GRID[:, None] - _REFERENCE_GRID[None, :60]) ** 2))
    return acc + len(text) + float(mix)


def reference_s() -> tuple[float, float]:
    """Median wall and CPU seconds of a few reference slices run now."""
    walls, cpus = [], []
    for _ in range(REFERENCE_REPEATS):
        wall, cpu = time.perf_counter(), time.process_time()
        _reference_slice()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)


def spawn_between_references(argv, workdir: Path, env, output: str | None = None) -> Outcome:
    """spawn(), with the reference task timed right before and right after."""
    before = reference_s()
    outcome = spawn(argv, workdir, env, output)
    after = reference_s()
    outcome.ref_s = (before[0] + after[0]) / 2.0
    outcome.ref_cpu_s = (before[1] + after[1]) / 2.0
    return outcome


def setup(workload_fn, seed: int, workdir: Path, env) -> tuple[workloads.Workload, float]:
    """Generate the inputs and warm each subcommand once; returns seconds taken."""
    start = time.perf_counter()
    wl = workload_fn(seed, workdir)
    wl.write_files()
    for argv in wl.warmups:
        outcome = spawn(argv, workdir, env)
        if outcome.exit_code != 0:
            raise HarnessError(f"warm-up {' '.join(argv)} exited {outcome.exit_code}: {outcome.err[-500:]}")
    return wl, time.perf_counter() - start


# --------------------------------------------------------------- reporting


def machine_record() -> list[str]:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    numba = importlib.util.find_spec("numba")
    return [
        f"machine: nproc={os.cpu_count()} cpu={cpu!r} os={platform.system()} {platform.release()}",
        f"toolchain: python={platform.python_version()} numpy={metadata.version('numpy')} "
        f"scipy={metadata.version('scipy')} numba={'absent' if numba is None else 'present'}",
    ]


def hd_median(samples: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A Beta-weighted mean of all order statistics: with the ten or so long
    invocations of a heavy workload it varies much less from run to run
    than the middle sample does, and it does not jump between the clusters
    of a script that mixes invocations of different lengths.
    """
    from scipy.special import betainc  # noqa: PLC0415  (only the end-to-end report needs it)

    ordered = sorted(samples)
    n = len(ordered)
    a = (n + 1) / 2.0
    cdf = [float(betainc(a, a, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return sorted(samples)[k], 100.0 * (k + 1) / n, n


def result_line(correct: bool, tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def print_failures(tally: Tally) -> None:
    for reason in tally.reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)


# ------------------------------------------------------------ end to end


def run_end_to_end(name: str, seed: int, seconds: float, workdir: Path, corrupt=None) -> tuple[bool, Tally, dict]:
    """Closed loop of CLI processes; corrupt(index, outcome) lets the self-test damage outputs."""
    env = child_env()
    pin_to_one_cpu()
    fn = workloads.WORKLOADS[name]
    # Set-ups are spread over the run (first, after the pass that crosses
    # each further share of --seconds), so their median is not taken from
    # one short stretch of a machine whose speed drifts.
    wl, elapsed = setup(fn, seed, workdir, env)
    setup_times = [elapsed]
    checker = check.Checker(str(BUNDLED_DB), str(BUNDLED_TABLE), seed)
    tally = Tally()
    walls, cpus, refs, ref_cpus, rss = [], [], [], [], []
    start = time.perf_counter()
    passes = 0
    while True:
        for inv in wl.script:
            outcome = spawn_between_references(inv.argv, workdir, env, inv.output)
            if corrupt is not None:
                corrupt(tally.attempted, outcome)
            tally.record(checker, inv, outcome)
            walls.append(outcome.wall_s)
            cpus.append(outcome.cpu_s)
            refs.append(outcome.ref_s)
            ref_cpus.append(outcome.ref_cpu_s)
            rss.append(outcome.rss_kb)
        passes += 1
        elapsed = time.perf_counter() - start
        if len(setup_times) < SETUP_REPEATS - 1 and elapsed >= seconds * len(setup_times) / (SETUP_REPEATS - 1):
            setup_times.append(setup(fn, seed, workdir, env)[1])
            start += setup_times[-1]  # set-up time is not measuring time
        if elapsed + elapsed / passes / 2 >= seconds:  # this pass ends nearer --seconds than the next would
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup(fn, seed, workdir, env)[1])
    wall_refs = [w / r for w, r in zip(walls, refs)]
    busy = sum(walls)
    metrics = {
        "invocation_ref.p50": hd_median(wall_refs),
        "cpu_ref.p50": hd_median([c / r for c, r in zip(cpus, ref_cpus)]),
        "rows_per_ref": tally.rows / sum(wall_refs),
        "peak_rss_mb": max(rss) / 1024.0,
        "setup_s": statistics.median(setup_times),
        "invocation_ms.p50": hd_median(walls) * 1e3,
        "invocations_per_s": tally.attempted / busy,
        "rows_per_s": tally.rows / busy,
        "cpu_ms.p50": hd_median(cpus) * 1e3,
        "reference_ms.p50": hd_median(refs) * 1e3,
    }
    print(f"workload: {name} seed={seed} script={len(wl.script)} invocations, one closed-loop client")
    for line in machine_record():
        print(line)
    for metric, unit in (END_TO_END | END_TO_END_RAW).items():
        print(f"{metric} {metrics[metric]:.6g} {unit}")
    high = tail(walls)
    if high is None:
        print(f"invocation_ms.tail n/a ms (n={len(walls)} samples; needs 11)")
    else:
        print(f"invocation_ms.tail {high[0] * 1e3:.6g} ms (p{high[1]:.0f}, n={high[2]} samples)")
    print(f"failed_ratio {tally.failed / tally.attempted:.6g} ratio (failed={tally.failed} attempted={tally.attempted})")
    return tally.failed == 0, tally, metrics


# ------------------------------------------------------------------ trace

_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def import_times(env) -> dict[str, float]:
    """Cumulative import time (ms) of paramagloss, scipy.special and numpy."""
    samples: dict[str, list[float]] = {"paramagloss": [], "scipy.special": [], "numpy": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import paramagloss.cli"],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            env=env,
            timeout=INVOCATION_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise HarnessError(f"import paramagloss.cli failed: {proc.stderr[-500:]}")
        totals = dict.fromkeys(samples, 0.0)
        for match in _IMPORT_LINE.finditer(proc.stderr):
            cumulative_us, indent, module = int(match.group(1)), match.group(2), match.group(3)
            if module in ("numpy", "scipy.special"):
                totals[module] += cumulative_us / 1e3
            elif module.split(".")[0] == "paramagloss" and not indent:
                totals["paramagloss"] += cumulative_us / 1e3
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def import_program():
    """Import paramagloss.cli from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("paramagloss.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise HarnessError(f"paramagloss imported from {cli.__file__}, not from {SRC}")
    return cli


def run_inprocess(main, inv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(inv.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed invocation, not a harness error
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    data = out.getvalue().encode("utf-8")
    if inv.output is not None:
        data = _read_and_remove(inv.output)
    return Outcome(wall_s=wall, exit_code=code, out=data, err=err.getvalue())


def _pass(main, script, checker, tally) -> float:
    busy = 0.0
    for inv in script:
        outcome = run_inprocess(main, inv)
        busy += outcome.wall_s
        tally.record(checker, inv, outcome)
    return busy


def _layer_metrics(stats: dict[str, spans.LayerStats], out_bytes: int) -> dict[str, float]:
    def get(layer):
        return stats.get(layer, spans.LayerStats())

    ms = 1e-6
    sl, lcs, kern = get("ensemble.species_loss"), get("spin.line_coupling_sq"), get("kernels.lorentzian_mix")
    write = get("ioformat.write")
    return {
        "cli.self_ms": get(spans.ROOT_LAYER).self_ns * ms,
        "ensemble.load_species_db.ms": get("ensemble.load_species_db").total_ns * ms,
        "ensemble.load_species_db.lines": get("ensemble.load_species_db").work,
        "ensemble.species_loss.calls": sl.calls,
        "ensemble.species_loss.us_per_call": sl.total_ns / 1e3 / sl.calls if sl.calls else 0.0,
        "ensemble.sweep.self_ms": get("ensemble.sweep").self_ns * ms,
        "spin.line_coupling_sq.calls": lcs.calls,
        "spin.line_coupling_sq.ms": lcs.total_ns * ms,
        "kernels.lorentzian_mix.calls": kern.calls,
        "kernels.lorentzian_mix.ms": kern.total_ns * ms,
        "kernels.lorentzian_mix.line_points": kern.work,
        "kernels.lorentzian_mix.ns_per_line_point": kern.total_ns / kern.work if kern.work else 0.0,
        "kernels.lorentzian_mix.bytes_computed": KERNEL_BYTES_PER_LINE_POINT * kern.work,
        "lineshape.calls": get("lineshape").calls,
        "lineshape.ms": get("lineshape").total_ns * ms,
        "ioformat.write.ms": write.total_ns * ms,
        "ioformat.bytes": out_bytes,
        "ioformat.mb_per_s": out_bytes / 1e6 / (write.total_ns * 1e-9) if write.total_ns else 0.0,
        "emission.ms": get("emission").total_ns * ms,
    }


COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B") and name != "trace.layers_absent"]


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> tuple[bool, Tally, dict]:
    env = child_env()
    wl, _ = setup(workloads.WORKLOADS[name], seed, workdir, env)
    imports = import_times(env)
    os.environ.pop("PARAMAG_LOSS_DB", None)
    cli = import_program()
    checker = check.Checker(str(BUNDLED_DB), str(BUNDLED_TABLE), seed)
    tally = Tally()
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.ROOT_LAYER, cli.main)
    _pass(cli.main, wl.script, checker, Tally())  # untimed: first-call caches fill here
    plain_times, traced_times, per_pass = [], [], []
    start = time.perf_counter()
    while not traced_times or time.perf_counter() - start < seconds:
        plain_times.append(_pass(cli.main, wl.script, checker, tally))
        tracer.reset()
        tracer.install(spans.ENTRY_POINTS)
        bytes_before = tally.out_bytes
        try:
            traced_times.append(_pass(traced_main, wl.script, checker, tally))
        finally:
            tracer.uninstall()
        per_pass.append(_layer_metrics(tracer.stats(), tally.out_bytes - bytes_before))
    tracer.write(WORK / f"spans-{name}.tsv")
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    counts_repeat = all(p[key] == per_pass[0][key] for p in per_pass for key in COUNT_METRICS)
    metrics.update({key: per_pass[0][key] for key in COUNT_METRICS})
    if not counts_repeat:
        print("trace counts differ between passes of one script", file=sys.stderr)
    metrics.update(
        {
            "import.paramagloss_ms": imports["paramagloss"],
            "import.scipy_special_ms": imports["scipy.special"],
            "import.numpy_ms": imports["numpy"],
            "trace.overhead_ratio": statistics.median(traced_times) / statistics.median(plain_times),
            "trace.layers_absent": len(tracer.absent),
        }
    )
    print(f"workload: {name} seed={seed} script={len(wl.script)} invocations, traced in-process, "
          f"{len(traced_times)} traced + {len(plain_times)} plain passes")
    for line in machine_record():
        print(line)
    for entry in tracer.absent:
        print(f"layer absent: {entry}")
    for metric, unit in PER_LAYER.items():
        print(f"{metric} {metrics[metric]:.6g} {unit}")
    print_self_times(wl, imports, tracer)
    return tally.failed == 0 and counts_repeat, tally, metrics


def print_self_times(wl, imports, tracer) -> None:
    """Rank layers by self time per pass, counting import once per process start."""
    last = tracer.stats()
    shares = {layer: st.self_ns * 1e-6 for layer, st in last.items() if st.calls}
    shares["import"] = imports["paramagloss"] * len(wl.script)
    total = sum(shares.values())
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print("self time per pass (import counted once per invocation):")
    for layer, value in ranked:
        print(f"  {layer:26s} {value:10.2f} ms {100.0 * value / total:5.1f} %")


# -------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the paramag-loss CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, corrupt=None) -> tuple[bool, Tally, dict]:
    """Run one workload in a fresh work directory, removed afterwards."""
    if not (SRC / "paramagloss" / "cli.py").is_file():
        raise HarnessError(f"no program to benchmark: {SRC / 'paramagloss' / 'cli.py'} is missing")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            return run_traced(args.workload, args.seed, args.seconds, workdir)
        return run_end_to_end(args.workload, args.seed, args.seconds, workdir, corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an exception: spawn() kills and reaps
    # its child, and run() removes the work directory.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        correct, tally, metrics = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_failures(tally)
    print(result_line(correct, tally, metrics, PER_LAYER if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
