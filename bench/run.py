"""Benchmark of the kljnsim command-line tool.

    python3 bench/run.py --workload lf-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing.  Every CLI invocation is a
fresh process.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see README.md).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from check import U_HIGH, U_LOW, Expected, failed_cells

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 10
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s
NPROC = len(os.sched_getaffinity(0))

# The presets' fixed values, written out so the check does not trust the
# program for them: mode, f_c, f_b, parallel resistance, source frequencies.
PRESETS = {
    "fig5": ("lowfreq", 1e3, 1e5, 1e7 / 1.1e4, (318.30, 101.32, 32.25)),
    "fig6": ("highfreq", 500.0, 1e5, 1e7 / 1.1e4, (2000.0, 16000.0, 32000.0)),
}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # kljnsim arguments, without --seed and --out
    threads: int
    expected: Expected
    memory_argv: tuple[str, ...]  # one cell of the same preset and bit count


def _expected(preset: str, bits: int, cells, notched: bool) -> Expected:
    mode, f_c, f_b, r_parallel, _ = PRESETS[preset]
    return Expected(mode, f_c, f_b, r_parallel, bits, tuple(cells), notched)


def _attack(preset: str, bits: int) -> Workload:
    argv = ("attack", "--preset", preset, "--bits", str(bits), "--u-eff", f"{U_HIGH:g}")
    f_a = PRESETS[preset][4][0]
    return Workload(argv, 1, _expected(preset, bits, [(f_a, U_HIGH)], False), argv)


def _sweep(command: str, preset: str, bits: int, threads: int) -> Workload:
    """Both u_eff edges at every preset source frequency: six cells."""
    argv = (command, "--preset", preset, "--threads", str(threads), "--u-eff-points", "2",
            "--bits", str(bits))
    cells = [(f_a, u_eff) for f_a in PRESETS[preset][4] for u_eff in (U_LOW, U_HIGH)]
    expected = _expected(preset, bits, cells, notched=command == "defend")
    return Workload(argv, threads, expected, _attack(preset, bits).argv)


# The bit counts keep every gate of check.py at least 4.3 binomial standard
# deviations from the p that long runs measure there (see README.md).
# notch-par is left out of BENCHMARK.json as too unsteady on a shared
# machine; it stays here to be run by hand and in test_bench.py.
WORKLOADS = {
    "lf-sweep": _sweep("sweep", "fig5", 4000, threads=1),
    "hf-sweep": _sweep("sweep", "fig6", 2500, threads=1),
    "hf-long": _attack("fig6", 8000),
    "notch-par": _sweep("defend", "fig5", 4000, threads=NPROC),
}


@dataclass
class Invocation:
    wall_s: float
    peak_rss_kib: int
    exit_code: int
    csv: str


class Runner:
    """Starts one child at a time, timed by the parent, inside one deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        python_path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(python_path)}

    def spawn(self, argv: list[str]) -> tuple[float, int, int]:
        """Run ``python3 argv``; return (wall seconds, peak RSS KiB, exit code)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=self.work,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        killer = threading.Timer(timeout, proc.kill)
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
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        return wall, usage.ru_maxrss, proc.returncode

    def cli(
        self, workload: Workload, seed: int, launcher: tuple[str, ...] = ("-m", "kljnsim")
    ) -> Invocation:
        """Run the workload's command line through ``launcher`` and read its CSV."""
        out = self.work / "out.csv"
        out.unlink(missing_ok=True)
        argv = [*launcher, *workload.argv, "--seed", str(seed), "--out", str(out)]
        wall, rss, code = self.spawn(argv)
        text = out.read_text() if code == 0 and out.exists() else ""
        return Invocation(wall, rss, code, text)

    def setup_probe(self, workload: Workload, seed: int) -> float:
        out = self.work / "probe.csv"
        argv = [str(BENCH / "child.py"), "setup", "--", *workload.argv,
                "--seed", str(seed), "--out", str(out), "--force"]
        wall, _, code = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        return wall


def failures(inv: Invocation, workload: Workload) -> int:
    if inv.exit_code != 0:
        return len(workload.expected.cells)
    return failed_cells(inv.csv, workload.expected)


def describe(name: str, values: list[float], unit: str) -> str:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"q1 {q1:.6g}, q3 {q3:.6g}, "
    else:
        spread = ""
    return f"{name:34s} median {median:.6g} {unit} ({spread}n={len(values)})"


def end_to_end(runner: Runner, workload: Workload, seed: int, seconds: float):
    """Set-up probes and as many timed invocations as fit in ``seconds``."""
    start = time.monotonic()
    runner.setup_probe(workload, seed)  # untimed: compiles bytecode, warms the page cache
    # Half the set-up probes run before the invocations and half after, so
    # their median samples the machine over the whole run.
    setups = [runner.setup_probe(workload, seed) for _ in range(SETUP_PROBES // 2)]
    reserve = time.monotonic() - start
    walls, rates, rss = [], [], []
    attempted = failed = 0
    while not walls or time.monotonic() - start + statistics.median(walls) + reserve <= seconds:
        inv = runner.cli(workload, seed)
        attempted += len(workload.expected.cells)
        failed += failures(inv, workload)
        walls.append(inv.wall_s)
        rates.append(workload.expected.bits * len(workload.expected.cells) / inv.wall_s)
        rss.append(inv.peak_rss_kib / 1024.0)
    setups += [runner.setup_probe(workload, seed) for _ in range(SETUP_PROBES - len(setups))]
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "bits_per_s": rates,
        "peak_rss_mib": rss,
        "ok_frac": [1.0 - failed / attempted],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    lines = [describe(name, values, UNITS[name]) for name, values in samples.items()]
    lines.append(f"fail_frac = {failed}/{attempted} cells")
    return metrics, attempted, failed, lines


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, 0
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def tail(values: list[float]) -> float:
    """Highest order statistic with ten samples beyond it; the maximum below 11."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: int  # ns
    end: int  # ns
    cell: int | None
    info: int | None

    @property
    def ns(self) -> int:
        return self.end - self.start


def layer_metrics(rows: list[list], workload: Workload) -> tuple[dict[str, float], bool]:
    """Per-layer metrics from one traced invocation, and whether the spans are consistent."""
    spans: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in map(Span._make, rows):
        spans[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))

    def calls(name: str) -> int:
        return len(spans[name])

    def ns(name: str) -> int:
        return sum(s.ns for s in spans[name])

    def info(name: str) -> int:
        return sum(s.info for s in spans[name])

    def self_ns(name: str) -> int:
        return sum(s.ns - covered_ns(children[s.id]) for s in spans[name])

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    periods = info("channel.session")
    cell_s = [s.ns / 1e9 for s in spans["experiment.run_point"]]
    dispatch = spans["cli.dispatch"][0]
    lf_ns = ns("attacks.lf_threshold") + ns("attacks.lf_gamma") + ns("attacks.lf_decide")
    m = {
        "noise.gbwn.calls": calls("noise.gbwn"),
        "noise.gbwn.us_per_call": per(ns("noise.gbwn") / 1e3, calls("noise.gbwn")),
        "noise.samples_drawn": info("noise.gbwn"),
        "noise.periodogram.calls": calls("noise.periodogram"),
        "noise.periodogram.us_per_call": per(
            ns("noise.periodogram") / 1e3, calls("noise.periodogram")
        ),
        "channel.periods": periods,
        "channel.periods_per_secure_bit": per(periods, info("experiment.run_point")),
        "channel.session.us_per_period": per(ns("channel.session") / 1e3, periods),
        "channel.session.self_us_per_period": per(self_ns("channel.session") / 1e3, periods),
        "attacks.lf.us_per_period": per(lf_ns / 1e3, calls("attacks.lf_decide")),
        "attacks.lf.undetermined_frac": per(info("attacks.lf_decide"), calls("attacks.lf_decide")),
        "attacks.hf_prepare.s": per(ns("attacks.hf_prepare") / 1e9, calls("attacks.hf_prepare")),
        "attacks.hf_prepare.us_per_member": per(
            ns("attacks.hf_prepare") / 1e3, info("attacks.hf_prepare")
        ),
        "attacks.hf_prepare.share": per(ns("attacks.hf_prepare"), ns("experiment.run_point")),
        "attacks.hf.us_per_period": per(
            (ns("attacks.hf_ac_power") + ns("attacks.hf_decide")) / 1e3, calls("attacks.hf_decide")
        ),
        "experiment.notch.calls": calls("experiment.notch"),
        "experiment.notch.us_per_call": per(ns("experiment.notch") / 1e3, calls("experiment.notch")),
        "experiment.run_point.s.p50": statistics.median(cell_s),
        "experiment.run_point.s.tail": tail(cell_s),
        "experiment.sweep.self_s": self_ns("experiment.sweep") / 1e9,
        "experiment.sweep.parallel_eff": per(
            ns("experiment.run_point"), workload.threads * ns("experiment.sweep")
        ),
        "experiment.csv.us_per_row": ns("experiment.csv") / 1e3 / len(workload.expected.cells),
        "cli.resolve_s": (min(start for start, _ in children[dispatch.id]) - dispatch.start) / 1e9,
    }
    # One span per cell, and every cell of a sweep inside the sweep span.
    consistent = len(cell_s) == len(workload.expected.cells) and all(
        cell.parent == sweep.id and sweep.start <= cell.start <= cell.end <= sweep.end
        for sweep in spans["experiment.sweep"]
        for cell in spans["experiment.run_point"]
    )
    return m, consistent


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def traced(runner: Runner, workload: Workload, seed: int):
    """Untraced, traced and tracemalloc invocations of one workload, in that order."""
    spans_path = runner.work / "spans.json"
    memory_path = runner.work / "memory.json"
    child = str(BENCH / "child.py")
    plain = runner.cli(workload, seed)
    traced_inv = runner.cli(workload, seed, (child, "trace", str(spans_path), "--"))
    memory_wall, _, memory_code = runner.spawn(
        [child, "memory", str(memory_path), "--", *workload.memory_argv,
         "--seed", str(seed), "--out", str(runner.work / "memory.csv")]
    )
    attempted = 2 * len(workload.expected.cells)
    failed = failures(plain, workload) + failures(traced_inv, workload)
    if traced_inv.exit_code != 0 or memory_code != 0:
        return {}, attempted, failed, ["traced or tracemalloc run failed"], False
    metrics, consistent = layer_metrics(json.loads(spans_path.read_text()), workload)
    peak = json.loads(memory_path.read_text()) / 2**20
    metrics["mem.traced_peak_mib_per_1k_bits"] = peak / (workload.expected.bits / 1000)
    metrics["src.lines"] = src_lines()
    metrics["trace.overhead_frac"] = traced_inv.wall_s / plain.wall_s - 1.0
    identical = plain.csv == traced_inv.csv
    lines = [
        f"untraced {plain.wall_s:.3f} s, traced {traced_inv.wall_s:.3f} s, "
        f"one-cell tracemalloc {memory_wall:.3f} s; "
        f"traced CSV {'identical' if identical else 'DIFFERS'}, "
        f"spans {'consistent' if consistent else 'INCONSISTENT'}",
        f"experiment.run_point cells = {len(workload.expected.cells)}",
    ]
    lines += [f"{name:40s} {value:.6g} {UNITS[name]}" for name, value in metrics.items()]
    return metrics, attempted, failed, lines, identical and consistent


def _declared_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


UNITS = _declared_units()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not (SRC / "kljnsim" / "__init__.py").is_file():
        sys.exit(f"error: no kljnsim sources under {SRC}; run from a source checkout")

    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(work, deadline)
        if args.trace:
            metrics, attempted, failed, lines, consistent = traced(runner, workload, args.seed)
        else:
            metrics, attempted, failed, lines = end_to_end(runner, workload, args.seed, args.seconds)
            consistent = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    header = f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {NPROC} cores"
    print("\n".join([header, *lines]))
    result = {
        "correct": consistent and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": UNITS[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
