"""Self-test of the benchmark, run from the repository root:

    python3 -m pytest bench/test_bench.py -q

The output-check cases are instant.  The others run ``run.py`` in
subprocesses and take about four minutes together on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import COLUMNS, U_HIGH, U_LOW, Expected, failed_cells

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTS = (
    "channel.periods",
    "noise.gbwn.calls",
    "noise.periodogram.calls",
    "experiment.notch.calls",
    "noise.samples_drawn",
    "src.lines",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


EXPECTED = Expected("lowfreq", 1e3, 1e5, 1e7 / 1.1e4, 1000, ((318.3, U_LOW), (318.3, U_HIGH)), False)
GOOD_ROWS = [
    "lowfreq,318.3,1000,100000,0.01,1.991816892e+10,1000,993,989,0.9959718026",
    "lowfreq,318.3,1000,100000,100,1.991816892e+18,1000,951,489,0.5141955836",
]


def csv_text(rows: list[str]) -> str:
    return "\r\n".join([",".join(COLUMNS), *rows]) + "\r\n"


def test_check_accepts_good_rows():
    assert failed_cells(csv_text(GOOD_ROWS), EXPECTED) == 0


@pytest.mark.parametrize(
    "rows, failed",
    [
        ([GOOD_ROWS[0]], 2),  # missing row fails every cell
        ([GOOD_ROWS[0].replace(",989,", ",900,"), GOOD_ROWS[1]], 1),  # p disagrees with counts
        ([GOOD_ROWS[0], GOOD_ROWS[1].replace(",1000,", ",999,")], 1),  # n_secure != --bits
        ([GOOD_ROWS[0], GOOD_ROWS[1].replace("489,0.5141955836", "560,0.588853838")], 1),  # gate
        ([GOOD_ROWS[1], GOOD_ROWS[0]], 2),  # cells out of order
    ],
)
def test_check_rejects_bad_rows(rows, failed):
    assert failed_cells(csv_text(rows), EXPECTED) == failed


def test_end_to_end_run_prints_every_declared_metric():
    result = result_of(bench("hf-long", 3, trace=0))
    assert set(result["metrics"]) == declared("end_to_end")


@pytest.mark.parametrize("workload", ["hf-long", "notch-par"])
def test_counts_repeat_exactly_for_one_seed(workload):
    first = result_of(bench(workload, 11, trace=1))["metrics"]
    second = result_of(bench(workload, 11, trace=1))["metrics"]
    assert set(first) == declared("per_layer")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_second_seed_passes_with_other_counts():
    first = result_of(bench("hf-long", 11, trace=1))["metrics"]
    other = result_of(bench("hf-long", 12, trace=1))["metrics"]
    assert other["channel.periods"] != first["channel.periods"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("lf-sweep", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
