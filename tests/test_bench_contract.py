"""The contract between the CLI and the benchmark's span tracer.

``bench/child.py trace`` patches module-level names of the package and
derives its per-cell metrics from one ``experiment.run_point`` span per
sweep cell.  This runs it on a small sweep, writing only under pytest's
temporary directory.  ``bench/child.py setup`` times configuration
resolution by stubbing the cell entry points the CLI binds by import, and
exits 0 only if a command reaches its first cell.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


@pytest.mark.parametrize(
    "command,preset",
    [(command, preset) for preset in ("fig5", "fig6") for command in ("sweep", "defend")],
    # defend: the default notch; fig6 runs the highfreq rehearsal and its spans
    ids=["sweep", "defend", "sweep-fig6", "defend-fig6"],
)
def test_sweep_traces_one_run_point_span_per_cell(command, preset, tmp_path):
    spans_path, csv_path = tmp_path / "spans.json", tmp_path / "sweep.csv"
    argv = [command, "--preset", preset, "--u-eff-points", "2", "--bits", "20", "--seed", "1",
            "--out", str(csv_path)]
    result = subprocess.run(
        [sys.executable, str(CHILD), "trace", str(spans_path), "--", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # (id, parent, name, start_ns, end_ns, cell, info)
    spans = json.loads(spans_path.read_text())
    parents = {span[0]: span[1] for span in spans}
    (sweep,) = [span for span in spans if span[2] == "experiment.sweep"]
    cells = [span for span in spans if span[2] == "experiment.run_point"]
    rows = len(csv_path.read_text().splitlines()) - 1
    assert rows == 6  # three preset source frequencies at two noise levels
    assert len(cells) == rows
    for span_id, parent, _, start, end, cell, _ in cells:
        assert cell == span_id
        while parent not in (None, sweep[0]):
            parent = parents[parent]
        assert parent == sweep[0]
        assert sweep[3] <= start <= end <= sweep[4]


@pytest.mark.parametrize("preset", ["fig5", "fig6"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--bits", "2"],
        ["attack", "--bits", "10"],
        ["sweep", "--u-eff-points", "1", "--bits", "10"],
        ["defend", "--u-eff-points", "1", "--bits", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_setup_probe_reaches_the_first_cell(argv, preset):
    result = subprocess.run(
        [sys.executable, str(CHILD), "setup", "--", *argv, "--preset", preset],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr  # 3: no cell was reached
