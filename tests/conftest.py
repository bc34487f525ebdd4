"""Shared pytest plumbing for the test suite."""

import os
from pathlib import Path

import pytest

# Tests that run ``python -m kljnsim`` in a subprocess import the checkout's
# package too, as the tests themselves do through ``pythonpath``, and turn
# a RuntimeWarning into an error, as ``filterwarnings`` does in-process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
)


@pytest.fixture
def acceptance_log(request):
    """Callable that queues one verdict line for the end-of-run summary."""

    def log(line):
        record_acceptance(request.config, line)

    return log


def record_acceptance(config, line):
    """Queue a one-line verdict for the end-of-run acceptance summary."""
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        config._acceptance_lines = lines
    lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
