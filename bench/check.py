"""Seed-independent check of one sweep-style CSV written by the kljnsim CLI.

A row passes when it is well formed, sits at the expected (f_a, u_eff)
cell, reports the requested bit count, keeps
0 <= n_correct <= n_guessed <= n_secure with p consistent with them, and
meets the acceptance gate of the test suite: p >= 0.99 at u_eff = 0.01 V,
p in [0.45, 0.55] at u_eff = 100 V, and p in [0.45, 0.55] on every
notched cell.  The bit counts of the workloads put every gate at least
4.3 binomial standard deviations from the p a large run measures there,
so a failure points at the program, not at an unlucky seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

COLUMNS = [
    "mode",
    "f_a_hz",
    "f_c_hz",
    "f_b_hz",
    "u_eff_vrms",
    "t_eff_k",
    "n_secure",
    "n_guessed",
    "n_correct",
    "p",
]
BOLTZMANN = 1.380649e-23
U_LOW, U_HIGH = 0.01, 100.0
P_COMPROMISED = 0.99
CHANCE_BAND = (0.45, 0.55)


@dataclass(frozen=True)
class Expected:
    """What every row of one invocation must state."""

    mode: str
    f_c: float
    f_b: float
    r_parallel: float
    bits: int
    cells: tuple[tuple[float, float], ...]  # (f_a, u_eff) in output order
    notched: bool


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-8)


def row_ok(row: list[str], cell: tuple[float, float], expected: Expected) -> bool:
    if len(row) != len(COLUMNS):
        return False
    try:
        values = [float(v) for v in row[1:6]] + [int(v) for v in row[6:9]] + [float(row[9])]
    except ValueError:
        return False
    f_a, f_c, f_b, u_eff, t_eff, n_secure, n_guessed, n_correct, p = values
    t_expected = u_eff * u_eff / (4.0 * BOLTZMANN * expected.r_parallel * f_b)
    if not (
        row[0] == expected.mode
        and _close(f_a, cell[0])
        and _close(u_eff, cell[1])
        and _close(f_c, expected.f_c)
        and _close(f_b, expected.f_b)
        and _close(t_eff, t_expected)
        and n_secure == expected.bits
        and 0 <= n_correct <= n_guessed <= n_secure
        and _close(p, n_correct / n_guessed if n_guessed else 0.5)
    ):
        return False
    if expected.notched or _close(u_eff, U_HIGH):
        return CHANCE_BAND[0] <= p <= CHANCE_BAND[1]
    if _close(u_eff, U_LOW):
        return p >= P_COMPROMISED
    return True


def failed_cells(text: str, expected: Expected) -> int:
    """Number of expected cells that are missing or fail the check.

    A header other than the sweep header, or a row count other than the
    expected one, fails every cell.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != COLUMNS or len(rows) - 1 != len(expected.cells):
        return len(expected.cells)
    return sum(
        not row_ok(row, cell, expected) for row, cell in zip(rows[1:], expected.cells)
    )
