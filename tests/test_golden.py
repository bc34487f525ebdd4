"""Golden outputs: SHA-256 of small pinned CLI runs on both presets.

These pin the exact bytes of every command so that refactors which must
not change results can prove it.  A deliberate change of random streams
or output format updates the hashes in the same change and says so.  The
simulate dumps carry 17 significant digits, so their hashes also pin the
float64 arithmetic of numpy on the platform they were taken on (numpy
2.4, x86-64).
"""

import hashlib

import pytest

from kljnsim.cli import main

GOLDEN = [
    (
        "simulate --preset fig5 --bits 2 --seed 7",
        "1ae52a38b2289ff9190135f9bffa1cd4da91701d7b3031f568942f8d1398f56b",
    ),
    (
        "simulate --preset fig6 --bits 2 --seed 7",
        "4028a9707efbda4d4fe1ce3afeb24faacb0050b256e76f2dbc3d406286a5432f",
    ),
    (
        "attack --preset fig5 --u-eff 1 --bits 300 --seed 7",
        "fe6b6323be003c13c95a72779627478471df436ed4089398bd91e86907e6b892",
    ),
    (
        "attack --preset fig6 --u-eff 1 --bits 300 --seed 7 --ensemble-size 200",
        "59aa1dcd10fb2c9bc692d0c221af983b8f81e0b65fd45acd9f123f975e79e5d8",
    ),
    (
        "sweep --preset fig5 --u-eff-points 3 --bits 200 --seed 7",
        "b7d236c6ee0cabeedbcd64be2eab467ef6bdd2bbd2f68e18efd9e5001e9374c5",
    ),
    (
        "sweep --preset fig6 --u-eff-points 3 --bits 200 --seed 7 --ensemble-size 200",
        "6d45f0e18628608b35b4dcc4b3c614c4c739ca05b0b3760cc3afff00ecd60af6",
    ),
    (
        "defend --preset fig5 --u-eff-points 2 --bits 200 --seed 7",
        "55fbf8c326b1cd5407bed81eea35e4a6403230f771f1f855388dfa64c64a3d2e",
    ),
    (
        "defend --preset fig6 --u-eff-points 2 --bits 200 --seed 7 --ensemble-size 200 "
        "--defense raise_temperature --target-t-eff 1e17",
        "38d9de3699b1d8ba9aa032c91a7c7f714a8139b2fbcf53787b0a907197c78ecf",
    ),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_is_pinned(command, digest, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(target)]) == 0
    capsys.readouterr()
    actual = hashlib.sha256(target.read_bytes()).hexdigest()
    assert actual == digest, f"{command!r} now hashes to {actual}"
