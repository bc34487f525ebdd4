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
        "b6dcff3b86e7079a0b3368acb77517c62f39e7effcf2fbcacdf9006c80ea87bf",
    ),
    (
        "simulate --preset fig6 --bits 2 --seed 7",
        "162dbc9437897d8ab9f1d9f603754180c56f20c23742de0f63238fb31118396e",
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
        "f305bef5bbd2af167be75ed4a69e0bc7f0b7d761e4e5634d2847924e4eafa74b",
    ),
    (
        "defend --preset fig5 --u-eff-points 2 --bits 200 --seed 7",
        "55fbf8c326b1cd5407bed81eea35e4a6403230f771f1f855388dfa64c64a3d2e",
    ),
    (
        "defend --preset fig6 --u-eff-points 2 --bits 200 --seed 7 --ensemble-size 200 "
        "--defense raise_temperature --target-t-eff 1e17",
        "24fa94556b5613b566121d027a6e61673ac5368e96364b7ca4fc2ae46cfa4136",
    ),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_is_pinned(command, digest, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(target)]) == 0
    capsys.readouterr()
    actual = hashlib.sha256(target.read_bytes()).hexdigest()
    assert actual == digest, f"{command!r} now hashes to {actual}"
