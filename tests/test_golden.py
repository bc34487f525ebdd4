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
        "c4c878775fb8593e4d1738796e1cdd2a654a3dcba1e043e92077bad96e0a4d9a",
    ),
    (
        "sweep --preset fig6 --u-eff-points 3 --bits 200 --seed 7 --ensemble-size 200",
        "5ee2057a16ce1040d5eca9a9a62098d62309989c0239a8886f88b2fdce141d8e",
    ),
    (
        "defend --preset fig5 --u-eff-points 2 --bits 200 --seed 7",
        "16130df2cd9ddf36415d734fd08b19dce1a1b76937399041bceade32bd7412ed",
    ),
    (
        "defend --preset fig6 --u-eff-points 2 --bits 200 --seed 7 --ensemble-size 200 "
        "--defense raise_temperature --target-t-eff 1e17",
        "d6826c5c3e2944aafaf58cda33872a7f21ff500b08507bd1669d0291e4a3cad5",
    ),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_is_pinned(command, digest, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(target)]) == 0
    capsys.readouterr()
    actual = hashlib.sha256(target.read_bytes()).hexdigest()
    assert actual == digest, f"{command!r} now hashes to {actual}"
