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
        "ae705e53d2e0133ad982ddcad2db6b61c7aee10b5a366bf39619a7285f0d3a54",
    ),
    (
        "simulate --preset fig6 --bits 2 --seed 7",
        "c02e3930e26e61e4224627b5c5c57dc3e70b5ebb5ccc902fa09d38af79080da8",
    ),
    (
        "attack --preset fig5 --u-eff 1 --bits 300 --seed 7",
        "5eb28a603d59e0c1be07a43812c0d895fce29eb73a4c7fdeb10fcade01e3ed9c",
    ),
    (
        "attack --preset fig6 --u-eff 1 --bits 300 --seed 7 --ensemble-size 200",
        "59aa1dcd10fb2c9bc692d0c221af983b8f81e0b65fd45acd9f123f975e79e5d8",
    ),
    (
        "sweep --preset fig5 --u-eff-points 3 --bits 200 --seed 7",
        "4088a7c2069cd0d070444de15921148e386e0ce4254e6726d208a053e381e2ea",
    ),
    (
        "sweep --preset fig6 --u-eff-points 3 --bits 200 --seed 7 --ensemble-size 200",
        "ff3a95a1a49ca1601186c8855be6eeb699a62538f10461c922c98ee7c57deb2b",
    ),
    (
        "defend --preset fig5 --u-eff-points 2 --bits 200 --seed 7",
        "63e91f5c1a83d51c4a21305db5185b70027417fd019c60059fc5dc74147bf34e",
    ),
    (
        "defend --preset fig6 --u-eff-points 2 --bits 200 --seed 7 --ensemble-size 200 "
        "--defense raise_temperature --target-t-eff 1e17",
        "88368efce56a8272fc96df8648250f8461dccccc0bb97467416d865bbe4015ca",
    ),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_is_pinned(command, digest, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
