"""Golden outputs: SHA-256 of small pinned CLI runs on both presets.

These pin the exact bytes of every command, and of its configuration echo
on stderr (every line but the closing timing line), so that refactors
which must not change results can prove it.  A deliberate change of
random streams or output format updates the hashes in the same change and
says so.  The simulate dumps carry 17 significant digits, so their hashes
also pin the float64 arithmetic of numpy on the platform they were taken
on (numpy 2.4, x86-64).
"""

import hashlib

import pytest

from kljnsim.cli import main

GOLDEN = [
    (
        "simulate --preset fig5 --bits 2 --seed 7",
        "b6dcff3b86e7079a0b3368acb77517c62f39e7effcf2fbcacdf9006c80ea87bf",
        "8a7d13c07238444564cde99539ab0f0360325d98cacdf178708c36f5a01958ea",
    ),
    (
        "simulate --preset fig6 --bits 2 --seed 7",
        "162dbc9437897d8ab9f1d9f603754180c56f20c23742de0f63238fb31118396e",
        "9f48fdf6934f34510e767d3a9e49cc4134bd9783556373a10c28a1c3a15ee1dd",
    ),
    (
        "attack --preset fig5 --u-eff 1 --bits 300 --seed 7",
        "fe6b6323be003c13c95a72779627478471df436ed4089398bd91e86907e6b892",
        "766b640e8051a8f69456048b2594be0441d8a32952deb35e305866e8ca838ba3",
    ),
    (
        "attack --preset fig6 --u-eff 1 --bits 300 --seed 7 --ensemble-size 200",
        "59aa1dcd10fb2c9bc692d0c221af983b8f81e0b65fd45acd9f123f975e79e5d8",
        "874027e0ff3fbb572245ddc49d144fe2a8392e2d16a74bbed99f1a880a168f77",
    ),
    (
        # Mid-noise (p = 250/300), so the highfreq band stream shows; at 1 V
        # above, every bit is guessed right and the noise cannot move the row.
        "attack --preset fig6 --u-eff 3 --bits 300 --seed 7 --ensemble-size 200",
        "aff20a5c9050e83618923ae15e7d32239847fa2db58cf587a6d4f2f65b1cdf3b",
        "b4b8780ab12bb05cadfa116cd254eaae1d896dbe0148a82945040c3a8e102fe2",
    ),
    (
        "sweep --preset fig5 --u-eff-points 3 --bits 200 --seed 7",
        "b7d236c6ee0cabeedbcd64be2eab467ef6bdd2bbd2f68e18efd9e5001e9374c5",
        "4a5a4daaeb8007b974059791fbb6e4f0e5e092252d00abfe84b3d123391da43a",
    ),
    (
        "sweep --preset fig6 --u-eff-points 3 --bits 200 --seed 7 --ensemble-size 200",
        "3300f5d6b4b3c5e5d914da05f22d012685000532a8e9e798b73afc16eee613a2",
        "e1e4c397a3f1788d9300110dd584637cedbed7d58da3a7d4ba672357b3ad2372",
    ),
    (
        "defend --preset fig5 --u-eff-points 2 --bits 200 --seed 7",
        "55fbf8c326b1cd5407bed81eea35e4a6403230f771f1f855388dfa64c64a3d2e",
        "025b0ac28a49fda0b6dc03a8f33f6f713cccbeb228583ac5ad965aa517c7534f",
    ),
    (
        "defend --preset fig6 --u-eff-points 2 --bits 200 --seed 7 --ensemble-size 200 "
        "--defense raise_temperature --target-t-eff 1e17",
        "7e28055e012d5261bda7db8260afafdccfc7f5eb0184e15de840375a362f2975",
        "0f58da397503bba19fe7747af40155921016cfe3ba696d39b59b57e2c3deebbe",
    ),
]


@pytest.mark.parametrize("command,digest,echo_digest", GOLDEN, ids=[c for c, *_ in GOLDEN])
def test_cli_output_is_pinned(command, digest, echo_digest, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(target)]) == 0
    *echo, closing = capsys.readouterr().err.splitlines(keepends=True)
    assert closing.startswith("finished in")
    actual = hashlib.sha256(target.read_bytes()).hexdigest()
    assert actual == digest, f"{command!r} now hashes to {actual}"
    actual = hashlib.sha256("".join(echo).encode()).hexdigest()
    assert actual == echo_digest, f"the echo of {command!r} now hashes to {actual}"
