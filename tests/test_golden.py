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
        "90cf850ac9a193d3bab07a29bec4381cbbd605a46c934d5a2d8e041411e1b7ad",
        "8a7d13c07238444564cde99539ab0f0360325d98cacdf178708c36f5a01958ea",
    ),
    (
        "simulate --preset fig6 --bits 2 --seed 7",
        "447bbc527bd991c5fca14b9e652c229bfd72319e8b99b0e882820a7833fc779b",
        "9f48fdf6934f34510e767d3a9e49cc4134bd9783556373a10c28a1c3a15ee1dd",
    ),
    (
        # 145 periods: two chunks of CHUNK_PERIODS, so a chunk boundary shows.
        "simulate --preset fig5 --bits 70 --seed 7",
        "a6da62a1085e3aee48dbeb475053d01717a3fef2a81a23294ed3a1c937d60e7e",
        "155471af6eb00d1cedd73bfd4404e31e6a0f38e7c1cd6ed6a61ab1336c460a75",
    ),
    (
        "simulate --preset fig6 --bits 70 --seed 7",
        "e402c39a209c9ca762d2b0e40c3844989e863fe90baa97bae5b58e1cfb1287ed",
        "892129778373fb7b8e3107bb53b20e731d22b51e25c0f05c6759175affb1fc89",
    ),
    (
        "attack --preset fig5 --u-eff 1 --bits 300 --seed 7",
        "63ad33b64c916b56cdf0cc35dfd7111c6a159f6127dee39593d3c38e56f9722c",
        "766b640e8051a8f69456048b2594be0441d8a32952deb35e305866e8ca838ba3",
    ),
    (
        "attack --preset fig6 --u-eff 1 --bits 300 --seed 7 --ensemble-size 200",
        "59aa1dcd10fb2c9bc692d0c221af983b8f81e0b65fd45acd9f123f975e79e5d8",
        "874027e0ff3fbb572245ddc49d144fe2a8392e2d16a74bbed99f1a880a168f77",
    ),
    (
        # Mid-noise (p = 239/300), so the highfreq band stream shows; at 1 V
        # above, every bit is guessed right and the noise cannot move the row.
        "attack --preset fig6 --u-eff 3 --bits 300 --seed 7 --ensemble-size 200",
        "972c1b6f3d4977700d5c4afb2b83ae8002cd4d61ecf87ec6c2cd483023c6d01e",
        "b4b8780ab12bb05cadfa116cd254eaae1d896dbe0148a82945040c3a8e102fe2",
    ),
    (
        "sweep --preset fig5 --u-eff-points 3 --bits 200 --seed 7",
        "15c64ded9069190cb8ecb336bdbf9b71c00be481df7cf4c95293989c87f28afd",
        "4a5a4daaeb8007b974059791fbb6e4f0e5e092252d00abfe84b3d123391da43a",
    ),
    (
        "sweep --preset fig6 --u-eff-points 3 --bits 200 --seed 7 --ensemble-size 200",
        "fbda3bbbeabbb58e3ea39e7464f1c2c1b458e663224f61527836d82e11ee21d3",
        "e1e4c397a3f1788d9300110dd584637cedbed7d58da3a7d4ba672357b3ad2372",
    ),
    (
        "defend --preset fig5 --u-eff-points 2 --bits 200 --seed 7",
        "198a2d7f39e7668b6d5ad0940c98c22a5fafb4d7f5b53a909a9a400f9e5f8a7f",
        "025b0ac28a49fda0b6dc03a8f33f6f713cccbeb228583ac5ad965aa517c7534f",
    ),
    (
        "defend --preset fig6 --u-eff-points 2 --bits 200 --seed 7 --ensemble-size 200 "
        "--defense raise_temperature --target-t-eff 1e17",
        "0096b56a565d1282bdf490eccc9894ac20ddab4a04fe481eab87d60a601a8c1d",
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
