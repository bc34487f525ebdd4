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
        "e1c47793fe337092f365993ec2dfa0abbaff1e2ccb61a6a5da2784be7a2ef0c7",
    ),
    (
        "attack --preset fig6 --u-eff 1 --bits 300 --seed 7 --ensemble-size 200",
        "59aa1dcd10fb2c9bc692d0c221af983b8f81e0b65fd45acd9f123f975e79e5d8",
        "b903b14e0bdb50d914a68fcd304fd779b6ce78e28b63ffbeb69022e68ad653fb",
    ),
    (
        # Mid-noise (p = 251/300), so the highfreq band stream shows; at 1 V
        # above, every bit is guessed right and the noise cannot move the row.
        "attack --preset fig6 --u-eff 3 --bits 300 --seed 7 --ensemble-size 200",
        "c7cd1b4beae520ef5231ae165c8e655d728ef93bfd70812d81c241931ffaf378",
        "e7d2185235ce0bb641bc60d61de1d43f5a7e8eae703b7cda78d08ab2cc67373f",
    ),
    (
        "sweep --preset fig5 --u-eff-points 3 --bits 200 --seed 7",
        "b7d236c6ee0cabeedbcd64be2eab467ef6bdd2bbd2f68e18efd9e5001e9374c5",
        "2e08aa61b0d7977bd76fab7fe2d03df11d8dcbd59f61234ac8a8606c02e91f1f",
    ),
    (
        "sweep --preset fig6 --u-eff-points 3 --bits 200 --seed 7 --ensemble-size 200",
        "f305bef5bbd2af167be75ed4a69e0bc7f0b7d761e4e5634d2847924e4eafa74b",
        "4926730f250d1e8e08ee10ac41b63f979f9e8b61c75fab38bfa606a0289763bf",
    ),
    (
        "defend --preset fig5 --u-eff-points 2 --bits 200 --seed 7",
        "55fbf8c326b1cd5407bed81eea35e4a6403230f771f1f855388dfa64c64a3d2e",
        "29f164844f6e0660e7de85dfa174004574225f4134f144cfc6340eb5a71283e2",
    ),
    (
        "defend --preset fig6 --u-eff-points 2 --bits 200 --seed 7 --ensemble-size 200 "
        "--defense raise_temperature --target-t-eff 1e17",
        "24fa94556b5613b566121d027a6e61673ac5368e96364b7ca4fc2ae46cfa4136",
        "638a8139121c29012be9f1e663cf920d52812a89d1681b36630ec138f956c504",
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
