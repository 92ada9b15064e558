"""Golden CLI output: the exit code and the sha256 of stdout of cheap commands.

A refactor must leave every byte of CLI output unchanged, so any change
here is a change of behaviour and needs its own justification.  To
regenerate after a deliberate output change, print ``_digest(argv)`` for
each entry of ``GOLDEN``.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kvlie.cli import main

SOLUTION = "solution --degree 6 --kernel-poly xyxy-yxyx --lambda1 1/3 --lambda2 -2/3"
HOMOGENEOUS_KERNEL = "1/2*xyxy-1/2*yxxy+1/2*xy+1/2*yx"

GOLDEN = [
    ("bch --degree 7 --format text", 0,
     "3b1e9b4bebca16ba816e891b790b140716d1e557be15090c3a5a8850eaa1183a"),
    ("bch --degree 7 --format json", 0,
     "2ca854c017c6266306828d80c1d733eada834323b0cb50c2528b9a6b2185c758"),
    ("bch --degree 7 --format latex", 0,
     "db2bce4001b1ebf02b084a0add04d87fe9ee926fe978f3d3f2dc3d380fa4ca3c"),
    ("bch --method oracle --vars 3 --degree 5", 0,
     "15b752d0df8236da8afad820b804f00a41ab4c0f3efd6c51f37325774f215860"),
    ("f0 --degree 7 --format text", 0,
     "883421a77a8c5d5a5b7523d517efd8d716f7a2d5d799be5961cbd9b6e4ed2938"),
    ("f0 --degree 7 --format json", 0,
     "fc716d79089f9f183c3f80fb96db9d275eb98a4158ca3c4bcd81e295204852d4"),
    ("f0 --degree 7 --format latex", 0,
     "a6b4d156a747cdd8845c0af3048d26003e9435de6cf44a7e0de57e06adfbe313"),
    (f"{SOLUTION} --format text", 0,
     "96bff556eb7f2f428640488acc51fc200eab9655179cc1a266db6e58118c540b"),
    (f"{SOLUTION} --format json", 0,
     "928066002559e3762f50c6ca9a3c3826de2b9b0c7a6d2c24635323e7d47adf3d"),
    (f"{SOLUTION} --format latex", 0,
     "927fb9d486f7aa26219cb97ec059323f89e029cde9ace9a054f2f5c57f458f7c"),
    ("psi --var y --poly xyxy+1/2*yxx-xxyy --format text", 0,
     "5a5bc8d541065680673241d0c39f5d007086724b3fff9db1027f3fdd645ce0f7"),
    ("psi --var y --poly xyxy+1/2*yxx-xxyy --format json", 0,
     "8cd202bcb3ef4f5e647739664f4ed784decf00c2c82fbf6d86a906ed9514da83"),
    ("psi --var y --poly xyxy+1/2*yxx-xxyy --format latex", 0,
     "f9654125b9aaf526e38cb53daa4c7efd64fafa4dbcd95b456a0d8cd1841b53dd"),
    ("witt --vars 3 --degree 8 --format text", 0,
     "8c3f172508a5ec66daeb1b063d5637d2f8d4b71bb9cde4db6ab9460b7029cdbc"),
    ("witt --vars 3 --degree 8 --format json", 0,
     "6d15352d843b63faf2ea917eeeac24e82d33d425e97d740eb0b157aafef65973"),
    ("witt --vars 3 --degree 8 --format latex", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --equation kv1 --degree 8", 0,
     "dba446c0b438e5bc056a5b78cfbfe876286b3a5e7d4c55e0f0d657bf839f5c5a"),
    ("verify --equation kv1 --degree 6 --kernel-poly xyxy", 0,
     "a6705c8eaaa2e63746ec9d841ded2a8e3fce379bfa28fe8a551f703d20e08afc"),
    ("verify --equation split --degree 8", 0,
     "85ed21f54961cd4dd426a06352e4193e2b140273eff71ca2cd52e730462ba147"),
    (f"verify --equation homogeneous --degree 7 --kernel-poly {HOMOGENEOUS_KERNEL}", 0,
     "89fa9b9cc6914ffec98db41f527b1e6b9b758d7bc1a8e06befdc1ea54f69aec4"),
    ("verify --equation multilinear --vars 3 --degree 6", 0,
     "930f4753f7fde43ba4e686e590622685e7e5fdabc0c240da83d265827dfbccf7"),
    ("bch --method both --vars 2 --degree 8", 0,
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("bch --method both --vars 3 --degree 6", 0,
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("bch --method both --vars 4 --degree 5", 0,
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("bch --vars 4 --degree 7", 0,
     "cf524fea8d1e5d70b3fede8847253f95915e9e6fceae87f7d0ab711d34586cd9"),
    ("f0 --degree 11", 0,
     "0abf03bd936199fcb4f8c5f48bfd3bb03669539f480a428f94cd3fb0fd3ed7ff"),
    # the two commands of the series-d12 benchmark workload, with its digests
    ("f0 --degree 12 --force", 0,
     "2dbe2185a36d9a590faead0cbdcfe058cc19eb9a1b1e087c98b33b888c409c8f"),
    ("bch --method oracle --degree 12 --force --format json", 0,
     "c9524a3952922381630269f0c2ef1bea1afb83d612753d53ab7ca9f39b937bee"),
    # print order x, y, z, u is the letter order, not string order
    ("bch --vars 4 --degree 5 --format json", 0,
     "b410707b464e1e6751e248c26874c2740b75ca0941dee7c8551cd393add3f4b1"),
    ("bch --vars 4 --degree 5 --format latex", 0,
     "641aeb6161044f6d1443c9ae9a0c9e2b36e70a6abe2b2aa27d36fe0a4373fa1e"),
    # polynomial input with an implicit '*' and a constant term
    ("solution --degree 5 --kernel-poly 2xyy-1/3*yx+3 --format json", 0,
     "f9121711241c162bc0cc584f9b089b93147ebcd454128f572e7033e598d4536b"),
]


def _digest(command):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(command.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command, code, sha256", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_cli_output_is_byte_identical_to_the_recorded_digest(command, code, sha256):
    assert _digest(command) == (code, sha256)
