"""The benchmark's workloads: CLI command lines and the check on each one's output.

A workload is a list of commands that make up one pass. Commands with fixed
flags are checked against the sha256 of the stdout this engine printed for
them; seeded commands print output no digest can pin, so they are checked by
the engine's own zero-tolerance verification (exit code and `verified:` line)
plus a structural check on the JSON they print.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check  # returns a description of what is wrong, or None

    def text(self) -> str:
        return " ".join(self.argv)


def digest_check(sha256: str) -> Check:
    def check(stdout: bytes) -> str | None:
        got = hashlib.sha256(stdout).hexdigest()
        return None if got == sha256 else f"stdout sha256 {got} != {sha256}"

    return check


def exact_check(expected: bytes) -> Check:
    def check(stdout: bytes) -> str | None:
        return None if stdout == expected else f"stdout {stdout[:200]!r} != {expected!r}"

    return check


def solution_check(lambda1: Fraction) -> Check:
    """`solution --format json` prints {"F": [...], "G": [...]}; lambda1 * x is
    the only degree-1 x term of F, because Psi of a degree-5 polynomial starts
    at degree 4 and F0 has no x term."""

    def check(stdout: bytes) -> str | None:
        try:
            payload = json.loads(stdout)
            coeffs = {item["word"]: Fraction(item["coeff"]) for item in payload["F"]}
            if not isinstance(payload["G"], list) or not payload["G"]:
                return "solution JSON has an empty G"
        except (ValueError, KeyError, TypeError) as exc:
            return f"solution output is not the expected JSON: {exc}"
        got = coeffs.get("x", Fraction(0))
        return None if got == lambda1 else f"F coefficient of x is {got}, expected {lambda1}"

    return check


# A command that does no work: interpreter start, `import kvlie` and argparse.
SETUP_COMMAND = Command(
    ("witt", "--degree", "1"),
    digest_check("2c853e2f3d70ecc8f50e70b244ced8ea0855129488f0406998a5bb9be33c7798"),
)

VERIFY_DEGREE = 9
SOLUTION_DEGREE = 8
KERNEL_DEGREE = 5
KERNEL_WORDS = 3
MAX_DIGIT = 9


def _small_rational(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, MAX_DIGIT), rng.randint(1, MAX_DIGIT))
    return value if rng.random() < 0.5 else -value


def seeded_inputs(seed: int) -> tuple[str, Fraction]:
    """P (homogeneous of degree 5, three words, numerators and denominators at
    most 9) and lambda1 = r, so that every seed does the same work."""
    rng = random.Random(seed)
    words = rng.sample(range(2**KERNEL_DEGREE), KERNEL_WORDS)
    pieces = []
    for k, code in enumerate(words):
        word = "".join("xy"[code >> i & 1] for i in range(KERNEL_DEGREE))
        coeff = _small_rational(rng)
        sign = "-" if coeff < 0 else ("" if k == 0 else "+")
        pieces.append(f"{sign} {abs(coeff)}*{word}".strip())
    return " ".join(pieces), _small_rational(rng)


def _verify_d9(seed: int) -> list[Command]:
    poly, lambda1 = seeded_inputs(seed)
    verified = f"verified: kv1 defect vanishes through degree {VERIFY_DEGREE}\n".encode()
    return [
        Command(
            ("verify", "--equation", "kv1", "--degree", str(VERIFY_DEGREE), "--kernel-poly", poly),
            exact_check(verified),
        ),
        Command(
            # "=" keeps argparse from reading a negative value as an option.
            ("solution", "--kernel-poly", poly, f"--lambda1={lambda1}",
             "--degree", str(SOLUTION_DEGREE), "--format", "json"),
            solution_check(lambda1),
        ),
    ]


def _series_d12(seed: int) -> list[Command]:
    return [
        Command(
            ("f0", "--degree", "12", "--force"),
            digest_check("2dbe2185a36d9a590faead0cbdcfe058cc19eb9a1b1e087c98b33b888c409c8f"),
        ),
        Command(
            ("bch", "--method", "oracle", "--degree", "12", "--force", "--format", "json"),
            digest_check("c9524a3952922381630269f0c2ef1bea1afb83d612753d53ab7ca9f39b937bee"),
        ),
    ]


def _multilinear_k3(seed: int) -> list[Command]:
    return [
        Command(
            ("verify", "--equation", "multilinear", "--vars", "3", "--degree", "7"),
            exact_check(b"verified: multilinear defect vanishes through degree 7\n"),
        ),
        Command(
            ("bch", "--vars", "3", "--degree", "7", "--method", "both"),
            exact_check(b"\n"),  # the empty difference of the two constructions
        ),
    ]


# Why each workload is in the benchmark is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "verify-d9": _verify_d9,
    "series-d12": _series_d12,
    "multilinear-k3": _multilinear_k3,
}
