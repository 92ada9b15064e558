"""Command-line surface: construct series, verify identities, export.

Exit codes: 0 when the requested identity holds or output was produced,
1 when a mathematical defect was found, 2 for usage or parse errors.
Identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Iterator

from .algebra import (
    XY,
    NCPoly,
    PolyParseError,
    _ratio_text,
    default_alphabet,
    parse_poly,
    to_json_terms,
    to_latex,
    to_text,
)
from .idempotents import _goldberg, psi
from .kv import (
    bch_eulerian,
    bch_oracle,
    f0,
    general_solution,
    homogeneous_solution,
    multilinear_particular_solution,
    particular_solution,
    verify_homogeneous,
    verify_kv1,
    verify_multilinear,
    verify_split,
)
from .scalars import parse_rational, witt_dimension
from .series import GradedSeries

MAX_UNFORCED_DEGREE = 11
EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_USAGE = 2


def _render_poly(p: NCPoly | GradedSeries, fmt: str) -> str:
    if fmt == "json":
        import json  # here only: the other formats skip its import

        return json.dumps(to_json_terms(p), separators=(",", ":"))
    if fmt == "latex":
        return to_latex(p)
    return to_text(p)


def _emit(text: str, output: str | None) -> None:
    if output is not None:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SystemExit(f"kvlie: cannot write {output}: {exc.strerror or exc}")
    else:
        try:
            print(text, flush=True)
        except OSError as exc:  # a closed pipe: send what is still buffered nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(f"kvlie: cannot write stdout: {exc.strerror or exc}")


def _check_degree(n: int, force: bool, what: str = "degree") -> None:
    if n > MAX_UNFORCED_DEGREE and not force:
        raise SystemExit(f"kvlie: {what} {n} exceeds {MAX_UNFORCED_DEGREE}; the cost grows "
                         "about 2x per degree, pass --force to proceed")


def _defect_lines(check: str, defect: GradedSeries) -> Iterator[str]:
    """Per-term defect report naming the check, lowest degree first, formatted as read."""
    for text, num, den in defect.reduced_terms():  # letters are single characters
        yield f"{check} defect at degree {len(text)}: {text} coefficient {_ratio_text(num, den)}"


def _check_vars(k: int) -> None:
    try:
        default_alphabet(k)
    except ValueError as exc:
        raise SystemExit(f"kvlie: --vars {k}: {exc}")


def _parse_rational_flag(flag: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise SystemExit(f"kvlie: {flag}: {exc}")


def _parse_expr(text: str, force: bool) -> NCPoly:
    """The polynomial in ``text``; its word degree is guarded like --degree,
    since the Dynkin map on a degree-n word makes up to 2^(n-1) terms."""
    try:
        p = parse_poly(XY, text)
    except PolyParseError as exc:
        raise SystemExit(f"kvlie: cannot parse polynomial: {exc}")
    _check_degree(p.max_degree(), force, "polynomial degree")
    return p


def _cmd_bch(args) -> int:
    _check_vars(args.vars)
    if args.method == "both" and args.format != "text":
        raise SystemExit("kvlie: bch --method both prints difference lines and has no json or latex form")
    n, k = args.degree, args.vars
    if args.method == "both":
        diff = bch_eulerian(n, k) - bch_oracle(n, k)
        _emit("\n".join(_defect_lines("eulerian-vs-oracle", diff)), args.output)
        return EXIT_OK if diff.is_zero() else EXIT_DEFECT
    # component n alone, as a series holding only that part: no word dict, and
    # the Eulerian method builds no lower component
    top = _goldberg(n, k)[:2] if args.method == "eulerian" else bch_oracle(n, k).dense[n]
    _emit(_render_poly(GradedSeries._raw(default_alphabet(k), range(k), (None,) * n + (top,)), args.format),
          args.output)
    return EXIT_OK


def _cmd_f0(args) -> int:
    _emit(_render_poly(f0(args.degree), args.format), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    n = args.degree
    if args.format is not None:
        raise SystemExit("kvlie: verify prints one status line and reads no --format")
    for flag, value, readers in (("--kernel-poly", args.kernel_poly, ("kv1", "homogeneous")),
                                 ("--vars", args.vars, ("multilinear",))):
        if value is not None and args.equation not in readers:
            raise SystemExit(f"kvlie: {flag} is read only by --equation {'|'.join(readers)}")
    if args.equation == "kv1":
        if args.kernel_poly is not None:
            p = _parse_expr(args.kernel_poly, args.force)
            pair = general_solution(p, order=n)
        else:
            pair = particular_solution(n)
        defect = verify_kv1(pair, n)
    elif args.equation == "split":
        defect = verify_split(f0(n), n)
    elif args.equation == "homogeneous":
        if args.kernel_poly is None:
            raise SystemExit("kvlie: --equation homogeneous requires --kernel-poly")
        p = _parse_expr(args.kernel_poly, args.force)
        try:
            pair = homogeneous_solution(p, order=n)
        except ValueError as exc:
            raise SystemExit(f"kvlie: {exc}")
        defect = verify_homogeneous(pair, n)
    elif args.equation == "multilinear":
        k = 3 if args.vars is None else args.vars
        _check_vars(k)
        solutions = multilinear_particular_solution(k, n)
        defect = verify_multilinear(solutions, n)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"kvlie: unknown equation {args.equation!r}")
    if defect.is_zero():
        _emit(
            f"verified: {args.equation} defect vanishes through degree {n}",
            args.output,
        )
        return EXIT_OK
    _emit(next(_defect_lines(args.equation, defect)), args.output)
    return EXIT_DEFECT


def _cmd_solution(args) -> int:
    p = _parse_expr(args.kernel_poly, args.force) if args.kernel_poly is not None else NCPoly.zero(XY)
    lam1 = _parse_rational_flag("--lambda1", args.lambda1)
    lam2 = _parse_rational_flag("--lambda2", args.lambda2)
    pair = general_solution(p, lam1, lam2, args.degree)
    defect = verify_kv1(pair, args.degree)
    F, G = (_render_poly(s, args.format) for s in (pair.F, pair.G))
    # in json, F and G are JSON arrays already: the object is written around them
    _emit(f'{{"F":{F},"G":{G}}}' if args.format == "json" else f"F = {F}\nG = {G}", args.output)
    if not defect.is_zero():
        print(f"kvlie: self-verification failed: {next(_defect_lines('kv1', defect))}", file=sys.stderr)
        return EXIT_DEFECT
    return EXIT_OK


def _cmd_witt(args) -> int:
    if args.format == "latex":
        raise SystemExit("kvlie: witt prints a table and has no latex form; use --format text|json")
    # The Lyndon words of degree n are a basis of the degree-n piece, so
    # Witt's formula counts both columns without enumerating the words.
    rows = [(n, witt_dimension(args.vars, n)) for n in range(1, args.degree + 1)]
    if args.format == "json":
        import json

        body = json.dumps(
            [{"degree": n, "dimension": dim, "lyndon_words": dim} for n, dim in rows],
            separators=(",", ":"),
        )
    else:
        body = "\n".join(
            f"degree {n}: dimension {dim}, lyndon words {dim}" for n, dim in rows
        )
    _emit(body, args.output)
    return EXIT_OK


def _cmd_psi(args) -> int:
    p = _parse_expr(args.poly, args.force)
    if args.var not in XY.letters:
        raise SystemExit(f"kvlie: --var must be one of {'/'.join(XY.letters)}")
    _emit(_render_poly(psi(p, args.var), args.format), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvlie",
        description="Free Lie algebra engine for the first Kashiwara-Vergne equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, degree_default: int | None = 8) -> None:
        p.add_argument("--degree", type=int, default=degree_default,
                       help=f"working degree (default {degree_default})" if degree_default
                       else "not read: the degree is that of --poly")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--force", action="store_true",
                       help=f"allow degrees above {MAX_UNFORCED_DEGREE}")

    p_bch = sub.add_parser("bch", help="Baker-Campbell-Hausdorff component at a degree")
    common(p_bch)
    p_bch.add_argument("--method", choices=("eulerian", "oracle", "both"), default="eulerian")
    p_bch.add_argument("--vars", type=int, default=2, help="number of generators")

    p_f0 = sub.add_parser("f0", help="particular solution F0 through a degree")
    common(p_f0)

    p_verify = sub.add_parser("verify", help="check an identity; exit 1 on any defect")
    common(p_verify)
    p_verify.set_defaults(format=None)  # None unless given, so that --format is refused
    p_verify.add_argument("--equation", choices=("kv1", "split", "homogeneous", "multilinear"),
                          required=True)
    p_verify.add_argument("--kernel-poly", default=None,
                          help="polynomial expression, e.g. '1/2*xy + 1/2*yx'")
    p_verify.add_argument("--vars", type=int, default=None,
                          help="generators for --equation multilinear (default 3)")

    p_sol = sub.add_parser("solution", help="general solution attached to a polynomial")
    common(p_sol)
    p_sol.add_argument("--kernel-poly", default=None)
    p_sol.add_argument("--lambda1", default="0")
    p_sol.add_argument("--lambda2", default="0")

    p_witt = sub.add_parser("witt", help="free Lie algebra dimensions per degree")
    common(p_witt)
    p_witt.add_argument("--vars", type=int, default=2)

    p_psi = sub.add_parser("psi", help="apply the kernel projection map")
    common(p_psi, None)
    p_psi.add_argument("--var", required=True)
    p_psi.add_argument("--poly", required=True)

    return parser


_HANDLERS = {
    "bch": _cmd_bch,
    "f0": _cmd_f0,
    "verify": _cmd_verify,
    "solution": _cmd_solution,
    "witt": _cmd_witt,
    "psi": _cmd_psi,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # '--lambda1 -1/2' as '--lambda1=-1/2': argparse reads a separate value that
    # starts with '-' and is not a plain negative number as the next flag.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--lambda1", "--lambda2"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    # outputs print exact values of any length; the parsers bound their inputs
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.command == "psi":
            if args.degree is not None:
                raise SystemExit("kvlie: psi works at the degree of --poly and reads no --degree")
        elif args.degree < 1:
            raise SystemExit("kvlie: --degree must be >= 1")
        else:
            _check_degree(args.degree, args.force)
        if getattr(args, "vars", None) is not None and args.vars < 2:
            raise SystemExit("kvlie: --vars must be >= 2")
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        raise
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
