"""Command-line surface: construct series, verify identities, export.

Exit codes: 0 when the requested identity holds or output was produced,
1 when a mathematical defect was found, 2 for usage or parse errors.
Identical flags produce byte-identical output.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Iterator, NoReturn

from .algebra import (
    XY,
    Alphabet,
    NCPoly,
    PolyParseError,
    Rational,
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
    verify_homogeneous,
    verify_kv1,
    verify_multilinear,
    verify_split,
)
from .scalars import witt_dimension
from .series import GradedSeries

MAX_UNFORCED_WORDS = 2**16
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


def _defect_lines(check: str, defect: GradedSeries) -> Iterator[str]:
    """Per-term defect report naming the check, lowest degree first, formatted as read."""
    for text, num, den in defect.reduced_terms():  # letters are single characters
        yield f"{check} defect at degree {len(text)}: {text} coefficient {_ratio_text(num, den)}"


def _check_words(k: int, n: int, force: bool, what: str) -> None:
    """Unless forced, refuse a cost of k^n words, terms or steps over MAX_UNFORCED_WORDS;
    the exponent is capped before the power, as k^17 > 2^16 for every k >= 2."""
    if not force and k ** min(n, MAX_UNFORCED_WORDS.bit_length()) > MAX_UNFORCED_WORDS:
        raise SystemExit(f"kvlie: {what} costs {k}^{n}, over the budget of {MAX_UNFORCED_WORDS}; pass --force to proceed")


def _alphabet(k: int) -> Alphabet:
    """The alphabet of ``--vars k`` for a command that builds over it."""
    try:
        return default_alphabet(k)
    except ValueError as exc:
        raise SystemExit(f"kvlie: --vars {k}: {exc}")


def _parse_lambda(flag: str, text: str) -> Rational:
    """The constant that ``text`` spells in the polynomial grammar, as an int when whole."""
    try:
        p = parse_poly(XY, text)
    except PolyParseError as exc:
        raise SystemExit(f"kvlie: {flag}: {exc}")
    if p.max_degree() > 0:
        raise SystemExit(f"kvlie: {flag}: expected a constant, got degree {p.max_degree()}")
    if p.scale == 1:
        return p.numerators.get((), 0)
    from fractions import Fraction  # here only: a whole constant needs no Fraction
    return Fraction(p.numerators[()], p.scale)


def _parse_expr(text: str | None, force: bool) -> NCPoly:
    """The polynomial in ``text``, 0 when None; a degree-d polynomial costs 2^d,
    since the Dynkin map on a degree-d word makes up to 2^(d-1) terms."""
    if text is None:
        return NCPoly.zero(XY)
    try:
        p = parse_poly(XY, text)
    except PolyParseError as exc:
        raise SystemExit(f"kvlie: cannot parse polynomial: {exc}")
    _check_words(2, p.max_degree(), force, f"polynomial degree {p.max_degree()}")
    return p


def _cmd_bch(args) -> int:
    n, k = args.degree, args.vars
    alphabet = _alphabet(k)
    _check_words(k, n, args.force, f"--degree {n}")  # _goldberg(n, k) is dense over k^n words
    if args.method == "both" and args.format != "text":
        raise SystemExit("kvlie: bch --method both prints difference lines and has no json or latex form")
    if args.method == "both":
        diff = bch_eulerian(n, k) - bch_oracle(n, k)
        _emit("\n".join(_defect_lines("eulerian-vs-oracle", diff)), args.output)
        return EXIT_OK if diff.is_zero() else EXIT_DEFECT
    # component n alone, as a series holding only that part: no word dict, and
    # the Eulerian method builds no lower component
    top = _goldberg(n, k)[:2] if args.method == "eulerian" else bch_oracle(n, k).dense[n]
    _emit(_render_poly(GradedSeries._raw(alphabet, range(k), (None,) * n + (top,)), args.format),
          args.output)
    return EXIT_OK


def _cmd_f0(args) -> int:
    _check_words(2, args.degree + 1, args.force, f"--degree {args.degree}")  # F0 reads Z_(n+1)
    _emit(_render_poly(f0(args.degree), args.format), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    n = args.degree
    for flag, value, readers in (("--kernel-poly", args.kernel_poly, ("kv1", "homogeneous")),
                                 ("--vars", args.vars, ("multilinear",))):
        if value is not None and args.equation not in readers:
            raise SystemExit(f"kvlie: {flag} is read only by --equation {'|'.join(readers)}")
    k = 2
    if args.equation == "multilinear":
        k = 3 if args.vars is None else args.vars
        _alphabet(k)
    # Z_(n+1) over k letters; homogeneous builds only 2^n words but is held to the same rule
    _check_words(k, n + 1, args.force, f"--degree {n}")
    if args.equation == "kv1":
        defect = verify_kv1(general_solution(_parse_expr(args.kernel_poly, args.force), order=n), n)
    elif args.equation == "split":
        defect = verify_split(f0(n), n)
    elif args.equation == "homogeneous":
        if args.kernel_poly is None:
            raise SystemExit("kvlie: --equation homogeneous requires --kernel-poly")
        try:
            pair = homogeneous_solution(_parse_expr(args.kernel_poly, args.force), order=n)
        except ValueError as exc:
            raise SystemExit(f"kvlie: {exc}")
        defect = verify_homogeneous(pair, n)
    else:  # multilinear, the last choice of --equation
        defect = verify_multilinear(multilinear_particular_solution(k, n), n)
    if defect.is_zero():
        _emit(
            f"verified: {args.equation} defect vanishes through degree {n}",
            args.output,
        )
        return EXIT_OK
    _emit(next(_defect_lines(args.equation, defect)), args.output)
    return EXIT_DEFECT


def _cmd_solution(args) -> int:
    _check_words(2, args.degree + 1, args.force, f"--degree {args.degree}")  # F0 reads Z_(n+1)
    p = _parse_expr(args.kernel_poly, args.force)
    lam1 = _parse_lambda("--lambda1", args.lambda1)
    lam2 = _parse_lambda("--lambda2", args.lambda2)
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
    _check_words(args.degree, 2, args.force, f"--degree {args.degree}")  # about n^2 divisor-scan steps
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
    _emit(_render_poly(psi(_parse_expr(args.poly, args.force), args.var), args.format), args.output)
    return EXIT_OK


# The command-line grammar: per command, its handler, its help line and every
# flag it reads besides those of _COMMON, each flag as (kind, default, help).
# A kind is int, str, a tuple of choices, or bool for a switch; a default of
# ... makes the flag required.  A flag a command does not list is refused.
_DEGREE = (int, 8, "working degree")
_FORMAT = (("text", "json", "latex"), "text", "output form")
_COMMON = {
    "--output": (str, None, "write to this path instead of stdout"),
    "--force": (bool, False, f"lift the budget of {MAX_UNFORCED_WORDS} words (or witt steps) per command"),
}
_COMMANDS = {
    "bch": (_cmd_bch, "Baker-Campbell-Hausdorff component at a degree", {
        "--degree": _DEGREE, "--format": _FORMAT,
        "--method": (("eulerian", "oracle", "both"), "eulerian", "construction to print"),
        "--vars": (int, 2, "number of generators")}),
    "f0": (_cmd_f0, "particular solution F0 through a degree", {"--degree": _DEGREE, "--format": _FORMAT}),
    "verify": (_cmd_verify, "check an identity; exit 1 on any defect", {
        "--degree": _DEGREE,
        "--equation": (("kv1", "split", "homogeneous", "multilinear"), ..., "identity to check"),
        "--kernel-poly": (str, None, "polynomial expression, e.g. '1/2*xy + 1/2*yx'"),
        "--vars": (int, None, "generators for --equation multilinear (default 3)")}),
    "solution": (_cmd_solution, "general solution attached to a polynomial", {
        "--degree": _DEGREE, "--format": _FORMAT,
        "--kernel-poly": (str, None, "polynomial expression p (default 0)"),
        "--lambda1": (str, "0", "coefficient of x added to F"),
        "--lambda2": (str, "0", "coefficient of y added to G")}),
    "witt": (_cmd_witt, "free Lie algebra dimensions per degree", {
        "--degree": _DEGREE, "--format": (("text", "json"), "text", "output form"),
        "--vars": (int, 2, "number of generators")}),
    "psi": (_cmd_psi, "apply the kernel projection map at the degree of --poly", {
        "--format": _FORMAT,
        "--var": (XY.letters, ..., "letter z of Psi_z"),
        "--poly": (str, ..., "polynomial expression")}),
}
_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    """The help text of ``command``, or kvlie's when None, from the table."""
    if command is None:
        about = ("Free Lie algebra engine for the first Kashiwara-Vergne equation\n\n"
                 "commands (each lists its flags with --help):")
        rows = [(name, line) for name, (_, line, _) in _COMMANDS.items()]
    else:
        about, rows = _COMMANDS[command][1] + "\n\nflags:", [(", ".join(_HELP), "print this help")]
        for name, (kind, default, text) in {**_COMMANDS[command][2], **_COMMON}.items():
            meta = "|".join(kind) if isinstance(kind, tuple) else {int: "N", str: "TEXT", bool: ""}[kind]
            note = "" if not default else " (required)" if default is ... else f" (default {default})"
            rows.append((f"{name} {meta}".rstrip(), text + note))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([f"usage: kvlie {command or '<command>'} [flags]", "", about,
                      *(f"  {left:<{width}}{right}" for left, right in rows)])


def _parse_argv(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command and its flag values by flag name (``kernel_poly``), defaults
    filled in; None for the values when -h or --help asks for help, and for the
    command too when that is kvlie's.  A usage error raises SystemExit."""
    command = argv[0] if argv else None
    if command in _HELP:
        return None, None
    if command not in _COMMANDS:
        what = "no command" if command is None else f"unknown command {command!r}"
        raise SystemExit(f"kvlie: {what}; expected {'|'.join(_COMMANDS)}")
    flags, values, rest = {**_COMMANDS[command][2], **_COMMON}, {}, iter(argv[1:])
    for arg in rest:
        if arg in _HELP:
            return command, None
        name, eq, text = arg.partition("=")
        if name not in flags:
            raise SystemExit(f"kvlie: {command} has no flag {name}" if arg.startswith("-")
                             else f"kvlie: unexpected argument {arg!r}")
        kind = flags[name][0]
        if kind is bool and eq:
            raise SystemExit(f"kvlie: {name} takes no value")
        if kind is not bool and not eq:
            text = next(rest, None)
            if text is None or text.startswith("--"):
                raise SystemExit(f"kvlie: {name} expects a value")
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                raise SystemExit(f"kvlie: {name}: invalid int {text!r}") from None
        elif isinstance(kind, tuple) and text not in kind:
            raise SystemExit(f"kvlie: {name}: invalid choice {text!r}; expected {'|'.join(kind)}")
        values[name] = True if kind is bool else text
    for name, (_, default, _) in flags.items():
        if default is ... and name not in values:
            raise SystemExit(f"kvlie: {command} requires {name}")
        values.setdefault(name, default)
    return command, SimpleNamespace(**{name[2:].replace("-", "_"): v for name, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        command, args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            _emit(_usage(command), None)
            return EXIT_OK
        # outputs print exact values of any length; the parser bounds its input
        sys.set_int_max_str_digits(0)
        if getattr(args, "degree", 1) < 1:
            raise SystemExit("kvlie: --degree must be >= 1")
        if getattr(args, "vars", None) is not None and args.vars < 2:
            raise SystemExit("kvlie: --vars must be >= 2")
        return _COMMANDS[command][0](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        raise
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> NoReturn:
    """Entry point of the ``kvlie`` script and of ``python -m kvlie.cli``: run
    :func:`main`, flush stdout and stderr, and end the process with its exit
    code without interpreter teardown, as mypy ends its CLI.

    Freeing every module and object at exit is a fixed cost of each cold
    command, and skipping it loses nothing: ``--output`` files are closed by
    their ``with`` block before main() returns, and kvlie registers no atexit
    handler. An exception escaping main() takes Python's normal exit.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
