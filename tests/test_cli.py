import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvlie
from kvlie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bch_degree_one(capsys):
    code, out, _ = run(capsys, "bch", "--degree", "1")
    assert code == 0
    assert out.strip() == "x + y"


def test_bch_degree_two_json(capsys):
    code, out, _ = run(capsys, "bch", "--degree", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"word": "xy", "coeff": "1/2"},
        {"word": "yx", "coeff": "-1/2"},
    ]


def test_bch_both_methods_empty_diff(capsys):
    code, out, _ = run(capsys, "bch", "--degree", "3", "--method", "both")
    assert code == 0
    assert out.strip() == ""


def test_bch_latex(capsys):
    code, out, _ = run(capsys, "bch", "--degree", "2", "--format", "latex")
    assert code == 0
    assert out.strip() == "\\frac{1}{2}xy - \\frac{1}{2}yx"


def test_f0_series(capsys):
    code, out, _ = run(capsys, "f0", "--degree", "2")
    assert code == 0
    assert out.strip() == "1/4*y + 1/24*xy - 1/24*yx"


def test_emitted_text_reparses(capsys):
    from kvlie.algebra import XY, parse_poly
    from kvlie.kv import f0
    from kvlie.series import GradedSeries

    code, out, _ = run(capsys, "f0", "--degree", "5")
    assert code == 0
    assert GradedSeries.from_poly(parse_poly(XY, out.strip()), 5) == f0(5)


def test_verify_kv1(capsys):
    code, out, _ = run(capsys, "verify", "--equation", "kv1", "--degree", "6")
    assert code == 0
    assert "verified" in out


def test_verify_split(capsys):
    code, out, _ = run(capsys, "verify", "--equation", "split", "--degree", "5")
    assert code == 0


def test_verify_homogeneous(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--equation",
        "homogeneous",
        "--degree",
        "6",
        "--kernel-poly",
        "1/2*xy + 1/2*yx",
    )
    assert code == 0


def test_verify_homogeneous_requires_kernel_poly(capsys):
    code, _, err = run(capsys, "verify", "--equation", "homogeneous", "--degree", "4")
    assert code == 2
    assert "kernel-poly" in err


def test_verify_homogeneous_rejects_non_kernel(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--equation",
        "homogeneous",
        "--degree",
        "4",
        "--kernel-poly",
        "xy",
    )
    assert code == 2
    assert "kernel" in err


def test_verify_multilinear(capsys):
    code, out, _ = run(capsys, "verify", "--equation", "multilinear", "--degree", "4")
    assert code == 0


def test_verify_kv1_with_kernel_poly(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--equation",
        "kv1",
        "--degree",
        "5",
        "--kernel-poly",
        "xyxy",
    )
    assert code == 0


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "psi", "--var", "x", "--poly", "1/2*xz")
    assert code == 2
    assert "position 5" in err


def test_psi(capsys):
    code, out, _ = run(capsys, "psi", "--var", "x", "--poly", "xy")
    assert code == 0
    assert out.strip() == "1/2*y"


def test_solution_self_verifies(capsys):
    code, out, _ = run(
        capsys,
        "solution",
        "--kernel-poly",
        "1/2*xy + 1/2*yx",
        "--lambda1",
        "1/3",
        "--degree",
        "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("F = ")
    assert lines[1].startswith("G = ")
    assert "1/3*x" in lines[0]


@pytest.mark.parametrize("argv, flag, value", [
    (["solution", "--kernel-poly", "xyxy", "--degree", "4"], "--lambda1", "-1/2"),
    (["solution", "--kernel-poly", "xyxy", "--degree", "4"], "--lambda2", "-1/2"),
    (["psi", "--var", "x"], "--poly", "-xy"),
    (["solution", "--degree", "4"], "--kernel-poly", "-xy"),
], ids=["--lambda1", "--lambda2", "--poly", "--kernel-poly"])
def test_leading_minus_value_in_its_own_argument(capsys, argv, flag, value):
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] == 0 and joined[1] != run(capsys, *argv, f"{flag}={value[1:]}")[1]
    assert run(capsys, *argv, flag, value) == joined


@pytest.mark.parametrize("text, value", [
    ("1/4", "1/4"), ("-1/2", "-1/2"), ("3", "3"), ("-7", "-7"), ("0", "0"),
    ("691/2730", "691/2730"), (" -3/9 ", "-1/3"), ("1 / 2", "1/2"), ("+2", "2"),
    ("1/2 + 1/3", "5/6"),
    ("1/0", None), ("x", None), ("0.5", None), ("1e-3", None), ("1_0", None),
    ("\u0661", None), ("", None), ("1/2*", None),
    pytest.param("1" * 5000, None, id="5000-digits"),
])
def test_lambda_is_a_constant_in_the_polynomial_grammar(capsys, text, value):
    code, out, err = run(capsys, "solution", "--degree", "1", "--format", "json", "--lambda1", text)
    if value is None:
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert "--lambda1" in err
        return
    assert (code, err) == (0, "")
    F = {term["word"]: Fraction(term["coeff"]) for term in json.loads(out)["F"]}
    assert F.get("x", 0) == Fraction(value)


def test_solution_json(capsys):
    code, out, _ = run(
        capsys, "solution", "--degree", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["F"][0] == {"word": "y", "coeff": "1/4"}


def test_witt(capsys):
    code, out, _ = run(capsys, "witt", "--degree", "5")
    assert code == 0
    assert out.strip().splitlines()[4] == "degree 5: dimension 6, lyndon words 6"
    code, out, _ = run(capsys, "witt", "--degree", "3", "--format", "json")
    assert json.loads(out) == [
        {"degree": 1, "dimension": 2, "lyndon_words": 2},
        {"degree": 2, "dimension": 1, "lyndon_words": 1},
        {"degree": 3, "dimension": 2, "lyndon_words": 2},
    ]


WORD17 = "xy" * 8 + "x"


def test_degree_guard(capsys):
    code, _, err = run(capsys, "f0", "--degree", "16")
    assert code == 2
    assert err == "kvlie: --degree 16 costs 2^17, over the budget of 65536; pass --force to proceed\n"
    # a degree-12 polynomial is 2^12 Dynkin terms, inside the budget
    code, out, err = run(capsys, "psi", "--var", "x", "--poly", "xyxyxyxyxyxy")
    assert code == 0 and err == ""
    assert out.startswith("-1/66*xxxxxyyyyyy + ")
    # --force lifts the budget on polynomial input, in psi and in a kernel polynomial
    code, out, err = run(capsys, "psi", "--var", "x", "--poly", "xyxyxyxyxyxy + " + WORD17, "--force")
    assert code == 0 and err == ""
    assert out.startswith("-1/66*xxxxxyyyyyy + ")  # Psi vanishes at odd degree
    code, out, err = run(capsys, "solution", "--degree", "3", "--kernel-poly", WORD17, "--force")
    assert code == 0 and err == ""
    assert out.startswith("F = ")
    # and on witt's n^2 steps
    code, out, err = run(capsys, "witt", "--degree", "257", "--force")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("degree 257: dimension ")


def test_output_determinism(capsys, tmp_path):
    args = ["f0", "--degree", "4", "--format", "json"]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, *args, "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == json.loads(first[1])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bch", "--vars", "20"), "--vars 20"),
        (("f0", "--degree", "2", "--output", "/nonexistent/x"), "cannot write"),
        (("verify", "--equation", "kv1", "--degree", "3", "--kernel-poly", "\u00b2x"),
         "cannot parse polynomial"),
        (("psi", "--var", "x", "--poly", "1/\u00b2"), "cannot parse polynomial"),
        # an empty --kernel-poly is parsed, not read as p = 0
        (("verify", "--equation", "kv1", "--degree", "3", "--kernel-poly", ""), "empty polynomial"),
        (("verify", "--equation", "homogeneous", "--degree", "3", "--kernel-poly", ""), "empty polynomial"),
        (("solution", "--degree", "3", "--kernel-poly", ""), "empty polynomial"),
        # a digit run longer than int() converts is a parse error, not a crash
        (("psi", "--var", "x", "--poly", "1" * 5000 + "*xy"), "too many digits (at position 0)"),
        (("verify", "--equation", "kv1", "--degree", "3", "--kernel-poly", "1/" + "1" * 5000 + "*x"),
         "too many digits (at position 2)"),
        (("psi", "--var", "x", "--poly", "xy" * 8 + "x"),
         "polynomial degree 17 costs 2^17, over the budget of 65536; pass --force to proceed"),
        # psi works at the degree of --poly, and the table gives it no --degree
        (("psi", "--var", "x", "--poly", "xy", "--degree", "12"), "psi has no flag --degree"),
        (("psi", "--var", "x", "--poly", "xy", "--degree", "3"), "psi has no flag --degree"),
        (("psi", "--var", "z", "--poly", "xy"), "--var: invalid choice 'z'; expected x|y"),
        (("verify", "--equation", "kv1", "--degree", "3", "--kernel-poly", "x + " + "xy" * 8 + "x"),
         "polynomial degree 17 costs 2^17"),
        (("verify", "--equation", "split", "--degree", "3", "--kernel-poly", "xy"),
         "--kernel-poly is read only by --equation kv1|homogeneous"),
        (("verify", "--equation", "multilinear", "--degree", "3", "--kernel-poly", "xy"),
         "--kernel-poly is read only by"),
        (("verify", "--equation", "kv1", "--degree", "3", "--vars", "3"),
         "--vars is read only by --equation multilinear"),
        (("verify", "--equation", "split", "--degree", "3", "--vars", "2"), "--vars is read only by"),
        (("verify", "--equation", "homogeneous", "--degree", "3", "--kernel-poly", "xy - yx",
          "--vars", "2"), "--vars is read only by"),
        # verify prints one status line and has no --format; witt's table has no latex form
        (("verify", "--equation", "kv1", "--degree", "3", "--format", "latex"), "verify has no flag --format"),
        (("witt", "--degree", "3", "--format", "latex"), "--format: invalid choice 'latex'; expected text|json"),
        (("bch", "--method", "both", "--degree", "3", "--format", "json"),
         "bch --method both prints difference lines and has no json or latex form"),
        (("bch", "--method", "both", "--degree", "3", "--format", "latex"),
         "bch --method both prints difference lines"),
        # an empty --output is a path that cannot be written, not stdout
        (("f0", "--degree", "2", "--output", ""), "cannot write"),
        # the grammar: a command, then flags named in full, each value in the next argument
        ((), "no command; expected bch|f0|verify"),
        (("bogus",), "unknown command 'bogus'"),
        (("f0", "--bogus"), "f0 has no flag --bogus"),
        (("psi", "--var", "x", "--pol", "-xy"), "psi has no flag --pol"),
        (("f0", "--degree"), "--degree expects a value"),
        (("f0", "--degree", "--force"), "--degree expects a value"),
        (("f0", "--degree", "x"), "--degree: invalid int 'x'"),
        (("f0", "--format", "yaml"), "--format: invalid choice 'yaml'"),
        (("verify", "--equation", "bogus"), "--equation: invalid choice 'bogus'"),
        (("verify", "--degree", "3"), "verify requires --equation"),
        (("psi", "--poly", "xy"), "psi requires --var"),
        (("f0", "--force=1"), "--force takes no value"),
        (("f0", "--degree", "2", "stray"), "unexpected argument 'stray'"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("argv, expected", [
    # 4300 digits, the longest digit run the parser reads
    (("solution", "--degree", "2", "--lambda1", "1/" + "9" * 4300),
     "F = 1/" + "9" * 4300 + "*x + 1/4*y + 1/24*xy - 1/24*yx\nG = -1/4*x - 1/24*xy + 1/24*yx\n"),
    # 4 (1/B - 1/A) with A the 4300 nines and B = 7A/9 the 4300 sevens
    (("psi", "--var", "x", "--poly", "1/" + "9" * 4300 + "*xy+1/" + "7" * 4300 + "*yx"),
     "8/6" + "9" * 4299 + "3*y\n"),
], ids=["solution", "psi"])
def test_coefficients_past_the_int_str_limit_print_exactly(capsys, argv, expected):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, *argv) == (0, expected, "")
    assert sys.get_int_max_str_digits() == limit


# the first count over the budget of each command
@pytest.mark.parametrize("argv", [
    ["f0", "--degree", "16"],
    ["verify", "--equation", "kv1", "--degree", "16"],
    ["verify", "--equation", "split", "--degree", "16"],
    ["verify", "--equation", "homogeneous", "--degree", "16", "--kernel-poly", "xy + yx"],
    ["solution", "--degree", "16"],
    ["bch", "--degree", "17"],
    ["bch", "--method", "oracle", "--degree", "17"],
    ["psi", "--var", "x", "--poly", WORD17],
    ["solution", "--degree", "3", "--kernel-poly", WORD17],
    ["witt", "--degree", "257"],
    ["bch", "--vars", "4", "--degree", "9"],
    ["bch", "--vars", "14", "--degree", "11"],
    ["verify", "--equation", "multilinear", "--vars", "4", "--degree", "8"],
    ["verify", "--equation", "multilinear", "--degree", "10"],
])
def test_degree_guard_exits_2_before_any_construction(capsys, monkeypatch, argv):
    import kvlie.cli as cli
    from kvlie import idempotents

    def forbidden(*args):
        raise AssertionError("a construction ran before the word budget")

    real = idempotents._goldberg
    for module in [m for key, m in sys.modules.items() if key.startswith("kvlie")]:
        if getattr(module, "_goldberg", None) is real:
            monkeypatch.setattr(module, "_goldberg", forbidden)
    for module, name in ((idempotents, "_nest_packed"), (cli, "bch_oracle"), (cli, "witt_dimension")):
        monkeypatch.setattr(module, name, forbidden)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "over the budget of 65536; pass --force" in err


class _BudgetSpy:
    """Wraps ``_goldberg`` (k^n words) and ``_nest_packed`` (the words of its
    input and output) in every kvlie module that holds them, and records the
    largest count either met."""

    def __init__(self, monkeypatch):
        from kvlie import idempotents

        self.largest = 0
        goldberg, nest_packed = idempotents._goldberg, idempotents._nest_packed

        def spy_goldberg(n, k):
            self.count(k**n)
            return goldberg(n, k)

        def spy_nest_packed(terms):
            self.count(len(terms))
            nested = nest_packed(terms)
            self.count(len(nested))
            return nested

        for module in [m for key, m in sys.modules.items() if key.startswith("kvlie")]:
            if getattr(module, "_goldberg", None) is goldberg:
                monkeypatch.setattr(module, "_goldberg", spy_goldberg)
        monkeypatch.setattr(idempotents, "_nest_packed", spy_nest_packed)

    def count(self, words):
        from kvlie.cli import MAX_UNFORCED_WORDS

        assert words <= MAX_UNFORCED_WORDS, f"an unforced command built {words} words"
        self.largest = max(self.largest, words)


# the largest case of each command inside the budget, and the most words it builds:
# the whole budget where a Goldberg table is read, less for the Dynkin map alone,
# none for witt, whose n^2 steps build nothing
@pytest.mark.parametrize("argv, largest", [
    (["f0", "--degree", "15"], 2**16),
    (["verify", "--equation", "kv1", "--degree", "15"], 2**16),
    (["verify", "--equation", "split", "--degree", "15"], 2**16),
    (["verify", "--equation", "homogeneous", "--degree", "15", "--kernel-poly", "xy + yx"], 2),
    (["solution", "--degree", "15", "--kernel-poly", "xy" * 8], 2**16),
    (["bch", "--degree", "16"], 2**16),
    (["bch", "--vars", "4", "--degree", "8"], 2**16),
    (["verify", "--equation", "multilinear", "--vars", "4", "--degree", "7"], 2**16),
    (["psi", "--var", "x", "--poly", "xy" * 8], 5819),
    (["witt", "--degree", "256"], 0),
    (["witt", "--vars", str(10**12), "--degree", "256"], 0),
])
def test_largest_unforced_case_of_each_command_runs(capsys, monkeypatch, argv, largest):
    from kvlie.kv import clear_caches

    clear_caches()
    spy = _BudgetSpy(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert spy.largest == largest


@pytest.mark.parametrize("argv", [
    ["bch"], ["bch", "--method", "both"], ["f0"], ["solution"], ["witt"],
    *(["verify", "--equation", e] for e in ("kv1", "split", "multilinear")),
    ["verify", "--equation", "homogeneous", "--kernel-poly", "xy + yx"],
])
def test_huge_degree_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--degree", "1000000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and err.startswith("kvlie: --degree 1000000000000 costs ")


def test_word_budget_holds_to_its_bound_unless_forced():
    import kvlie.cli as cli

    for k, n in ((2, 16), (4, 8), (3, 10), (256, 2), (65536, 1), (2, -1)):  # at most 2^16 run unforced
        cli._check_words(k, n, False, "it")
    for k, n in ((14, 11), (2, 10**12)):
        cli._check_words(k, n, True, "it")
    for k, n, cost in ((2, 17, "2^17"), (4, 9, "4^9"), (257, 2, "257^2"), (65537, 1, "65537^1"),
                       (2, 10**12, "2^1000000000000")):
        with pytest.raises(SystemExit, match=rf"^kvlie: it costs {re.escape(cost)}, over the budget of 65536; pass --force"):
            cli._check_words(k, n, False, "it")


def test_verify_multilinear_builds_the_bch_series_once(capsys, monkeypatch):
    # each component Z_2, ..., Z_(n+1) is built and certified once, by one r
    # pass that also gives its letter-nested shares; the check reads Z_2..Z_n
    # from the same cache, and nothing builds Z_1
    from kvlie import idempotents
    from kvlie.kv import clear_caches

    passes = []
    real = idempotents._lie_level
    monkeypatch.setattr(idempotents, "_lie_level", lambda *args: passes.append(args) or real(*args))
    monkeypatch.setattr(idempotents, "_nest_packed", None)  # the sparse route must not run
    clear_caches()
    code, out, _ = run(capsys, "verify", "--equation", "multilinear", "--vars", "3", "--degree", "5")
    assert code == 0 and out.startswith("verified:")
    assert idempotents._goldberg.cache_info().misses == 5
    assert len(passes) == 5


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_bch_eulerian_builds_only_the_component_it_prints(capsys, monkeypatch, fmt):
    # the printed component is read from its one Goldberg table: no lower
    # degree is built, and the whole series is never asked for
    import kvlie.cli as cli
    from kvlie import idempotents
    from kvlie.kv import bch_eulerian, clear_caches

    clear_caches()
    monkeypatch.setattr(cli, "bch_eulerian", None)
    code, out, _ = run(capsys, "bch", "--vars", "3", "--degree", "6", "--format", fmt)
    info = idempotents._goldberg.cache_info()
    assert code == 0 and (info.misses, info.currsize) == (1, 1)
    assert out == cli._render_poly(bch_eulerian(6, 3).component(6), fmt) + "\n"
    clear_caches()


def test_witt_counts_without_enumerating_lyndon_words(capsys):
    from kvlie import lyndon
    from kvlie.kv import clear_caches

    clear_caches()
    code, out, _ = run(capsys, "witt", "--vars", "6", "--degree", "8")
    assert code == 0
    assert out.splitlines()[-1] == "degree 8: dimension 209790, lyndon words 209790"
    assert lyndon._lyndon_words.cache_info().currsize == 0


def test_verify_multilinear_vars(capsys, monkeypatch):
    import kvlie.cli as cli

    checked = []
    real = cli.multilinear_particular_solution

    def spy(k, order):
        checked.append(k)
        return real(k, order)

    monkeypatch.setattr(cli, "multilinear_particular_solution", spy)
    code, out, _ = run(capsys, "verify", "--equation", "multilinear", "--vars", "2",
                       "--degree", "4")
    assert code == 0 and checked == [2]
    assert out == "verified: multilinear defect vanishes through degree 4\n"
    code, out, _ = run(capsys, "verify", "--equation", "multilinear", "--degree", "4")
    assert code == 0 and checked == [2, 3]
    assert out == "verified: multilinear defect vanishes through degree 4\n"


# Short strings only: Dynkin on one word of degree n makes up to 2^(n-1) terms.
@given(st.text(alphabet="xyz01279/*+- \u00b2\u0663\u00bd", max_size=10))
def test_polynomial_grammar_never_crashes_the_cli(text):
    for argv in (
        ["psi", "--var", "x", f"--poly={text}"],
        ["verify", "--equation", "homogeneous", "--degree", "3", f"--kernel-poly={text}"],
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


def _flag_values(kind, output):
    """Text for a flag of ``kind``: ints about the budget's limits and malformed
    ones, choices and non-choices, polynomial text (and words at the budget's
    degrees) from the grammar's alphabet, and ``output`` for the one path."""
    if kind is int:
        ints = [-1, 0, 1, 2, 3, 4, 7, 8, 9, 14, 15, 16, 17, 256, 257, 10**12, 2**256]
        return st.sampled_from([str(n) for n in ints] + ["", "x", "1.5", "--3", "\u0663"])
    if isinstance(kind, tuple):
        return st.sampled_from([*kind * 3, "", "bogus", kind[0].upper()])
    if output is not None:
        return st.just(output)
    terms = ["1/3", "-xy", "x + 1/2*yx", "2*xxy - yx", "xy - yx", "xy" * 8, "xy" * 8 + "x"]
    return st.text(alphabet="xyz0129/*+- \u00b2", max_size=8) | st.sampled_from(terms)


@st.composite
def _argvs(draw, output):
    """An argv built from the flag table: a command, its required flags and a
    drawn subset of the others but --force, in drawn order, each value in its
    own argument or after =, and at times one flag the command does not have."""
    import kvlie.cli as cli

    command = draw(st.sampled_from(list(cli._COMMANDS)))
    table = {**cli._COMMANDS[command][2], **cli._COMMON}
    flags = {name: kind for name, (kind, _, _) in table.items() if kind is not bool}
    names = [name for name in draw(st.permutations(list(flags))) if table[name][1] is ... or draw(st.booleans())]
    argv = [command]
    for name in names:
        value = draw(_flag_values(flags[name], output if name == "--output" else None))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "--deg", "--forc"])))
    return argv


def test_flag_table_contract_holds_for_generated_argv(tmp_path_factory):
    # exit 0, 1 or 2 and nothing raised; on 2 one stderr line and no stdout; and
    # no unforced run builds more words than the budget (``_BudgetSpy``)
    from kvlie.kv import clear_caches

    output = str(tmp_path_factory.mktemp("contract") / "out")

    @settings(deadline=None, max_examples=300)
    @given(_argvs(output))
    def check(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as monkeypatch, redirect_stdout(stdout), redirect_stderr(stderr):
            _BudgetSpy(monkeypatch)
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert stdout.getvalue() == "" and len(stderr.getvalue().splitlines()) == 1

    check()
    clear_caches()


PRODUCTION_COMMANDS = [
    ["verify", "--equation", "kv1", "--degree", "5"],
    ["verify", "--equation", "split", "--degree", "5"],
    ["verify", "--equation", "multilinear", "--degree", "4"],
    ["verify", "--equation", "homogeneous", "--degree", "5", "--kernel-poly", "1/2*xy + 1/2*yx"],
    ["f0", "--degree", "5"],
    ["solution", "--degree", "5", "--kernel-poly", "xxy"],
    ["bch", "--method", "both", "--vars", "3", "--degree", "4"],
    ["psi", "--var", "x", "--poly", "xxy"],
    ["witt", "--degree", "5"],
]


def test_cli_commands_load_no_oracle_module():
    script = f"""
import contextlib, io, sys
watched = ["kvlie.oracles", "kvlie.permutations", "kvlie.linalg", "kvlie.lyndon", "dataclasses",
           "argparse", "fractions", "decimal"]
watched += [] if "json" in sys.modules else ["json"]  # unless the bare interpreter loads it
from kvlie.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {PRODUCTION_COMMANDS!r}]
loaded = sorted(m for m in watched if m in sys.modules)
print(codes, loaded)
"""
    src = str(Path(kvlie.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{[0] * len(PRODUCTION_COMMANDS)} []"


def test_term_pattern_compiles_on_the_first_parse():
    # a command that parses no polynomial never compiles the term pattern
    script = """
import contextlib, io, re
compiled, real = [], re.compile
re.compile = lambda pattern, flags=0: compiled.append(pattern) or real(pattern, flags)
from kvlie.cli import main
def parsed(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return any("(?P<num>" in str(pattern) for pattern in compiled)
print([parsed(argv) for argv in (["witt", "--degree", "3"], ["f0", "--degree", "3"], ["bch", "--degree", "3"],
                                 ["psi", "--var", "x", "--poly", "xy"])])
"""
    _, env = _entry()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[False, False, False, True]\n", "")


def test_flag_value_forms_and_repeats(capsys):
    # '--flag value' and '--flag=value' read alike, and a repeated flag keeps its last value
    expected = run(capsys, "f0", "--degree", "3", "--format", "json")
    assert expected[0] == 0
    assert run(capsys, "f0", "--degree=3", "--format=json") == expected
    assert run(capsys, "f0", "--format", "latex", "--degree", "7", "--degree=3", "--format", "json") == expected


HELP_FLAGS = {
    "bch": ["--degree", "--format", "--method", "--vars", "--output", "--force"],
    "f0": ["--degree", "--format", "--output", "--force"],
    "verify": ["--degree", "--equation", "--kernel-poly", "--vars", "--output", "--force"],
    "solution": ["--degree", "--format", "--kernel-poly", "--lambda1", "--lambda2", "--output", "--force"],
    "witt": ["--degree", "--format", "--vars", "--output", "--force"],
    "psi": ["--format", "--var", "--poly", "--output", "--force"],
}


def test_help_lists_every_command_and_its_flags(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  ")] == list(HELP_FLAGS)
    for command, flags in HELP_FLAGS.items():
        for help_flag in ("--help", "-h"):
            # help stands where a flag may, whatever comes before it
            code, out, err = run(capsys, command, "--force", help_flag)
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: kvlie {command} ")
            assert [line.split()[0] for line in out.splitlines() if line.startswith("  --")] == flags


def _entry(*argv):
    """``python -m kvlie.cli argv`` on this checkout, the path the kvlie script takes."""
    src = str(Path(kvlie.__file__).parents[1])
    return [sys.executable, "-m", "kvlie.cli", *argv], {**os.environ, "PYTHONPATH": src}


def test_closed_stdout_pipe_exits_2_with_one_line():
    # f0 at degree 11 prints 92,666 bytes, more than one pipe buffer holds
    command, env = _entry("f0", "--degree", "11")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith("kvlie: cannot write stdout: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["f0", "--degree", "11"],  # 92,666 bytes, more than one pipe buffer holds
    ["verify", "--equation", "kv1", "--format", "json"],
    ["bch", "--degree", "6", "--format", "json", "--output", "{out}"],
], ids=["large-stdout", "usage-error", "output-file"])
def test_entry_point_matches_main(capsys, tmp_path, argv):
    # the entry ends the process without teardown once main() has returned
    command, env = _entry(*(a.format(out=tmp_path / "entry.txt") for a in argv))
    done = subprocess.run(command, capture_output=True, env=env, timeout=120)
    code = main([a.format(out=tmp_path / "main.txt") for a in argv])
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out.encode(), captured.err.encode())
    assert sorted(p.name for p in tmp_path.iterdir()) == (["entry.txt", "main.txt"] if "--output" in argv else [])
    if "--output" in argv:
        assert (tmp_path / "entry.txt").read_bytes() == (tmp_path / "main.txt").read_bytes()


def test_module_entry_skips_interpreter_teardown():
    # an atexit handler runs at a normal exit, and not after the entry's os._exit
    _, env = _entry()
    script = ("import atexit, runpy, sys; atexit.register(print, 'teardown'); "
              "sys.argv[1:] = ['witt', '--degree', '1']; runpy.run_module('kvlie.cli', run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "degree 1: dimension 2, lyndon words 2\n", "")


def test_installed_script_takes_the_entry_point():
    import tomllib

    from kvlie.cli import run

    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["kvlie"]
    assert target == f"{run.__module__}:{run.__name__}"


def _perturbed(s, text="1/7*xxy"):
    """s plus the polynomial ``text``, over the alphabet and order of s."""
    from kvlie.algebra import parse_poly
    from kvlie.series import GradedSeries

    return s + GradedSeries.from_poly(parse_poly(s.alphabet, text), s.order)


def test_verify_prints_the_first_defect_naming_its_check(capsys, monkeypatch):
    import kvlie.cli as cli
    from kvlie.kv import KvSolutionPair, f0, g0, multilinear_particular_solution

    monkeypatch.setattr(cli, "f0", lambda n: _perturbed(f0(n)))
    monkeypatch.setattr(cli, "general_solution", lambda p, order: KvSolutionPair(_perturbed(f0(order)), g0(order)))
    monkeypatch.setattr(cli, "multilinear_particular_solution", lambda k, n: [
        _perturbed(F) if i == 0 else F for i, F in enumerate(multilinear_particular_solution(k, n))])
    for equation in ("kv1", "split", "multilinear"):
        # -E(-x) on 1/7*xxy starts with ad(x) of it, 1/7*xxxy - 1/7*xxyx
        assert run(capsys, "verify", "--equation", equation, "--degree", "5") == (
            1, f"{equation} defect at degree 4: xxxy coefficient 1/7\n", "")


def test_solution_prints_the_pair_before_its_defect(capsys, monkeypatch):
    import kvlie.cli as cli
    from kvlie.algebra import XY, parse_poly
    from kvlie.kv import KvSolutionPair, f0, g0, general_solution
    from kvlie.series import GradedSeries

    monkeypatch.setattr(cli, "general_solution", lambda *args: KvSolutionPair(
        _perturbed(general_solution(*args).F), general_solution(*args).G))
    code, out, err = run(capsys, "solution", "--degree", "5")
    assert code == 1
    F, G = (GradedSeries.from_poly(parse_poly(XY, line[4:]), 5) for line in out.splitlines())
    assert (F, G) == (_perturbed(f0(5)), g0(5))
    assert err == "kvlie: self-verification failed: kv1 defect at degree 4: xxxy coefficient 1/7\n"


def test_bch_both_prints_one_line_per_differing_term(capsys, monkeypatch):
    import kvlie.cli as cli
    from kvlie.kv import bch_oracle

    monkeypatch.setattr(cli, "bch_oracle", lambda n, k: _perturbed(bch_oracle(n, k), "1/7*xxy - 2*yx"))
    assert run(capsys, "bch", "--method", "both", "--degree", "4") == (1, (
        "eulerian-vs-oracle defect at degree 2: yx coefficient 2\n"
        "eulerian-vs-oracle defect at degree 3: xxy coefficient -1/7\n"), "")


def test_f0_and_solution_print_from_the_stored_index(capsys, monkeypatch):
    # rendering walks each series' stored index: it builds and merges no word dict
    import kvlie.cli as cli
    from kvlie import algebra
    from kvlie.algebra import XY, NCPoly
    from kvlie.kv import f0, general_solution, verify_kv1

    f0(8)
    pair = general_solution(NCPoly.zero(XY), order=6)
    defect = verify_kv1(pair, 6)
    monkeypatch.setattr(cli, "general_solution", lambda *args: pair)
    monkeypatch.setattr(cli, "verify_kv1", lambda *args: defect)

    def forbidden(*args):
        raise AssertionError("rendering built or merged a word dict")

    for name in ("from_dense", "weighted_sum"):
        real = getattr(algebra, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("kvlie")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, forbidden)
    for fmt in ("text", "json", "latex"):
        assert run(capsys, "f0", "--degree", "8", "--format", fmt)[0] == 0
        assert run(capsys, "solution", "--degree", "6", "--format", fmt)[0] == 0


def test_series_print_word_texts_joined_per_degree(capsys, monkeypatch):
    # a series joins its word texts once per degree from the letter texts, in
    # letter order (x, y, z, u), not string order; bch prints component n from
    # its stored part, so no command here calls word_text or builds a word dict
    from kvlie import algebra
    from kvlie.algebra import Alphabet, to_json_terms
    from kvlie.kv import bch_oracle

    reference = {fmt: run(capsys, "bch", "--vars", "4", "--degree", "5", "--format", fmt)[1]
                 for fmt in ("text", "json", "latex")}

    def forbidden(*args):
        raise AssertionError("rendering a series read a tuple word")

    monkeypatch.setattr(Alphabet, "word_text", forbidden)
    real = algebra.from_dense
    for module in [m for key, m in sys.modules.items() if key.startswith("kvlie")]:
        if getattr(module, "from_dense", None) is real:
            monkeypatch.setattr(module, "from_dense", forbidden)
    code, out, _ = run(capsys, "bch", "--vars", "4", "--degree", "2", "--format", "json")
    assert code == 0 and [t["word"] for t in json.loads(out)] == [a + b for a in "xyzu" for b in "xyzu" if a != b]
    for fmt in ("text", "json", "latex"):
        assert run(capsys, "f0", "--degree", "6", "--format", fmt)[0] == 0
        for method in ("eulerian", "oracle"):
            code, out, _ = run(capsys, "bch", "--vars", "4", "--degree", "5", "--method", method, "--format", fmt)
            assert (code, out) == (0, reference[fmt])
    monkeypatch.undo()
    assert [t["word"] for t in to_json_terms(bch_oracle(2, 4).component(2))] == [
        a + b for a in "xyzu" for b in "xyzu" if a != b]
