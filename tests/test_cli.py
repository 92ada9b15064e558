import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
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


@pytest.mark.parametrize("flag", ["--lambda1", "--lambda2"])
def test_negative_rational_flag_value_in_its_own_argument(capsys, flag):
    argv = ["solution", "--kernel-poly", "xyxy", "--degree", "4"]
    joined = run(capsys, *argv, f"{flag}=-1/2")
    assert joined[0] == 0 and joined[1] != run(capsys, *argv)[1]
    assert run(capsys, *argv, flag, "-1/2") == joined


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


def test_degree_guard(capsys):
    code, _, err = run(capsys, "f0", "--degree", "12")
    assert code == 2
    assert "--force" in err
    # the guard on polynomial input is lifted the same way
    code, out, err = run(capsys, "psi", "--var", "x", "--poly", "xyxyxyxyxyxy", "--force")
    assert code == 0 and err == ""
    assert out.startswith("-1/66*xxxxxyyyyyy + ")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--equation", "bogus"])
    assert info.value.code == 2


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
        (("solution", "--lambda1", "abc", "--degree", "2"), "--lambda1"),
        (("solution", "--lambda1", "1/0", "--degree", "2"), "--lambda1"),
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
        (("psi", "--var", "x", "--poly", "xyxyxyxyxyxy"), "polynomial degree 12 exceeds 11"),
        (("psi", "--var", "x", "--poly", "xy", "--degree", "12"), "psi works at the degree of --poly"),
        (("psi", "--var", "x", "--poly", "xy", "--degree", "3"), "reads no --degree"),
        (("verify", "--equation", "kv1", "--degree", "3", "--kernel-poly", "x + xyxyxyxyxyxy"),
         "polynomial degree 12 exceeds 11"),
        (("verify", "--equation", "split", "--degree", "3", "--kernel-poly", "xy"),
         "--kernel-poly is read only by --equation kv1|homogeneous"),
        (("verify", "--equation", "multilinear", "--degree", "3", "--kernel-poly", "xy"),
         "--kernel-poly is read only by"),
        (("verify", "--equation", "kv1", "--degree", "3", "--vars", "3"),
         "--vars is read only by --equation multilinear"),
        (("verify", "--equation", "split", "--degree", "3", "--vars", "2"), "--vars is read only by"),
        (("verify", "--equation", "homogeneous", "--degree", "3", "--kernel-poly", "xy - yx",
          "--vars", "2"), "--vars is read only by"),
        (("verify", "--equation", "kv1", "--degree", "3", "--format", "latex"),
         "verify prints one status line and reads no --format"),
        (("witt", "--degree", "3", "--format", "latex"), "witt prints a table and has no latex form"),
        (("bch", "--method", "both", "--degree", "3", "--format", "json"),
         "bch --method both prints difference lines and has no json or latex form"),
        (("bch", "--method", "both", "--degree", "3", "--format", "latex"),
         "bch --method both prints difference lines"),
        # an empty --output is a path that cannot be written, not stdout
        (("f0", "--degree", "2", "--output", ""), "cannot write"),
        (("solution", "--lambda1", "1" * 5000, "--degree", "2"), "invalid rational literal"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("argv, expected", [
    (("solution", "--degree", "2", "--lambda1", "1e-5000"),
     "F = 1/1" + "0" * 5000 + "*x + 1/4*y + 1/24*xy - 1/24*yx\nG = -1/4*x - 1/24*xy + 1/24*yx\n"),
    # 4 (1/B - 1/A) with A the 4300 nines and B = 7A/9 the 4300 sevens
    (("psi", "--var", "x", "--poly", "1/" + "9" * 4300 + "*xy+1/" + "7" * 4300 + "*yx"),
     "8/6" + "9" * 4299 + "3*y\n"),
], ids=["solution", "psi"])
def test_coefficients_past_the_int_str_limit_print_exactly(capsys, argv, expected):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, *argv) == (0, expected, "")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [
    ["f0", "--degree", "12"],
    ["verify", "--equation", "kv1", "--degree", "12"],
    ["bch", "--method", "oracle", "--degree", "12"],
    ["solution", "--degree", "12"],
    ["psi", "--var", "x", "--poly", "xyxyxyxyxyxy"],
])
def test_degree_guard_exits_2_before_any_construction(capsys, monkeypatch, argv):
    import kvlie.cli as cli
    from kvlie import idempotents

    def forbidden(*args):
        raise AssertionError("a construction ran before the degree guard")

    real = idempotents._goldberg
    for module in [m for key, m in sys.modules.items() if key.startswith("kvlie")]:
        if getattr(module, "_goldberg", None) is real:
            monkeypatch.setattr(module, "_goldberg", forbidden)
    monkeypatch.setattr(cli, "bch_oracle", forbidden)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "--force" in err


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
watched = ["kvlie.oracles", "kvlie.permutations", "kvlie.linalg", "kvlie.lyndon", "dataclasses"]
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


def test_closed_stdout_pipe_exits_2_with_one_line():
    # f0 at degree 11 prints 92,666 bytes, more than one pipe buffer holds
    src = str(Path(kvlie.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from kvlie.cli import main; sys.exit(main())",
         "f0", "--degree", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith("kvlie: cannot write stdout: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def _perturbed(s, text="1/7*xxy"):
    """s plus the polynomial ``text``, over the alphabet and order of s."""
    from kvlie.algebra import parse_poly
    from kvlie.series import GradedSeries

    return s + GradedSeries.from_poly(parse_poly(s.alphabet, text), s.order)


def test_verify_prints_the_first_defect_naming_its_check(capsys, monkeypatch):
    import kvlie.cli as cli
    from kvlie.kv import KvSolutionPair, f0, g0, multilinear_particular_solution

    monkeypatch.setattr(cli, "f0", lambda n: _perturbed(f0(n)))
    monkeypatch.setattr(cli, "particular_solution", lambda n: KvSolutionPair(_perturbed(f0(n)), g0(n)))
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
