"""Tests of the benchmark itself, on commands small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from time import perf_counter

import pytest

import run
import tracing
from workloads import WORKLOADS, Command, digest_check, seeded_inputs, solution_check

sys.path.insert(0, str(run.SRC))

TINY = [
    Command(("bch", "--degree", "4"),
            digest_check("c43846dccd67a9d875cd6066cad6edaaea3ff06bb335033521ae1cee2590a319")),
    Command(("f0", "--degree", "5"),
            digest_check("2547136f160e699e961ccca2eaa687f234bc73729dec380120f99c3cf50c9e4b")),
]
COUNT_NAMES = ("permutations.perms", "scalars.fraction_ops", "algebra.terms_out",
               "lyndon.coords", "idempotents.cache_entries", "lyndon.cache_entries")


def one_pass_clock() -> run.Clock:
    return run.Clock(perf_counter(), 0.0)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    # The reference reads twice its nominal time: a machine at half speed.
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REFERENCE_S)
    tally = run.Tally()
    values = run.run_untraced(TINY, tally, one_pass_clock())
    assert tally.problems == [] and tally.failed == 0
    assert tally.attempted == 1 + run.SETUP_PROBES_PER_PASS + len(TINY)
    assert set(values) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in values.values())
    printed = capsys.readouterr().out
    for name, unit in run.END_TO_END_UNITS.items():
        assert f"metric {name} [{unit}] n=" in printed
    for name in run.SPEED_SCALED:
        raw = float(re.search(rf"metric {name} .* raw_median=(\S+)", printed).group(1))
        assert values[name] == pytest.approx(raw / 2, rel=1e-5)


def test_wrong_digest_is_a_failed_operation():
    wrong = Command(TINY[0].argv, digest_check("0" * 64))
    tally = run.Tally()
    run.cold_pass([wrong, TINY[1]], tally, one_pass_clock())
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "sha256" in tally.problems[0]


def test_timeout_kills_the_command_and_fails_it():
    outcome = run.run_cold(TINY[1], run.child_env(), timeout=0.01)
    assert outcome.timed_out and outcome.code is None
    assert outcome.problem() == "timed out"


def test_traced_counts_repeat_and_outputs_match_untraced(capsys):
    summaries = []
    for _ in range(2):
        tally = run.Tally()
        summaries.append(run.run_traced(TINY, tally, one_pass_clock()))
        assert tally.problems == [], tally.problems
    first, second = summaries
    assert set(first) == set(tracing.UNITS)
    assert tracing.counts_differ(summaries) == []
    for name in COUNT_NAMES:
        assert first[name] == second[name] > 0, name
    assert first["linalg.calls"] == 0
    assert first["kv.bch_eulerian.calls"] == 1
    printed = capsys.readouterr().out
    for name, unit in tracing.UNITS.items():
        assert f"metric {name} [{unit}] n=" in printed


def test_instrument_rebinds_imported_names_and_forwards_caches():
    tracer = tracing.Tracer()
    layers = tracing.layer_modules()
    kv, cli, idempotents = layers["kv"], layers["cli"], layers["idempotents"]
    original_dynkin, original_f0 = idempotents.dynkin, kv.f0
    caches = [fn for module in layers.values() for fn in tracing.lru_caches(module)]
    assert len(caches) == 16
    with tracing.instrument(tracer):
        assert kv.dynkin is not original_dynkin and kv.dynkin.__wrapped__ is original_dynkin
        assert cli.f0 is kv.f0 is not original_f0
        assert cli.main(["verify", "--equation", "kv1", "--degree", "4"]) == 0
        assert any(fn.cache_info().currsize for fn in caches)
        kv.clear_caches()
        assert [fn.cache_info().currsize for fn in caches] == [0] * 16
    assert kv.dynkin is idempotents.dynkin is original_dynkin
    assert cli.f0 is kv.f0 is original_f0
    assert "counted" not in Fraction.__add__.__qualname__
    assert tracer.calls["kv.f0"] >= 1 and tracer.fraction_ops[0] > 0


def test_seeded_inputs_have_a_fixed_shape():
    from kvlie.algebra import XY, parse_poly

    assert seeded_inputs(7) == seeded_inputs(7)
    for seed in range(20):
        text, lambda1 = seeded_inputs(seed)
        poly = parse_poly(XY, text)
        assert len(poly.terms) == 3 and poly.degrees() == [5]
        for c in [*poly.terms.values(), lambda1]:
            assert c and abs(c.numerator) <= 9 and c.denominator <= 9


def test_solution_check_reads_lambda1():
    payload = json.dumps({"F": [{"word": "x", "coeff": "-3/7"}], "G": [{"word": "y", "coeff": "1"}]})
    assert solution_check(Fraction(-3, 7))(payload.encode()) is None
    assert "expected 1/2" in solution_check(Fraction(1, 2))(payload.encode())
    assert "not the expected JSON" in solution_check(Fraction(1))(b"F = x")


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-directory" / "src")
    assert run.main(["--workload", "multilinear-k3", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
