"""Tests of the benchmark itself: its oracles, its checks and its output.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_cold  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import zetaseries  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- oracles


def test_zeta_values():
    assert oracles.zeta(2) == pytest.approx(math.pi**2 / 6, abs=1e-15)
    assert oracles.zeta(4) == pytest.approx(math.pi**4 / 90, abs=1e-15)
    assert oracles.zeta_star(1) == math.log(2)
    assert oracles.zeta_star(2) == pytest.approx(math.pi**2 / 12, abs=1e-15)


def test_bernoulli():
    assert oracles.bernoulli_numbers(8) == [Fraction(v) for v in
                                            ("1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30")]
    for x in (Fraction(1, 10), Fraction(1, 3), Fraction(7, 9)):
        assert oracles.bernoulli_poly(2, x) == x * x - x + Fraction(1, 6)
    assert oracles.periodic_bernoulli(2, 2.25) == pytest.approx((1 / 16 - 1 / 4 + 1 / 6) / 2, abs=1e-16)
    assert oracles.periodic_bernoulli(1, 1.25) == -0.25


def test_coefficients_reproduce_table1():
    for k in range(7):
        for j in range(9):
            assert oracles.coeff(k, j) == oracles.table1(k, j)
    row = [oracles.coeff(5, j) for j in range(30)]
    assert all(oracles.inverse_power_property(row, 5, n) for n in (1, 2, 17, 29))


def test_small_oracles():
    assert oracles.harmonic(4, 1) == Fraction(25, 12)
    assert oracles.harmonic(3, -1) == 6
    assert oracles.stirling1_row(5) == [0, 24, 50, 35, 10, 1]
    assert oracles.li(1, -0.5) == pytest.approx(-math.log(1.5), abs=1e-16)
    assert oracles.li2_real_part(2.0) == pytest.approx(math.pi**2 / 4, abs=1e-14)
    assert oracles.m_alt(3, 1, 1) == -1
    assert oracles.m_def(3, 1, 1) == 1


# ---------------------------------------------------------------- checks


def test_spans_self_time():
    spans = [("outer", 0.0, 10.0, None), ("a", 1.0, 3.0, 0), ("b", 4.0, 8.0, 0), ("c", 5.0, 6.0, 2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    tracer = Tracer()
    with tracer.span("outer"):
        tracer.call("inner", sum, [1, 2])
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None), ("inner", 0)]


def test_rescale_to_reference_speed():
    assert speed.rescale(1.0, [speed.REF_S, speed.REF_S]) == pytest.approx(1.0)
    assert speed.rescale(1.0, [speed.REF_S, 3 * speed.REF_S]) == pytest.approx(0.5)
    assert speed.reference_s() > 0


@pytest.mark.parametrize("build, name, perturb", [
    (workloads.exact_tables, "coeffs.s2star_sum[k=3]", lambda r: r[:-1] + [r[-1] + Fraction(1, 10**30)]),
    (workloads.exact_tables, "coeffs.s2star_rec[k=4]", lambda r: r[:3] + [r[3] * 2] + r[4:]),
    (workloads.exact_tables, "series.intro_example[c]", lambda r: r[:-1] + (r[-1] + 1,)),
    (workloads.exact_tables, "msums.m_alt[k=3]", lambda r: [-v for v in r]),
    (workloads.numeric_eval, "special.zeta_star[s=3,series]", lambda r: r * (1 + 1e-7)),
])
def test_wrong_result_fails_its_check(build, name, perturb):
    op = next(op for op in build(7) if op.name == name)
    result = op.run(NullTracer())
    assert op.check(result)
    assert not op.check(perturb(result))


def test_numeric_checks_reject_small_errors():
    for op in workloads.numeric_eval(3)[::20]:
        value = op.run(NullTracer())
        assert op.check(value), op.name
        assert not op.check(value + 1e-5), op.name


def test_unreadable_result_fails():
    assert not worker._passes(lambda rows: rows[5] == 1, [])
    assert worker._passes(lambda value: value == 1, 1)


def test_wrong_program_result_counted_failed(monkeypatch):
    monkeypatch.setattr(zetaseries, "s2star_sum", lambda k, j: Fraction(0))
    out = worker.run_round("exact_tables", 5, traced=False, check=True)
    tally = run.Tally()
    tally.add(out["ops"], out["digests"], out["ok"])
    assert tally.failed == len(workloads.SUM_ROWS)
    assert set(tally.failures) == {f"coeffs.s2star_sum[k={k}]" for k in workloads.SUM_ROWS}
    # a later round that reproduces a wrong result still fails; one that
    # differs from the checked round fails too
    changed = list(out["digests"])
    changed[0] = "different"
    tally.add(out["ops"], changed)
    assert tally.failed == 2 * len(workloads.SUM_ROWS) + 1


def test_cli_checks():
    by_slug = {c.slug: c for c in cli_cold.commands()}
    ok = cli_cold.Result(0, "85/216\n", "")
    assert by_slug["coeff"].check(ok, {})
    assert not by_slug["coeff"].check(cli_cold.Result(0, "85/217\n", ""), {})
    refused = cli_cold.Result(1, "", "error: outside the convergence domain\n")
    assert by_slug["polylog_z2"].check(refused, {})
    assert not by_slug["polylog_z2"].check(cli_cold.Result(0, "1.15616348306554e+122\n", ""), {})
    assert by_slug["fourier_x0.1"].check(cli_cold.Result(0, "0.0383333333333333\n", ""), {})
    assert not by_slug["polylog_z-0.5"].check(cli_cold.Result(2, "", "usage: ...\n"), {})
    json_report = cli_cold.Result(0, json.dumps([{"id": "a"}, {"id": "b"}]), "")
    good_csv = cli_cold.Result(0, 'id,params,status,residual\na,"coeffs=1,-1,0",exact_pass,0\nb,k=1,fail,1\n', "")
    assert by_slug["verify_msums_csv"].check(good_csv, {"verify_msums": json_report})
    bad_csv = cli_cold.Result(0, "id,params,status,residual\na,coeffs=1,-1,0,exact_pass,0\nb,k=1,fail,1\n", "")
    assert not by_slug["verify_msums_csv"].check(bad_csv, {"verify_msums": json_report})


# ---------------------------------------------------------------- whole runs


def _run(monkeypatch, workload, trace) -> dict:
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_PAIRS", 1)
    monkeypatch.setattr(run, "PROBES", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert run.main(["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(stdout.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_timed_run_reports_end_to_end_metrics(monkeypatch, workload):
    result = _run(monkeypatch, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected_failed = 5 if workload == "cli_cold" else 0
    assert result["failed"] == expected_failed
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_traced_run_reports_layer_metrics(monkeypatch):
    result = _run(monkeypatch, "exact_tables", 1)
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    trace = json.loads((BENCH / "out" / "trace-exact_tables-11.json").read_text())
    assert {p["label"] for p in trace["processes"]} >= {"exact_tables", "numeric_eval", "cli_cold"}
