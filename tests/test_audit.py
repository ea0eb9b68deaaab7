"""Verification registry: completeness, determinism, serialization, policy."""

import csv
import io
import json
import sys
import types
from fractions import Fraction

import check_pins
import pytest

from zetaseries import audit, special, suite_core, suite_fourier
from zetaseries.cli import main
from zetaseries.coeffs import s2star_rec, s2star_scaled
from zetaseries.reports import IdentityReport
from zetaseries.powerseries import TruncSeries

# Static manifest of every registered identity, by suite.  A new identity
# must be added here deliberately; a dropped one fails loudly.
MANIFEST = {
    "core": [
        "core.rec_vs_sum",
        "core.rec_vs_harmonic",
        "core.rec_vs_ogf",
        "core.rec_vs_heuristic",
        "core.rec_vs_reverse_binomial",
        "core.table1",
        "core.table2",
        "core.table3_remainder",
        "core.sign_pattern",
    ],
    "harmonic": [
        "harmonic.npow_inverse",
        "harmonic.npow_forward",
        "harmonic.via_rec",
        "harmonic.hnum_int",
        "harmonic.hnum_real",
        "harmonic.exp_conv",
        "harmonic.exp_inv",
        "harmonic.rec_corollary_exact",
        "harmonic.rec_corollary_real",
        "harmonic.binomial_form",
        "harmonic.powers_of_n",
    ],
    "series": [
        "series.transform_zeta",
        "series.round_trip",
        "series.intro_exact",
        "series.intro_progression",
        "series.multisection",
        "series.exp_log_roundtrip",
        "series.stirling1_egf",
        "series.stirling1_egf_printed_sign",
        "series.dilog_functional_eq",
        "series.exp_harmonic",
        "series.h1_egf",
    ],
    "special": [
        "special.li_three_way",
        "special.zeta_star_series",
        "special.zeta_star_harmonic_form",
        "special.zeta_star_euler_form",
        "special.euler_form_s4_printed",
        "special.trilog_functional_eq",
        "special.trilog_printed_sign",
        "special.hurwitz_direct",
    ],
    "fourier": [
        "fourier.b1_value",
        "fourier.series_vs_poly",
        "fourier.convergence",
        "fourier.closed_logforms",
        "fourier.printed_series_reading",
    ],
    "msums": [
        "msums.def_vs_alt",
        "msums.recurrence",
        "msum_almost_linear",
        "msum_general_relation",
        "msums.documented_discrepancy",
    ],
}

REPORT_ONLY = {
    "series.stirling1_egf_printed_sign",
    "special.euler_form_s4_printed",
    "special.trilog_printed_sign",
    "fourier.printed_series_reading",
    "msums.def_vs_alt",
    "msums.recurrence",
    "msum_almost_linear",
    "msum_general_relation",
}


def test_suite_names():
    assert audit.suite_names() == tuple(sorted(MANIFEST))


def test_registry_completeness():
    for suite, expected in MANIFEST.items():
        assert sorted(set(audit.registered_ids(suite))) == sorted(expected)


def test_assert_policy_matches_manifest():
    for suite, expected in MANIFEST.items():
        asserted = audit.assert_ids(suite)
        for identity in expected:
            if identity in REPORT_ONLY:
                assert identity not in asserted
            else:
                assert identity in asserted


@pytest.mark.parametrize("suite", audit.suite_names())
def test_emitted_ids_are_registered(suite):
    emitted = {r.id for r in audit.run_suite(suite)}
    assert emitted == set(audit.registered_ids(suite))


@pytest.mark.parametrize("suite", audit.suite_names())
def test_json_report_bytes_pinned(suite):
    # sha256 prefixes of the reports, pinned in tests/pins.json
    assert list(check_pins.report_mismatches(suite, ["json"])) == []


@pytest.mark.parametrize("suite", audit.suite_names())
def test_csv_and_markdown_report_bytes_pinned(suite):
    assert list(check_pins.report_mismatches(suite, ["csv", "markdown"])) == []


@pytest.mark.parametrize("n", [1, 2])
def test_disagreeing_sides_fail_under_spec_id(monkeypatch, n):
    point = ({"n": n},)
    specs = [
        audit.IdentitySpec("fake.exact", point, lambda n: (Fraction(1, 3), Fraction(1, 2))),
        audit.IdentitySpec("fake.numeric", point, lambda n: (1.0, 1.5), tolerance=0.1),
        audit.IdentitySpec(
            "fake.series", point, lambda n: (TruncSeries([Fraction(1), Fraction(2)]), TruncSeries([Fraction(1), Fraction(3)]))
        ),
        # tolerance 0.0 is numeric, not exact: the residual stays a float
        audit.IdentitySpec("fake.zero_tolerance", point, lambda n: (1.0, 1.0 + 2**-52), tolerance=0.0),
    ]
    monkeypatch.setattr(audit, "_SUITES", audit._SUITES + ("fake",))
    monkeypatch.setitem(sys.modules, "zetaseries.suite_fake", types.SimpleNamespace(build=lambda: specs))
    reports = audit.run_suite("fake")
    assert [(r.id, r.params, r.status, r.residual) for r in reports] == [
        ("fake.exact", (("n", n),), "fail", "-1/6"),
        ("fake.numeric", (("n", n),), "fail", 0.5),
        ("fake.series", (("n", n),), "fail", "-1"),
        ("fake.zero_tolerance", (("n", n),), "fail", 2**-52),
    ]
    assert reports[2].witness == ("[z^1] 2", "[z^1] 3")
    assert audit.verify_suite("fake") == (reports, False)


def test_verify_suite_builds_once_and_agrees_with_run_suite(monkeypatch):
    builds = []
    build = suite_fourier.build
    monkeypatch.setattr(suite_fourier, "build", lambda: builds.append(1) or build())
    reports, passed = audit.verify_suite("fourier")
    assert len(builds) == 1
    assert reports == audit.run_suite("fourier")
    asserted = audit.assert_ids("fourier")
    assert passed is all(r.passed for r in reports if r.id in asserted) is True


def test_failing_trilog_check_fails_verify(monkeypatch, capsys):
    sides = special.trilog_functional_eq_sides

    def broken(z, J):
        lhs, rhs = sides(z, J)
        return lhs + 1e-6, rhs

    monkeypatch.setattr(special, "trilog_functional_eq_sides", broken)
    assert main(["verify", "--suite", "special"]) == 1
    capsys.readouterr()


def test_trilog_tolerance_is_stated_once(monkeypatch):
    # the check and both trilog specs of the audit read special's one constant
    monkeypatch.setattr(special, "_TRILOG_TOLERANCE", 0.25)
    specs = {spec.id: spec for spec in audit._build("special")}
    assert specs["special.trilog_functional_eq"].tolerance == 0.25
    assert specs["special.trilog_printed_sign"].tolerance == 0.25
    monkeypatch.setattr(special, "compare", lambda *args: args[-1])
    assert special.trilog_functional_eq_check(-0.5) == 0.25


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        audit.run_suite("nope")


def test_reports_are_sorted_and_typed():
    reports = audit.run_suite("fourier")
    keys = [r.sort_key() for r in reports]
    assert keys == sorted(keys)
    for r in reports:
        assert isinstance(r, IdentityReport)
        assert r.status in ("exact_pass", "numeric_pass", "fail")


def test_asserted_identities_all_pass():
    for suite in audit.suite_names():
        reports = audit.run_suite(suite)
        asserted = audit.assert_ids(suite)
        bad = [r for r in reports if r.id in asserted and not r.passed]
        assert not bad, bad[:3]
        assert audit.verify_suite(suite) == (reports, True)


def test_report_only_failures_are_expected_ones():
    failing_ids = set()
    for suite in audit.suite_names():
        for r in audit.run_suite(suite):
            if not r.passed:
                failing_ids.add(r.id)
    assert failing_ids <= REPORT_ONLY
    # the documented broken printed forms really do fail
    assert "msums.def_vs_alt" in failing_ids
    assert "msums.recurrence" in failing_ids
    assert "special.euler_form_s4_printed" in failing_ids
    assert "special.trilog_printed_sign" in failing_ids
    assert "fourier.printed_series_reading" in failing_ids
    assert "series.stirling1_egf_printed_sign" in failing_ids


def test_emit_json_schema():
    reports = audit.run_suite("msums")
    payload = json.loads(audit.emit_report(reports, "json"))
    assert isinstance(payload, list) and payload
    for entry in payload:
        assert set(entry) == {"id", "params", "status", "residual", "witness"}
        assert isinstance(entry["params"], dict)
    assert audit.emit_report([], "json") == "[]"


def test_emit_csv_schema():
    reports = audit.run_suite("core")
    text = audit.emit_report(reports, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["id", "params", "status", "residual"]
    for row in rows[1:]:
        assert len(row) == 4
    # exact passes carry the literal residual "0"
    exact_rows = [row for row in rows[1:] if row[2] == "exact_pass"]
    assert exact_rows and all(row[3] == "0" for row in exact_rows)


@pytest.mark.parametrize("suite", audit.suite_names())
def test_emit_csv_round_trip(suite):
    reports = audit.run_suite(suite)
    rows = list(csv.reader(io.StringIO(audit.emit_report(reports, "csv"))))
    assert len(rows) - 1 == len(json.loads(audit.emit_report(reports, "json")))
    for row, report in zip(rows[1:], reports):
        params = ";".join(f"{k}={v}" for k, v in report.params)
        assert row == [report.id, params, report.status, str(report.residual)]


def test_emit_markdown_schema():
    reports = audit.run_suite("fourier")
    lines = audit.emit_report(reports, "markdown").splitlines()
    assert lines[0] == "| id | params | status | residual |"
    assert len(lines) == len(reports) + 2


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        audit.emit_report([], "xml")


def test_frozen_tables_match_computed():
    for k, row in suite_core.TABLE1.items():
        for j, value in enumerate(row):
            assert s2star_rec(k, j) == value
    for k, row in suite_core.TABLE2.items():
        for j, value in enumerate(row):
            if j == 0:
                continue
            assert s2star_scaled(k, j) == value
