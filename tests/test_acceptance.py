"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> PASS|FAIL`` line directly to
the terminal (outside pytest capture) and enforces the stated tolerance
and runtime budget.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from zetaseries import audit, msums, special, suite_core
from zetaseries.cli import main as cli_main
from zetaseries.coeffs import (
    remainder_t,
    s2star_harmonic,
    s2star_heuristic,
    s2star_ogf_coeff,
    s2star_rec,
    s2star_reverse_binomial,
    s2star_scaled,
    s2star_sum,
)
from zetaseries.exactnum import factorial
from zetaseries.harmonic import (
    exp_harmonic_conv,
    harmonic_rec_corollary,
    npow_inverse,
    s2star_from_hnum_int,
    s2star_from_hnum_real,
)
from zetaseries.harmonicnums import harmonic
from zetaseries.powerseries import TruncSeries
from zetaseries.reports import compare
from zetaseries.series import (
    dilog_functional_eq_check,
    intro_example,
    transform_zeta,
)
from zetaseries.stirling import bernoulli_poly, npow_forward


@pytest.fixture
def announce(request, capsys):
    """Emit the per-criterion status line uncaptured after the test body."""
    state = {"number": None, "label": ""}

    def set_criterion(number, label):
        state["number"], state["label"] = number, label

    yield set_criterion
    failed = getattr(request.node, "rep_call_failed", None)
    outcome = "FAIL" if failed else "PASS"
    with capsys.disabled():
        print(f"ACCEPTANCE {state['number']:>2} {outcome}: {state['label']}")


def test_criterion_01_table_reproduction(announce):
    announce(1, "tables reproduced exactly, < 1 s")
    start = time.monotonic()
    for k, row in suite_core.TABLE1.items():
        for j, value in enumerate(row):
            assert s2star_rec(k, j) == value
    for k, row in suite_core.TABLE2.items():
        for j, value in enumerate(row):
            if j >= 1:
                assert s2star_scaled(k, j) == value
    assert s2star_rec(6, 8) == Fraction(-3355156783231, 20074173235200000)
    assert time.monotonic() - start < 1.0


def test_criterion_02_method_agreement(announce):
    announce(2, "six coefficient methods agree exactly, < 10 s")
    start = time.monotonic()
    mismatches = 0
    for k in range(2, 11):
        for j in range(1, 26):
            value = s2star_rec(k, j)
            if s2star_sum(k, j) != value:
                mismatches += 1
            if s2star_heuristic(k - 2, j) != value:
                mismatches += 1
            if 2 <= k <= 6 and s2star_harmonic(k, j) != value:
                mismatches += 1
            if j <= 8 and k <= 8 and s2star_ogf_coeff(k, j) != value:
                mismatches += 1
            if j <= 12 and k <= 8 and s2star_reverse_binomial(k - 2, j) != value:
                mismatches += 1
    assert mismatches == 0
    assert time.monotonic() - start < 10.0


def test_criterion_03_remainder_expressions(announce):
    announce(3, "all 12 remainder expressions exact for j <= 20")
    for variant in ("t0", "t1"):
        for k in range(2, 8):
            for j in range(1, 21):
                expected = suite_core.table3_expression(variant, k, j)
                assert remainder_t(variant, k, j) == expected


def test_criterion_04_power_identities(announce):
    announce(4, "power identities exact (400 inverse + 160 forward checks)")
    checks = 0
    for n in range(1, 51):
        for k in range(1, 9):
            assert npow_inverse(n, k) == Fraction(1, n**k)
            checks += 1
    assert checks == 400
    for n in range(1, 21):
        for k in range(1, 9):
            assert npow_forward(n, k) == n**k


def test_criterion_05_transform_and_examples(announce):
    announce(5, "transform exact for four series; intro examples match")
    order = 30
    gfs = {
        "geometric": (TruncSeries.geometric(1, order), lambda n: Fraction(1)),
        "geometric_sq": (
            TruncSeries.geometric(1, order) * TruncSeries.geometric(1, order),
            lambda n: Fraction(n + 1),
        ),
        "exp": (TruncSeries.exp_z(order), lambda n: Fraction(1, factorial(n))),
        "li2_over_1mz": (
            TruncSeries.polylog(2, order) * TruncSeries.geometric(1, order),
            lambda n: sum((Fraction(1, m**2) for m in range(1, n + 1)), Fraction(0)),
        ),
    }
    for k in (1, 2, 3):
        for G, g_of in gfs.values():
            result = transform_zeta(G, k)
            for n in range(1, order + 1):
                assert result.coeff(n) == g_of(n) / Fraction(n**k)
    # intro examples (a)-(f) exact to u = 20
    u = 20
    for k in (1, 2):
        for example, direct in (
            ("a", lambda n: Fraction(1, n**k)),
            ("b", lambda n: Fraction(1, n**k * factorial(n))),
            ("c", lambda n: harmonic(n, k)),
            ("f", lambda n: harmonic(n, k) / factorial(n)),
        ):
            result = intro_example(example, k, u)
            for n in range(1, u + 1):
                assert result.coeff(n) == direct(n)
    # example (g) within 1e-10
    for a in (2, 3, 4):
        for b in range(a):
            for s in (1, 2):
                result = intro_example("g", s, 12, a=a, b=b)
                for n in range(1, 13):
                    assert abs(result[n] - 1.0 / (a * n + b) ** s) < 1e-10


def test_criterion_06_harmonic_propositions(announce):
    announce(6, "harmonic propositions pass; extended recurrences reported")
    for k in range(1, 7):
        for j in range(1, 21):
            want = s2star_rec(k + 2, j)
            assert s2star_from_hnum_int(k, j, 1) == want
            assert s2star_from_hnum_int(k, j, 2) == want
    for k in (2, 3):
        for j in range(1, 13):
            for r in (0.0, 0.25, 0.5):
                got = s2star_from_hnum_real(k, j, r, 1)
                ref = s2star_from_hnum_real(k, j, r, 2) if r else float(s2star_rec(k + 2, j))
                assert abs(got - ref) < 1e-9
    for k in range(0, 6):
        for j in range(1, 21):
            assert exp_harmonic_conv(k, j) * j == s2star_rec(k + 2, j)
    for n in range(1, 13):
        for k in range(1, 6):
            assert harmonic_rec_corollary(n, k, 1) == harmonic(n, k)
            assert harmonic_rec_corollary(n, k, 2) == harmonic(n, k)
    # extended recurrences 3-6 are recorded, never asserted
    statuses = set()
    for which in (3, 4, 5, 6):
        report = compare("msum_almost_linear", {"which": which}, *msums.almost_linear_sides(which, 6, 2))
        statuses.add(report.status)
        assert report.status in ("exact_pass", "fail")
    assert statuses  # reports produced for every recurrence


def test_criterion_07_polylog_and_zeta_star(announce):
    announce(7, "Li three-way 1e-10; zeta* closed 1e-8; Euler decimals 5e-6, < 30 s")
    start = time.monotonic()
    for s in range(1, 6):
        for z in (-0.8, -0.5, -0.1, 0.2, 0.4):
            v1 = special.li_new_series(s, z, 400).value
            v2 = special.li_classic_series(s, z, 400).value
            v3 = special.li_direct_sum(s, z, 400).value
            assert max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)) < 1e-10
    assert abs(special.zeta_star(1, 120, "series") - math.log(2)) < 1e-8
    for s in range(2, 7):
        closed = (1 - 2.0 ** (1 - s)) * special.zeta_ref(s)
        assert abs(special.zeta_star(s, 120, "series") - closed) < 1e-8
    for s, decimal in ((3, 0.901543), (4, 0.947033), (5, 0.972120)):
        assert abs(special.zeta_star_euler_form(s, 200) - decimal) < 5e-6
    assert time.monotonic() - start < 30.0


def test_criterion_08_functional_equations(announce):
    announce(8, "dilog exact to order 40; trilog within 1e-7")
    passed, witness = dilog_functional_eq_check(40)
    assert passed, witness
    for z in (-0.5, -0.1):
        report = special.trilog_functional_eq_check(z)
        assert report.passed
        assert report.residual < 1e-7


def test_criterion_09_fourier_bernoulli(announce):
    announce(9, "Fourier-Bernoulli values within stated tolerances")
    assert abs(special.bernoulli_fourier(1, 1.25, 60) - (-0.25)) < 1e-6
    for order in (1, 2, 3):
        for x in (0.25, 1.25, 2.75):
            want = float(bernoulli_poly(order, Fraction(x).limit_denominator(10**6) % 1))
            want /= factorial(order)
            assert abs(special.bernoulli_fourier(order, x, 60) - want) < 1e-5
    for order in (1, 2):
        for x in (0.25, 0.3, 0.75):
            value = special.bernoulli_closed_logforms(order, x)
            want = float(bernoulli_poly(order, Fraction(x).limit_denominator(10**6))) / factorial(order)
            assert abs(value.imag) < 1e-9
            assert abs(value.real - want) < 1e-8


def test_criterion_10_section5_audit(announce):
    announce(10, "msums grid completes; discrepancies recorded; < 60 s")
    start = time.monotonic()
    reports = audit.run_suite("msums")
    grid_reports = [r for r in reports if r.id == "msums.def_vs_alt"]
    assert len(grid_reports) == 5 * 4 * 13 * 2  # k 4..8, d 1..4, n 0..12, two readings
    assert msums.m_alt(msums.MSumSpec(3, 1, 1)) == -1
    assert msums.m_def(msums.MSumSpec(3, 1, 1, "unsigned")) == 1
    assert msums.m_recurrence_residual(3, 1, 1, "alt") == Fraction(-191, 32)
    residual_reports = [
        r for r in reports
        if r.id == "msums.recurrence" and dict(r.params) == {"k": 3, "d": 1, "n": 1, "source": "alt"}
    ]
    assert residual_reports and residual_reports[0].residual == "-191/32"
    document = audit.emit_report(reports, "json")
    json.loads(document)  # valid JSON
    assert document == audit.emit_report(audit.run_suite("msums"), "json")
    assert audit.verify_suite("msums") == (reports, True)
    assert time.monotonic() - start < 60.0


def test_criterion_11_determinism(announce):
    announce(11, "every suite byte-identical across runs")
    for suite in audit.suite_names():
        one = audit.emit_report(audit.run_suite(suite), "json")
        again = audit.emit_report(audit.run_suite(suite), "json")
        assert one == again


def test_cli_entry_point_verifies(capsys):
    # criterion 1's runtime budget includes reaching the table through the CLI
    code = cli_main(["table", "--kmax", "6", "--jmax", "8", "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert "-3355156783231/20074173235200000" in out
