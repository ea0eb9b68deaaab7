"""The ``cli_cold`` command list and the checks on each command's output.

Each command runs in a fresh interpreter, as a user at a shell runs it.
The checks use :mod:`oracles`, never stored output.  Five commands fail
at this commit, each because of a fault in the program:

* ``verify --suite special`` emits reports with id ``trilog_functional_eq``,
  which the suite does not register, so that identity never reaches the
  exit code;
* ``verify --suite msums --format csv`` is not CSV: ``coeffs=1,-1,0`` is
  written unquoted and splits rows;
* ``fourier --order 2 --x 1/10`` prints a divergent partial sum, exit 0;
* ``polylog --s 2 --z 2`` prints a divergent partial sum, exit 0;
* ``polylog --s 2 --z -1/2`` ends in an argparse usage error (exit 2),
  because ``-1/2`` reads as an option.

For the two domain faults a value within tolerance, or exit 1 with an
``error:`` line on stderr, counts as a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles


@dataclass
class Result:
    code: int
    out: str
    err: str


@dataclass
class Command:
    slug: str
    args: tuple
    check: Callable  # (Result, {slug: Result}) -> bool


def _value(r: Result, want: float, tol: float) -> bool:
    if r.code != 0:
        return False
    try:
        return abs(float(r.out.strip()) - want) <= tol
    except ValueError:
        return False


def _value_or_domain_error(want: float, tol: float):
    def check(r: Result, _ctx) -> bool:
        refused = r.code == 1 and any(line.startswith("error:") for line in r.err.splitlines())
        return refused or _value(r, want, tol)
    return check


def _exact(want: Fraction):
    def check(r: Result, _ctx) -> bool:
        return r.code == 0 and Fraction(r.out.strip()) == want
    return check


def _markdown_cells(text: str) -> list:
    rows = [line.strip("|").split("|") for line in text.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row] for row in rows[2:]]


def _table(scaled: bool):
    def want(k, j):
        c = oracles.coeff(k, j)
        if scaled and j >= 1:
            return c * (-1) ** (j - 1) * math.factorial(j)
        return c

    def check(r: Result, _ctx) -> bool:
        rows = _markdown_cells(r.out)
        if r.code != 0 or len(rows) != 7:
            return False
        for k, row in enumerate(rows):
            if row[0] != str(k) or len(row) != 10:
                return False
            if any(Fraction(row[1 + j]) != want(k, j) for j in range(9)):
                return False
        return scaled or all(Fraction(rows[k][1 + j]) == oracles.table1(k, j) for k in range(7) for j in range(9))
    return check


def _series_a(r: Result, _ctx) -> bool:
    lines = r.out.splitlines()
    if r.code != 0 or len(lines) != 4:
        return False
    return all(line == f"z^{n}: {oracles.intro_coefficient('a', n, 1)}" for n, line in enumerate(lines))


def _suite(name: str):
    def check(r: Result, _ctx) -> bool:
        from zetaseries import audit

        if r.code != 0:
            return False
        reports = json.loads(r.out)
        registered, asserted = set(audit.registered_ids(name)), audit.assert_ids(name)
        if any(rep["id"] not in registered for rep in reports):
            return False
        return all(rep["status"] != "fail" for rep in reports if rep["id"] in asserted)
    return check


def _msums_csv(r: Result, ctx) -> bool:
    if r.code != 0:
        return False
    rows = list(csv.reader(io.StringIO(r.out)))
    if rows[0] != ["id", "params", "status", "residual"] or any(len(row) != 4 for row in rows):
        return False
    json_reports = ctx["verify_msums"]
    return json_reports.code == 0 and len(rows) - 1 == len(json.loads(json_reports.out))


def commands() -> list:
    """The README's commands, every suite, then the four fault probes."""
    cmds = [
        Command("table", ("table", "--kmax", "6", "--jmax", "8"), _table(False)),
        Command("table_scaled", ("table", "--kmax", "6", "--jmax", "8", "--scaled"), _table(True)),
        Command("coeff", ("coeff", "--k", "4", "--j", "3"), _exact(oracles.coeff(4, 3))),
        Command("harmonic", ("harmonic", "--n", "4", "--k", "1"), _exact(oracles.harmonic(4, 1))),
        Command("series", ("series", "--example", "a", "--k", "1", "--u", "3"), _series_a),
        Command("polylog", ("polylog", "--s", "2", "--z", "-1"),
                lambda r, c: _value(r, -oracles.zeta_star(2), 1e-12)),
        Command("zetastar", ("zetastar", "--s", "1", "--terms", "80"),
                lambda r, c: _value(r, math.log(2), 1e-12)),
        Command("fourier", ("fourier", "--order", "1", "--x", "5/4"),
                lambda r, c: _value(r, oracles.periodic_bernoulli(1, 1.25), 1e-7)),
        Command("msum", ("msum", "--k", "3", "--d", "1", "--n", "1", "--source", "alt"),
                _exact(oracles.m_alt(3, 1, 1))),
    ]
    for suite in ("core", "fourier", "harmonic", "msums", "series", "special"):
        cmds.append(Command(f"verify_{suite}", ("verify", "--suite", suite), _suite(suite)))
    cmds += [
        Command("verify_msums_csv", ("verify", "--suite", "msums", "--format", "csv"), _msums_csv),
        Command("fourier_x0.1", ("fourier", "--order", "2", "--x", "1/10"),
                _value_or_domain_error(oracles.periodic_bernoulli(2, 0.1), 1e-7)),
        Command("polylog_z2", ("polylog", "--s", "2", "--z", "2"),
                _value_or_domain_error(oracles.li2_real_part(2.0), 1e-9)),
        Command("polylog_z-0.5", ("polylog", "--s", "2", "--z", "-1/2"),
                lambda r, c: _value(r, oracles.li(2, -0.5), 1e-12)),
    ]
    return cmds
