"""Identity registry and verification runner.

Every identity the library claims is registered as an
:class:`IdentitySpec` inside one of six suites (core, harmonic, series,
special, msums, fourier): an id, its points, a ``sides`` function
called with a point's parameters by name, ``sides(**point)``, that
returns the identity's two sides, and a tolerance (``None`` compares
exactly, coefficientwise for truncated series).  Each suite's points
are fixed, and every product of parameter ranges is built by ``_grid``.
``run_suite`` sweeps them in one pass and returns a deterministic,
sorted list of :class:`IdentityReport` records, each built by
``reports.compare`` under its spec's id; ``emit_report`` serializes
them byte-stably as JSON, or through ``reports.render`` as CSV or
markdown.

Specs carry an ``assert_pass`` flag: suites that document known-broken
printed forms (all of msums, plus the *_printed variants elsewhere) are
report-only and never fail the verification exit code.

This module names its suites as strings.  The specs of suite ``S``, and
the data only they read, live in the module ``suite_S``: ``_SUITES[S]``
imports it by name when ``S`` is first built, and calls its ``build``
afresh at every build.  So a
``verify --suite S`` process compiles and runs this module and
``suite_S`` only, on top of the library layers that ``import zetaseries``
loads; it builds the suite once, through ``verify_suite``, which both
sweeps it and applies the exit-code policy.  Listing the suites
(``suite_names``, the CLI's help) loads no suite module.
"""

from __future__ import annotations

import importlib
import itertools
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .harmonicnums import harmonic
from .reports import IdentityReport, compare, render

__all__ = [
    "IdentitySpec",
    "IdentityReport",
    "suite_names",
    "registered_ids",
    "assert_ids",
    "run_suite",
    "suite_passes",
    "verify_suite",
    "emit_report",
    "TABLE1",
    "TABLE2",
]


class IdentitySpec(NamedTuple):
    id: str
    points: Tuple[dict, ...]  # parameter name -> value; products of ranges come from _grid
    sides: Callable[..., tuple]  # sides(**point) -> (lhs, rhs): the point's parameters by name
    tolerance: Optional[float] = None  # None: exact
    assert_pass: bool = True

    def evaluate(self, point: dict) -> IdentityReport:
        return compare(self.id, point, *self.sides(**point), self.tolerance)


# ---------------------------------------------------------------------
# frozen reference tables (coefficients and their scaled companions,
# rows k = 0..6, columns j = 0..8)
# ---------------------------------------------------------------------

_F = Fraction

TABLE1 = {
    0: [1, 0, 0, 0, 0, 0, 0, 0, 0],
    1: [0, 1, 0, 0, 0, 0, 0, 0, 0],
    2: [0, 1, _F(-1, 2), _F(1, 6), _F(-1, 24), _F(1, 120), _F(-1, 720), _F(1, 5040), _F(-1, 40320)],
    3: [0, 1, _F(-3, 4), _F(11, 36), _F(-25, 288), _F(137, 7200), _F(-49, 14400), _F(121, 235200), _F(-761, 11289600)],
    4: [0, 1, _F(-7, 8), _F(85, 216), _F(-415, 3456), _F(12019, 432000), _F(-13489, 2592000), _F(726301, 889056000), _F(-3144919, 28449792000)],
    5: [0, 1, _F(-15, 16), _F(575, 1296), _F(-5845, 41472), _F(874853, 25920000), _F(-336581, 51840000), _F(129973303, 124467840000), _F(-1149858589, 7965941760000)],
    6: [0, 1, _F(-31, 32), _F(3661, 7776), _F(-76111, 497664), _F(58067611, 1555200000), _F(-68165041, 9331200000), _F(187059457981, 156829478400000), _F(-3355156783231, 20074173235200000)],
}

TABLE2 = {
    0: [1, 0, 0, 0, 0, 0, 0, 0, 0],
    1: [0, 1, 0, 0, 0, 0, 0, 0, 0],
    2: [0, 1, 1, 1, 1, 1, 1, 1, 1],
    3: [0, 1, _F(3, 2), _F(11, 6), _F(25, 12), _F(137, 60), _F(49, 20), _F(363, 140), _F(761, 280)],
    4: [0, 1, _F(7, 4), _F(85, 36), _F(415, 144), _F(12019, 3600), _F(13489, 3600), _F(726301, 176400), _F(3144919, 705600)],
    5: [0, 1, _F(15, 8), _F(575, 216), _F(5845, 1728), _F(874853, 216000), _F(336581, 72000), _F(129973303, 24696000), _F(1149858589, 197568000)],
    6: [0, 1, _F(31, 16), _F(3661, 1296), _F(76111, 20736), _F(58067611, 12960000), _F(68165041, 12960000), _F(187059457981, 31116960000), _F(3355156783231, 497871360000)],
}

_TABLE3_T0 = {
    2: lambda h: _F(0),
    3: lambda h: _F(0),
    4: lambda h: h[2],
    5: lambda h: h[1] * h[2],
    6: lambda h: (h[1] ** 2 * h[2] + h[4]) / 2,
    7: lambda h: (h[1] ** 3 * h[2] + 2 * h[2] * h[3] + 3 * h[1] * h[4]) / 6,
}

_TABLE3_T1 = {
    2: lambda h: _F(2),
    3: lambda h: 2 * h[1],
    4: lambda h: h[1] ** 2,
    5: lambda h: (h[1] ** 3 + 2 * h[3]) / 3,
    6: lambda h: (h[1] ** 4 + 3 * h[2] ** 2 + 8 * h[1] * h[3]) / 12,
    7: lambda h: (h[1] ** 5 + 15 * h[1] * h[2] ** 2 + 20 * h[1] ** 2 * h[3] + 24 * h[5]) / 60,
}


def table3_expression(variant: str, k: int, j: int) -> Fraction:
    """The displayed harmonic-polynomial remainder expressions, k = 2..7."""
    h = {r: harmonic(j, r) for r in range(1, 6)}
    table = _TABLE3_T0 if variant == "t0" else _TABLE3_T1
    return table[k](h)


# ---------------------------------------------------------------------
# suites, each built by the module suite_<name> on first use
# ---------------------------------------------------------------------


def _grid(**axes) -> tuple:
    """Every combination of the axes' values as a point, last axis fastest."""
    return tuple(dict(zip(axes, values)) for values in itertools.product(*axes.values()))


def _suite(name: str) -> Callable[[], list]:
    def build() -> list:
        return importlib.import_module(f"{__package__}.suite_{name}").build()
    return build


_SUITES = {name: _suite(name) for name in ("core", "harmonic", "series", "special", "msums", "fourier")}


def suite_names() -> tuple:
    return tuple(sorted(_SUITES))


def _build(name: str) -> list:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    return _SUITES[name]()


def registered_ids(name: str) -> tuple:
    return tuple(spec.id for spec in _build(name))


def _asserted(specs: Sequence[IdentitySpec]) -> frozenset:
    return frozenset(spec.id for spec in specs if spec.assert_pass)


def assert_ids(name: str) -> frozenset:
    return _asserted(_build(name))


def _sweep(specs: Sequence[IdentitySpec]) -> list:
    reports = (spec.evaluate(point) for spec in specs for point in spec.points)
    return sorted(reports, key=IdentityReport.sort_key)


def run_suite(name: str) -> list:
    """Evaluate every grid point of every identity in the suite, in one
    sequential sweep; the report list is sorted by (id, params)."""
    return _sweep(_build(name))


def _passes(asserted: frozenset, reports: Sequence[IdentityReport]) -> bool:
    return all(r.passed for r in reports if r.id in asserted)


def suite_passes(name: str, reports: Sequence[IdentityReport]) -> bool:
    """Exit-code policy: only identities registered with assert_pass can
    fail a suite; report-only identities never do."""
    return _passes(assert_ids(name), reports)


def verify_suite(name: str) -> Tuple[list, bool]:
    """``run_suite(name)`` and ``suite_passes`` of its reports, from one
    build of the suite."""
    specs = _build(name)
    reports = _sweep(specs)
    return reports, _passes(_asserted(specs), reports)


def emit_report(reports: Sequence[IdentityReport], format: str = "json") -> str:
    if format == "json":
        import json  # on first use: the csv and markdown reports do without it

        payload = [
            {
                "id": r.id,
                "params": {k: v for k, v in r.params},
                "status": r.status,
                "residual": r.residual,
                "witness": list(r.witness) if r.witness else None,
            }
            for r in reports
        ]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if format in ("csv", "markdown"):
        rows = ([r.id, ";".join(f"{k}={v}" for k, v in r.params), r.status, str(r.residual)] for r in reports)
        return render(["id", "params", "status", "residual"], rows, format)
    raise ValueError("format must be json, csv, or markdown")
