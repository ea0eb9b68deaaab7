"""Identity registry and verification runner.

Every identity the library claims is registered as an
:class:`IdentitySpec` inside one of six suites (core, fourier, harmonic,
msums, series, special): an id, its points, a ``sides`` function
called with a point's parameters by name, ``sides(**point)``, that
returns the identity's two sides, and a tolerance (``None`` compares
exactly, coefficientwise for truncated series).  Each suite's points
are fixed, and every product of parameter ranges is built by ``_grid``.
``run_suite`` sweeps them in one pass and returns a deterministic,
sorted list of :class:`IdentityReport` records, each built by
``reports.compare`` under its spec's id; ``emit_report`` serializes
them byte-stably as JSON, or through ``reports.render`` as CSV or
markdown.

This module names its suites as strings, in ``_SUITES``.  The specs of
suite ``S``, and the data only they read (the paper's tables for
``core``), live in the module ``suite_S``, which is imported by name and
whose ``build`` is called afresh at every build.  So a
``verify --suite S`` process compiles and runs this module and
``suite_S`` only, on top of the library layers that ``import zetaseries``
loads.  Listing the suites (``suite_names``, the CLI's help) loads no
suite module.
"""

from __future__ import annotations

import importlib
import itertools
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .reports import IdentityReport, compare, render

__all__ = [
    "IdentitySpec",
    "suite_names",
    "registered_ids",
    "assert_ids",
    "run_suite",
    "verify_suite",
    "emit_report",
]


class IdentitySpec(NamedTuple):
    id: str
    points: Tuple[dict, ...]  # parameter name -> value; products of ranges come from _grid
    sides: Callable[..., tuple]  # sides(**point) -> (lhs, rhs): the point's parameters by name
    tolerance: Optional[float] = None  # None: exact
    assert_pass: bool = True

    def evaluate(self, point: dict) -> IdentityReport:
        return compare(self.id, point, *self.sides(**point), self.tolerance)


def _grid(**axes) -> tuple:
    """Every combination of the axes' values as a point, last axis fastest."""
    return tuple(dict(zip(axes, values)) for values in itertools.product(*axes.values()))


_SUITES = ("core", "fourier", "harmonic", "msums", "series", "special")


def suite_names() -> tuple:
    return _SUITES


def _build(name: str) -> list:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    return importlib.import_module(f"{__package__}.suite_{name}").build()


def registered_ids(name: str) -> tuple:
    return tuple(spec.id for spec in _build(name))


def assert_ids(name: str) -> frozenset:
    return frozenset(spec.id for spec in _build(name) if spec.assert_pass)


def _sweep(specs: Sequence[IdentitySpec]) -> list:
    reports = (spec.evaluate(point) for spec in specs for point in spec.points)
    return sorted(reports, key=IdentityReport.sort_key)


def run_suite(name: str) -> list:
    """Evaluate every grid point of every identity in the suite, in one
    sequential sweep; the report list is sorted by (id, params)."""
    return _sweep(_build(name))


def verify_suite(name: str) -> Tuple[list, bool]:
    """``run_suite(name)`` and its verdict, from one build of the suite.
    Exit-code policy: only identities registered with ``assert_pass`` can
    fail a suite; the report-only ones (all of msums, and the *_printed
    variants of the paper's broken displays elsewhere) never do."""
    specs = _build(name)
    reports = _sweep(specs)
    asserted = {spec.id for spec in specs if spec.assert_pass}
    return reports, all(r.passed for r in reports if r.id in asserted)


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
