"""Command-line front end.

Commands expose the coefficient tables (``table``, ``coeff``), exact
harmonic numbers (``harmonic``), the truncated-series constructions
(``series``), the numeric evaluators (``polylog``, ``zetastar``,
``fourier``), the Section-style remainder sums (``msum``), and the
identity verification suites (``verify``).

``--help`` and ``verify --help`` end by naming the verification suites.

Exit codes: 0 success, 1 domain error in the requested evaluation or an
``--output`` path that cannot be opened, 2 unknown verification suite or
a malformed command line (such as ``coeff --k x``).  A polylog point
evaluated by a fallback method prints a ``warning:`` line naming it on
stderr, in every format.  Negative numbers may follow their flag
directly (``--z -1/2``, ``--z -1e-3``); a fraction flag with a zero
denominator is a domain error naming the flag.  Exact values print as
fractions, in full at any number of digits, unless
``--format decimal`` is given: 15 significant digits, rounded from the
exact value beyond a double's range.  A command printing one value
(``coeff``, ``harmonic``, ``msum``, ``zetastar``, ``fourier``, and
``polylog`` but for its json) prints it bare in ``frac`` and
``decimal``, as a JSON string in ``json``, and as a one-column table
headed ``value`` in ``csv`` and ``markdown``.  ``verify`` writes its
report as JSON, CSV or markdown; ``--format frac`` and ``decimal`` give
the JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import msums, series, special
from .coeffs import s2star_rec, s2star_scaled
from .exactnum import parse_rational
from .harmonicnums import harmonic, harmonic_t
from .reports import render

__all__ = ["main", "build_parser"]

_FORMATS = ("frac", "decimal", "csv", "json", "markdown")


def _decimal_str(value: float) -> str:
    return f"{float(value):.15g}"


def _exact_str(value: Fraction, format: str) -> str:
    if format != "decimal":
        try:
            return str(value)
        except ValueError:  # over Python's digit limit for str(int); Decimal has none
            import decimal
            numerator = str(decimal.Decimal(value.numerator))
            return numerator if value.denominator == 1 else f"{numerator}/{decimal.Decimal(value.denominator)}"
    try:
        approx = float(value)
        if abs(approx) >= sys.float_info.min or not value:
            return _decimal_str(approx)
    except OverflowError:
        pass
    import decimal  # on first use, for values beyond the normal range of a double
    context = decimal.Context(prec=15, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    quotient = context.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    return f"{quotient.normalize(context):.15g}"


def _value_doc(cell: str, format: str) -> str:
    """One value as a document: a JSON string, a one-column csv or markdown
    table headed ``value``, or the bare cell."""
    if format == "json":
        return json.dumps(cell) + "\n"
    if format in ("csv", "markdown"):
        return render(["value"], [[cell]], format)
    return cell + "\n"


def _table_cell(k: int, j: int, scaled: bool) -> Fraction:
    if scaled and j >= 1:
        return s2star_scaled(k, j)
    return s2star_rec(k, j)


def cmd_table(args) -> str:
    if args.kmax < 0 or args.jmax < 0:
        raise ValueError("table requires kmax >= 0 and jmax >= 0")
    header = ["k"] + [str(j) for j in range(args.jmax + 1)]
    rows = []
    for k in range(args.kmax + 1):
        cells = [str(k)]
        for j in range(args.jmax + 1):
            value = _table_cell(k, j, args.scaled)
            cells.append(_exact_str(value, args.format))
        rows.append(cells)
    if args.format == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], separators=(",", ":")) + "\n"
    if args.format == "frac":
        # plain whitespace-aligned rows without header
        widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
        lines = [" ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
        return "\n".join(lines) + "\n"
    return render(header, rows, "csv" if args.format == "decimal" else args.format)


def cmd_coeff(args) -> str:
    value = _table_cell(args.k, args.j, args.scaled)
    return _value_doc(_exact_str(value, args.format), args.format)


def _fraction(args, flag: str, double: bool = False) -> Optional[Fraction | float]:
    """The value of a fraction flag (``--z``, ``--x``, ``--t``, ``--r``),
    rounded to a float if ``double``, or None when it is not given; a zero
    denominator, or a double out of range, is a domain error that names
    the flag."""
    text = getattr(args, flag)
    if text is None:
        return None
    try:
        value = parse_rational(text)
        return float(value) if double else value
    except ZeroDivisionError:
        raise ValueError(f"--{flag} {text}: zero denominator") from None
    except OverflowError:
        raise ValueError(f"--{flag} {text}: too large for a double") from None


def cmd_harmonic(args) -> str:
    t = _fraction(args, "t")
    value = harmonic(args.n, args.k) if t is None else harmonic_t(args.n, args.k, t)
    return _value_doc(_exact_str(value, args.format), args.format)


def cmd_series(args) -> str:
    t, r = _fraction(args, "t"), _fraction(args, "r")
    result = series.intro_example(args.example, args.k, args.u, t=t, r=r, a=args.a, b=args.b)
    if args.example == "g":
        cells = [_decimal_str(c.real) for c in result]
    else:
        cells = [_exact_str(c, args.format) for c in result.coeffs]
    if args.format == "json":
        return json.dumps(cells, separators=(",", ":")) + "\n"
    if args.format in ("csv", "markdown"):
        return render(["n", "coeff"], ([str(n), c] for n, c in enumerate(cells)), args.format)
    return "\n".join(f"z^{n}: {c}" for n, c in enumerate(cells)) + "\n"


def _eval_result_doc(result: special.EvalResult, format: str) -> str:
    value = result.value.real if isinstance(result.value, complex) else result.value
    if format == "json":
        payload = {
            "value": value,
            "terms_used": result.terms_used,
            "last_term_magnitude": result.last_term_magnitude,
            "method": result.method,
            "domain_warning": result.domain_warning,
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return _value_doc(_decimal_str(value), format)


def cmd_polylog(args) -> str:
    z = _fraction(args, "z", double=True)
    result = special.li_new_series(args.s, z, args.terms)
    if result.domain_warning:
        print(f"warning: z = {args.z} is outside the coefficient series domain "
              f"|z/(1-z)| < 1; evaluated by method {result.method}", file=sys.stderr)
    return _eval_result_doc(result, args.format)


def cmd_zetastar(args) -> str:
    return _value_doc(_decimal_str(special.zeta_star(args.s, args.terms, args.method)), args.format)


def cmd_fourier(args) -> str:
    x = _fraction(args, "x", double=True)
    value = special.bernoulli_fourier(args.order, x, args.terms)
    return _value_doc(_decimal_str(value), args.format)


def cmd_msum(args) -> str:
    value = msums.m_value(args.k, args.d, args.n, args.source)
    return _value_doc(_exact_str(value, args.format), args.format)


def cmd_verify(args) -> tuple:
    # on first use: no other command needs the verification layer
    from . import audit

    format = args.format if args.format in ("json", "csv", "markdown") else "json"
    reports = audit.run_suite(args.suite)
    document = audit.emit_report(reports, format)
    if not document.endswith("\n"):
        document += "\n"
    code = 0 if audit.suite_passes(args.suite, reports) else 1
    return document, code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help may end by naming the verification
    suites.  They are read from audit, imported only when such help is
    printed."""

    def __init__(self, *args, list_suites: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.list_suites = list_suites

    def format_help(self) -> str:
        if self.list_suites:
            from .audit import suite_names
            self.epilog = "verification suites: " + ", ".join(suite_names())
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        list_suites=True,
        prog="zetaseries",
        description="Zeta-series transform coefficients, harmonic identities, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=_FORMATS, default="frac")
        p.add_argument("--output", default=None, help="write the document to this path")

    p = sub.add_parser("table", help="coefficient table")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--scaled", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_table, format="markdown")

    p = sub.add_parser("coeff", help="single coefficient")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--scaled", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("harmonic", help="exact (generalized) harmonic number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t", default=None, help="optional weight t for sum t^m/m^k")
    add_common(p)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("series", help="introduction example series")
    p.add_argument("--example", choices=list("abcdefg"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--t", default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("polylog", help="polylogarithm evaluation")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--terms", type=int, default=400)
    add_common(p)
    p.set_defaults(func=cmd_polylog, format="decimal")

    p = sub.add_parser("zetastar", help="alternating zeta value")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--terms", type=int, default=120)
    p.add_argument("--method", choices=("series", "closed", "harmonic", "euler"), default="series")
    add_common(p)
    p.set_defaults(func=cmd_zetastar, format="decimal")

    p = sub.add_parser("fourier", help="periodic Bernoulli function via its Fourier polylog form")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--terms", type=int, default=60)
    add_common(p)
    p.set_defaults(func=cmd_fourier, format="decimal")

    p = sub.add_parser("msum", help="remainder-term sum M_{k+1}^{(d)}(n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--source", choices=("def_unsigned", "def_signed", "alt"), default="def_unsigned")
    add_common(p)
    p.set_defaults(func=cmd_msum)

    p = sub.add_parser("verify", help="run an identity verification suite", list_suites=True)
    p.add_argument("--suite", required=True)
    add_common(p)
    p.set_defaults(func=cmd_verify, format="json")
    return parser


def _emit(document: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document)


def _is_number(token: str) -> bool:
    try:
        Fraction(token)
    except ZeroDivisionError:  # a number over zero: it binds, and its command refuses it
        pass
    except ValueError:
        return False
    return True


def _bind_negative_fractions(argv: Sequence[str]) -> list:
    """argparse reads a token like ``-1/2`` or ``-1e-3`` as an option, so
    bind each negative number ``Fraction`` parses to the flag before it
    (``--z -1/2`` becomes ``--z=-1/2``)."""
    bound = []
    for token in argv:
        if bound and bound[-1].startswith("--") and token.startswith("-") and _is_number(token):
            bound[-1] += "=" + token
        else:
            bound.append(token)
    return bound


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_negative_fractions(sys.argv[1:] if argv is None else argv))
    try:
        if args.func is cmd_verify:
            document, code = cmd_verify(args)
        else:
            document = args.func(args)
            code = 0
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        _emit(document, args.output)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
