"""Command-line front end.

Commands expose the coefficient tables (``table``, ``coeff``), exact
harmonic numbers (``harmonic``), the truncated-series constructions
(``series``), the numeric evaluators (``polylog``, ``zetastar``,
``fourier``), the Section-style remainder sums (``msum``), and the
identity verification suites (``verify``).

A process builds the subparser of its own command only (all of them for
``--help``, no command or an unknown one) and loads ``json`` only to
write a JSON document.  The help of the full parser and of ``verify``
ends by naming the verification suites, so building either loads
:mod:`audit`; only ``verify`` runs a suite, and loads its one module
(see :mod:`audit`).

Exit codes: 0 success, 1 domain error in the requested evaluation or an
``--output`` path that cannot be opened, 2 unknown verification suite or
a malformed command line (such as ``coeff --k x``).  A polylog point
evaluated by a fallback method prints a ``warning:`` line naming it on
stderr, in every format.  Negative numbers may follow their flag
directly (``--z -1/2``, ``--z -1e-3``); a fraction flag that is no
fraction, or has a zero denominator, is a domain error naming the flag.
Exact values print as fractions, in full at any number of digits,
unless ``--format decimal`` is given: 15 significant digits, rounded
from the exact value beyond a double's range.  A command printing one value
(``coeff``, ``harmonic``, ``msum``, ``zetastar``, ``fourier``, and
``polylog`` but for its json) prints it bare in ``frac`` and
``decimal``, as a JSON string in ``json``, and as a one-column table
headed ``value`` in ``csv`` and ``markdown``.  ``verify`` writes its
report as JSON, CSV or markdown; ``--format frac`` and ``decimal`` give
the JSON report.
"""

from __future__ import annotations

import argparse
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


def _json_doc(value) -> str:
    import json  # on first use: only the json documents need it

    return json.dumps(value, separators=(",", ":")) + "\n"


def _value_doc(cell: str, format: str) -> str:
    """One value as a document: a JSON string, a one-column csv or markdown
    table headed ``value``, or the bare cell."""
    if format == "json":
        return _json_doc(cell)
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
        return _json_doc([dict(zip(header, row)) for row in rows])
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
    rounded to a float if ``double``, or None when it is not given; a
    malformed fraction, a zero denominator or a double out of range is a
    domain error that names the flag."""
    text = getattr(args, flag)
    if text is None:
        return None
    try:
        value = parse_rational(text)
        return float(value) if double else value
    except ZeroDivisionError:
        raise ValueError(f"--{flag} {text}: zero denominator") from None
    except ValueError:
        raise ValueError(f"--{flag} {text}: not a fraction") from None
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
        return _json_doc(cells)
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
        return _json_doc(payload)
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
    reports, passed = audit.verify_suite(args.suite)
    document = audit.emit_report(reports, format)
    if not document.endswith("\n"):
        document += "\n"
    return document, 0 if passed else 1


def _suites_line() -> str:
    from .audit import suite_names  # loads audit, and no suite module

    return "verification suites: " + ", ".join(suite_names())


_INT = {"type": int, "required": True}

# each command: its help line, the function that runs it, its default
# format and its own flags, in help order; --format and --output follow
_COMMANDS = {
    "table": ("coefficient table", cmd_table, "markdown", {
        "--kmax": {"type": int, "default": 6},
        "--jmax": {"type": int, "default": 8},
        "--scaled": {"action": "store_true"},
    }),
    "coeff": ("single coefficient", cmd_coeff, "frac", {
        "--k": _INT,
        "--j": _INT,
        "--scaled": {"action": "store_true"},
    }),
    "harmonic": ("exact (generalized) harmonic number", cmd_harmonic, "frac", {
        "--n": _INT,
        "--k": {"type": int, "default": 1},
        "--t": {"default": None, "help": "optional weight t for sum t^m/m^k"},
    }),
    "series": ("introduction example series", cmd_series, "frac", {
        "--example": {"choices": list("abcdefg"), "required": True},
        "--k": _INT,
        "--u": _INT,
        "--t": {"default": None},
        "--r": {"default": None},
        "--a": {"type": int, "default": None},
        "--b": {"type": int, "default": None},
    }),
    "polylog": ("polylogarithm evaluation", cmd_polylog, "decimal", {
        "--s": _INT,
        "--z": {"required": True},
        "--terms": {"type": int, "default": 400},
    }),
    "zetastar": ("alternating zeta value", cmd_zetastar, "decimal", {
        "--s": _INT,
        "--terms": {"type": int, "default": 120},
        "--method": {"choices": ("series", "closed", "harmonic", "euler"), "default": "series"},
    }),
    "fourier": ("periodic Bernoulli function via its Fourier polylog form", cmd_fourier, "decimal", {
        "--order": _INT,
        "--x": {"required": True},
        "--terms": {"type": int, "default": 60},
    }),
    "msum": ("remainder-term sum M_{k+1}^{(d)}(n)", cmd_msum, "frac", {
        "--k": _INT,
        "--d": _INT,
        "--n": _INT,
        "--source": {"choices": ("def_unsigned", "def_signed", "alt"), "default": "def_unsigned"},
    }),
    "verify": ("run an identity verification suite", cmd_verify, "json", {
        "--suite": {"required": True},
    }),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the name of a command, it holds that
    command's subparser only, which parses that command's lines as the full
    parser does; given anything else, or nothing, it holds all of them."""
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # the help of the full parser and of verify ends by naming the suites; a
    # one-command parser never prints its own help
    parser = argparse.ArgumentParser(
        prog="zetaseries",
        description="Zeta-series transform coefficients, harmonic identities, and verification suites.",
        epilog=_suites_line() if len(names) > 1 else None,
    )
    # one command's usage line still names every command, as the errors of
    # the top parser print it (such as "unrecognized arguments")
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help, func, format, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help, epilog=_suites_line() if name == "verify" else None)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=_FORMATS, default="frac")
        p.add_argument("--output", default=None, help="write the document to this path")
        p.set_defaults(func=func, format=format)
    return parser


def _emit(document: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document)


def _bind_negative_fractions(argv: Sequence[str]) -> list:
    """argparse reads a token like ``-1/2``, ``-1e-3`` or ``-inf`` as an
    option, so bind each token that starts with a single ``-``, but
    ``-h``, to the ``--flag`` before it (``--z -1/2`` becomes
    ``--z=-1/2``); the flag's own parsing then accepts or refuses it."""
    bound = []
    for token in argv:
        if bound and bound[-1].startswith("--") and token.startswith("-") and not token.startswith("--") and token != "-h":
            bound[-1] += "=" + token
        else:
            bound.append(token)
    return bound


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _bind_negative_fractions(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
