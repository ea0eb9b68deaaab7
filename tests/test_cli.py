"""Command-line interface: documents, formats, exit codes, golden files."""

import csv
import io
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import check_pins
import pytest

from zetaseries.cli import _value_doc, build_parser, main
from zetaseries.coeffs import s2star_rec
from zetaseries.exactnum import parse_rational
from zetaseries.harmonicnums import harmonic
from zetaseries.special import li_new_series

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
def test_help_names_the_verification_suites(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 0
    assert capsys.readouterr().out.endswith(
        "\nverification suites: core, fourier, harmonic, msums, series, special\n")


def _parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


# one malformed line per command: a bad value, a missing or unknown flag,
# or an extra token, which the top parser refuses with its own usage line
_MALFORMED = {
    "table": ["table", "--kmax", "x"],
    "coeff": ["coeff", "--k", "x"],
    "harmonic": ["harmonic", "--n", "x"],
    "series": ["series", "--example", "z", "--k", "1", "--u", "1"],
    "polylog": ["polylog", "--s", "2"],
    "zetastar": ["zetastar", "--s", "1", "--method", "nope"],
    "fourier": ["fourier", "--order", "x", "--x", "1/4"],
    "msum": ["msum", "--k", "3", "--d", "1", "--n", "1", "extra"],
    "verify": ["verify", "--suite", "core", "--threads", "2"],
}


@pytest.mark.parametrize("command", sorted(_MALFORMED))
def test_one_command_parser_prints_what_the_full_parser_does(capsys, command):
    one = build_parser(command)
    help = _parse_exit(capsys, one, [command, "--help"])
    assert help[0] == 0 and help[1].startswith(f"usage: zetaseries {command} ")
    assert help == _parse_exit(capsys, build_parser(), [command, "--help"])
    malformed = _parse_exit(capsys, one, _MALFORMED[command])
    assert malformed[0] == 2 and malformed[2].startswith("usage: zetaseries")
    assert malformed == _parse_exit(capsys, build_parser(), _MALFORMED[command])
    # it holds no other command
    other = "coeff" if command == "table" else "table"
    assert _parse_exit(capsys, one, [other])[0] == 2


def test_coeff_fraction(capsys):
    code, out = run_cli(capsys, "coeff", "--k", "4", "--j", "3")
    assert code == 0
    assert out == "85/216\n"


def test_coeff_decimal_only_on_request(capsys):
    _, out = run_cli(capsys, "coeff", "--k", "3", "--j", "2")
    assert out.strip() == "-3/4"
    _, out = run_cli(capsys, "coeff", "--k", "3", "--j", "2", "--format", "decimal")
    assert out.strip() == "-0.75"
    _, out = run_cli(capsys, "coeff", "--k", "4", "--j", "3", "--format", "decimal")
    # 15 significant digits
    assert out.strip() == f"{85/216:.15g}"


def _rounds_to_15_digits(text, exact):
    mantissa = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    return len(mantissa) <= 15 and abs(Fraction(Decimal(text)) / exact - 1) < Fraction(1, 10**14)


@pytest.mark.parametrize(
    "argv, exact",
    [
        (["coeff", "--k", "4", "--j", "200"], lambda: s2star_rec(4, 200)),  # below the least double
        (["harmonic", "--n", "400", "--k", "-200"], lambda: harmonic(400, -200)),  # above the largest
        (["coeff", "--k", "2", "--j", "175"], lambda: s2star_rec(2, 175)),  # subnormal
    ],
    ids=["underflow", "overflow", "subnormal"],
)
def test_decimal_beyond_the_normal_range_of_a_double(capsys, argv, exact):
    code, out = run_cli(capsys, *argv, "--format", "decimal")
    assert code == 0 and _rounds_to_15_digits(out.strip(), exact())


def test_decimal_strips_trailing_zeros_like_g_format(capsys):
    _, out = run_cli(capsys, "coeff", "--k", "4", "--j", "200", "--format", "decimal")
    assert out == "-2.2944800192013e-374\n"


def test_decimal_table_has_no_underflowed_cells(capsys):
    code, out = run_cli(capsys, "table", "--kmax", "3", "--jmax", "180", "--format", "decimal")
    assert code == 0
    for k, row in enumerate(out.splitlines()[1:]):
        for j, cell in enumerate(row.split(",")[1:]):
            exact = s2star_rec(k, j)
            assert cell == "0" if exact == 0 else _rounds_to_15_digits(cell, exact)


def test_coeff_scaled(capsys):
    _, out = run_cli(capsys, "coeff", "--k", "6", "--j", "8", "--scaled")
    assert out.strip() == "3355156783231/497871360000"


def test_fraction_round_trip(capsys):
    for k, j in ((3, 2), (4, 3), (6, 8), (5, 7)):
        _, out = run_cli(capsys, "coeff", "--k", str(k), "--j", str(j))
        from zetaseries.coeffs import s2star_rec

        assert parse_rational(out.strip()) == s2star_rec(k, j)


def test_unicode_minus_parses(capsys):
    code, out = run_cli(capsys, "harmonic", "--n", "4", "--k", "1", "--t", "−1/2")
    assert code == 0
    direct = sum(Fraction(-1, 2) ** m / m for m in range(1, 5))
    assert parse_rational(out.strip()) == direct


@pytest.mark.parametrize("argv, code, printed, error", [
    (("polylog", "--s", "2", "--z", "-1/2"), 0, "-0.448414206923646\n", ""),
    (("harmonic", "--n", "4", "--t", "-1/2"), 0, "-77/192\n", ""),
    (("polylog", "--s", "2", "--z", "-1e-3"), 0, "-0.000999750111048652\n", ""),
    (("fourier", "--order", "2", "--x", "-7e-1"), 0, "-0.0216666666665802\n", ""),
    # parsed, then refused by the evaluator: {x} = 0.9 is outside its domain
    (("fourier", "--order", "2", "--x", "-1e-1"), 1, "", "error:"),
    # a zero denominator binds to its flag and is refused like --z 1/0
    (("polylog", "--s", "2", "--z", "-1/0"), 1, "", "error: --z -1/0: zero denominator\n"),
    (("harmonic", "--n", "4", "--t", "-1/0"), 1, "", "error: --t -1/0: zero denominator\n"),
], ids=["polylog", "harmonic", "polylog_exponent", "fourier_exponent", "fourier_exponent_outside",
        "polylog_zero_denominator", "harmonic_zero_denominator"])
def test_negative_fraction_after_its_flag(capsys, argv, code, printed, error):
    # argparse alone reads -1/2 or -1e-3 as an unknown option and exits 2
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == printed
    assert captured.err.startswith("error:") == (code == 1)
    assert captured.err.startswith(error)


@pytest.mark.parametrize("argv, flag", [
    (("polylog", "--s", "2", "--z", "1/0"), "--z"),
    (("fourier", "--order", "2", "--x", "1/0"), "--x"),
    (("series", "--example", "d", "--k", "1", "--u", "3", "--t", "1/0"), "--t"),
    (("series", "--example", "e", "--k", "1", "--u", "3", "--r", "1/0"), "--r"),
])
def test_zero_denominator_names_its_flag(capsys, argv, flag):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {argv[-1]}: zero denominator\n"


@pytest.mark.parametrize("argv, flag", [
    (("polylog", "--s", "2", "--z", "nan"), "--z"),
    (("polylog", "--s", "2", "--z", "abc"), "--z"),
    (("fourier", "--order", "2", "--x", "inf"), "--x"),
    (("harmonic", "--n", "4", "--t", "1/2/3"), "--t"),
    (("polylog", "--s", "2", "--z", "-nan"), "--z"),
    (("polylog", "--s", "2", "--z", "-inf"), "--z"),
])
def test_malformed_fraction_names_its_flag(capsys, argv, flag):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {argv[-1]}: not a fraction\n"


@pytest.mark.parametrize("argv, flag", [
    (("polylog", "--s", "2", "--z", "-1e400"), "--z"),
    (("fourier", "--order", "2", "--x", "1e400"), "--x"),
])
def test_fraction_too_large_for_a_double_names_its_flag(capsys, argv, flag):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {argv[-1]}: too large for a double\n"


def test_table_golden_byte_identical(capsys):
    _, out = run_cli(capsys, "table", "--kmax", "6", "--jmax", "8", "--format", "markdown")
    assert out.encode() == (GOLDEN / "table1.md").read_bytes()
    _, out = run_cli(capsys, "table", "--kmax", "6", "--jmax", "8", "--scaled", "--format", "markdown")
    assert out.encode() == (GOLDEN / "table2.md").read_bytes()


def test_table_single_cell_csv(capsys):
    _, out = run_cli(capsys, "table", "--kmax", "0", "--jmax", "0", "--format", "csv")
    assert out == "k,0\n0,1\n"


def test_table_rejects_negative(capsys):
    code, _ = run_cli(capsys, "table", "--kmax", "-1", "--jmax", "3")
    assert code == 1


def test_harmonic_value(capsys):
    _, out = run_cli(capsys, "harmonic", "--n", "4", "--k", "1")
    assert out.strip() == "25/12"


def test_series_example(capsys):
    _, out = run_cli(capsys, "series", "--example", "a", "--k", "1", "--u", "3")
    assert out == "z^0: 0\nz^1: 1\nz^2: 1/2\nz^3: 1/3\n"


def test_series_csv(capsys):
    _, out = run_cli(capsys, "series", "--example", "f", "--k", "1", "--u", "2", "--format", "csv")
    assert out == "n,coeff\n0,0\n1,1\n2,3/4\n"


def test_series_progression(capsys):
    code, out = run_cli(capsys, "series", "--example", "g", "--k", "1", "--u", "3",
                        "--a", "2", "--b", "1")
    assert code == 0
    values = [float(line.split(": ")[1]) for line in out.strip().splitlines()]
    assert values == pytest.approx([1.0, 1 / 3, 1 / 5, 1 / 7], abs=1e-10)


def test_polylog_value(capsys):
    code, out = run_cli(capsys, "polylog", "--s", "2", "--z", "-1")
    assert code == 0
    assert float(out) == pytest.approx(-math.pi**2 / 12, abs=1e-10)


def test_polylog_json_exposes_eval_metadata(capsys):
    _, out = run_cli(capsys, "polylog", "--s", "2", "--z", "0.5", "--format", "json")
    payload = json.loads(out)
    assert payload["domain_warning"] is True
    assert payload["method"] == "direct_fallback"


def test_polylog_pole_exits_one(capsys):
    code, _ = run_cli(capsys, "polylog", "--s", "2", "--z", "1")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("polylog", "--s", "2", "--z", "2"),
    ("fourier", "--order", "2", "--x", "1/10"),
    ("polylog", "--s", "2", "--z", "999999999/1000000000"),  # over the direct-sum term cap
])
def test_divergent_evaluation_exits_one(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("zetastar", "--s", "2", "--terms", "0"),
    ("polylog", "--s", "2", "--z", "-1/2", "--terms", "0"),
    ("fourier", "--order", "1", "--x", "1/4", "--terms", "0"),
    ("zetastar", "--s", "2", "--terms", "-5"),
])
def test_empty_sum_exits_one(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("series", "--example", "a", "--k", "-2", "--u", "4"),
    ("series", "--example", "d", "--k", "-1", "--u", "4", "--t", "1/2"),
    ("series", "--example", "f", "--k", "-3", "--u", "4"),
    ("series", "--example", "g", "--k", "-2", "--u", "4", "--a", "2", "--b", "1"),
])
def test_negative_order_exits_one(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: introduction examples require k >= 0\n"


@pytest.mark.parametrize("threads", ["0", "-3", "2"])
def test_thread_count_below_one_is_a_malformed_command_line(capsys, threads):
    # verify sweeps each suite sequentially and takes no thread count at all
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--suite", "core", "--threads", threads])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads" in captured.err


@pytest.mark.parametrize("format", ["frac", "decimal", "csv", "json", "markdown"])
def test_domain_warning_on_stderr_in_every_format(capsys, format):
    code = main(["polylog", "--s", "2", "--z", "0.9", "--format", format])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("warning:")
    assert "direct_fallback" in captured.err
    assert captured.out == _value_doc(li_new_series(2, 0.9, 400), format)
    main(["polylog", "--s", "2", "--z", "-1", "--format", format])
    assert capsys.readouterr().err == ""


def test_zetastar_value(capsys):
    code, out = run_cli(capsys, "zetastar", "--s", "1", "--terms", "80")
    assert code == 0
    assert float(out) == pytest.approx(math.log(2), abs=1e-6)


def test_zetastar_methods(capsys):
    _, closed = run_cli(capsys, "zetastar", "--s", "3", "--method", "closed")
    _, harm = run_cli(capsys, "zetastar", "--s", "3", "--method", "harmonic")
    _, euler = run_cli(capsys, "zetastar", "--s", "3", "--method", "euler", "--terms", "200")
    assert float(harm) == pytest.approx(float(closed), abs=1e-8)
    assert float(euler) == pytest.approx(float(closed), abs=5e-6)
    # every method goes through zeta_star, so s is checked once for all four
    assert main(["zetastar", "--s", "0", "--method", "harmonic"]) == 1
    assert capsys.readouterr().err == "error: zeta_star requires s >= 1\n"


def test_zetastar_series_past_j_1023(capsys):
    code, out = run_cli(capsys, "zetastar", "--s", "7", "--terms", "2500")
    _, closed = run_cli(capsys, "zetastar", "--s", "7", "--method", "closed")
    assert code == 0
    assert float(out) == pytest.approx(float(closed), abs=1e-12)


def test_fourier_value(capsys):
    _, out = run_cli(capsys, "fourier", "--order", "1", "--x", "5/4")
    assert float(out) == pytest.approx(-0.25, abs=1e-6)


def test_msum_value(capsys):
    _, out = run_cli(capsys, "msum", "--k", "3", "--d", "1", "--n", "1", "--source", "alt")
    assert out.strip() == "-1"
    _, out = run_cli(capsys, "msum", "--k", "3", "--d", "1", "--n", "1")
    assert out.strip() == "1"


def test_verify_core_exits_zero(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "core")
    assert code == 0
    payload = json.loads(out)
    assert all(entry["status"] != "fail" for entry in payload)


def test_verify_msums_report_only(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "msums")
    assert code == 0
    payload = json.loads(out)
    assert any(entry["status"] == "fail" for entry in payload)


def test_verify_unknown_suite_exits_two(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "bad")
    assert code == 2


def test_verify_csv_format(capsys):
    _, out = run_cli(capsys, "verify", "--suite", "fourier", "--format", "csv")
    assert out.splitlines()[0] == "id,params,status,residual"


# sha256 prefixes of whole CLI documents, one per command and --format,
# pinned in tests/pins.json
@pytest.mark.parametrize(
    "command,format",
    sorted((command, format) for command, digests in check_pins.PINS["document_sha256"].items() for format in digests),
)
def test_document_bytes_pinned(command, format):
    assert list(check_pins.document_mismatches(command, format)) == []


_ONE_VALUE_COMMANDS = {
    "coeff": (["coeff", "--k", "4", "--j", "5"], "12019/432000"),
    "harmonic": (["harmonic", "--n", "4"], "25/12"),
    "msum": (["msum", "--k", "3", "--d", "1", "--n", "3"], "251/216"),
    "zetastar": (["zetastar", "--s", "1", "--terms", "80"], "0.693147180559945"),
    "fourier": (["fourier", "--order", "2", "--x", "3/10"], "-0.0216666666665802"),
    "polylog": (["polylog", "--s", "2", "--z", "-1/2"], "-0.448414206923646"),
}


@pytest.mark.parametrize("command", sorted(_ONE_VALUE_COMMANDS))
def test_one_value_documents_parse(capsys, command):
    argv, cell = _ONE_VALUE_COMMANDS[command]
    assert run_cli(capsys, *argv) == (0, cell + "\n")
    if command != "polylog":  # polylog's json is its evaluation record
        _, out = run_cli(capsys, *argv, "--format", "json")
        assert json.loads(out) == cell and out.endswith("\n")
    _, out = run_cli(capsys, *argv, "--format", "csv")
    assert list(csv.reader(io.StringIO(out))) == [["value"], [cell]]
    _, out = run_cli(capsys, *argv, "--format", "markdown")
    assert out == f"| value |\n| --- |\n| {cell} |\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out = run_cli(capsys, "coeff", "--k", "4", "--j", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "85/216\n"


@pytest.mark.parametrize("argv", [("coeff", "--k", "2", "--j", "1"), ("verify", "--suite", "fourier")], ids=["coeff", "verify"])
def test_output_path_that_cannot_be_opened_exits_one(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code = main([*argv, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert not target.parent.exists()


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "zetaseries.cli", "coeff", "--k", "4", "--j", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "85/216"


README = pathlib.Path(__file__).parent.parent / "README.md"
README_VALUES = {"-pi^2/12": -math.pi**2 / 12, "ln 2": math.log(2)}  # read within 1e-12


def _readme_commands():
    """(argv, expected) for each line of the sh block under "Command line":
    expected is the text after "# ->", or None."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        name, *argv = shlex.split(command)
        assert name == "zetaseries", line
        comment = comment.strip()
        commands.append((argv, comment[2:].strip() if comment.startswith("->") else None))
    return commands


@pytest.mark.parametrize("argv, expected", [pytest.param(*command, id=" ".join(command[0])) for command in _readme_commands()])
def test_readme_command_prints_what_it_says(capsys, argv, expected):
    # every command the README shows runs and exits 0 (verify: its suite
    # passes); each "# -> value" is the printed value, exact values as text
    code, out = run_cli(capsys, *argv)
    assert code == 0
    if expected in README_VALUES:
        assert abs(float(out) - README_VALUES[expected]) <= 1e-12
    elif expected is not None:
        assert out.strip() == expected


# what a stdout cell of the README's exit-code table promises, by its first words
README_STDOUT = {
    "nothing": lambda out: out == "",
    "the fraction, in full": lambda out: re.fullmatch(r"-?[0-9]+/[0-9]+\n", out) is not None,
    "the value": lambda out: math.isfinite(float(out)),
    "the JSON report": lambda out: isinstance(json.loads(out), list),
}


def _readme_exit_codes():
    """(argv, code, stdout cell, stderr cell) for each row of the table
    under "### Exit codes"."""
    section = README.read_text(encoding="utf-8").split("\n### Exit codes\n", 1)[1]
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [(shlex.split(command.strip("` ")), int(code), out.strip(), err.strip()) for command, code, out, err in rows]


@pytest.mark.parametrize("argv, code, out, err", [pytest.param(*row, id=" ".join(row[0])) for row in _readme_exit_codes()])
def test_readme_exit_code_row(capsys, monkeypatch, tmp_path, argv, code, out, err):
    # each row runs as shown, --output paths relative to an empty directory
    monkeypatch.chdir(tmp_path)
    try:
        got = main(argv)
    except SystemExit as stop:  # argparse refuses a malformed command line
        got = stop.code
    captured = capsys.readouterr()
    assert got == code
    [check] = [check for words, check in README_STDOUT.items() if out.startswith(words)]
    assert check(captured.out)
    if err == "nothing":
        assert captured.err == ""
    else:
        assert captured.err.startswith(err.split("`")[1])


def test_readme_names_no_private_identifier():
    # the README states what users may rely on; private names belong to docstrings
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    assert [span for span in spans if re.search(r"(?<![\w-])_[A-Za-z]", span)] == []
