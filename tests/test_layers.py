"""Module layering: each module imports only the modules below it, the
package serves every public name, and the verification layer loads only
when it is used."""

import ast
import importlib
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import zetaseries
from zetaseries.audit import IdentitySpec
from zetaseries.exactnum import _binomial_sums
from zetaseries.msums import MSumSpec
from zetaseries.reports import IdentityReport
from zetaseries.special import EvalResult

# lowest first, as in the package docstring
LAYERS = ["exactnum", "stirling", "harmonicnums", "powerseries", "coeffs", "harmonic",
          "reports", "series", "special", "msums", "audit", "suite_core", "suite_harmonic",
          "suite_series", "suite_special", "suite_msums", "suite_fourier", "cli"]

PACKAGE = pathlib.Path(zetaseries.__file__).parent


def _imported_modules(path):
    names = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if match := re.match(r"from \.(\w+) import", line):
            names.append(match.group(1))
        elif match := re.match(r"from \. import (.+)", line):
            names += [name.strip() for name in match.group(1).split(",")]
    return names


def test_layer_list_names_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_each_module_imports_only_lower_layers():
    for rank, module in enumerate(LAYERS):
        for name in _imported_modules(PACKAGE / f"{module}.py"):
            assert name in LAYERS[:rank], f"{module} imports {name}, which is not below it"


def _defining_modules(name):
    return [path.stem for path in PACKAGE.glob("*.py")
            if re.search(rf"^def _?{name}\b", path.read_text(encoding="utf-8"), re.M)]


def test_one_scaled_row_kernel():
    # one c* recurrence, the integer table of coeffs, behind every route
    from zetaseries import coeffs, series, special
    from zetaseries.exactnum import SequenceTable
    special_source = (PACKAGE / "special.py").read_text(encoding="utf-8")
    assert not re.search(r"\b_scaled_numerators\b", special_source)
    # one loop sums every coefficient series: these two only pass it a row
    for function in (special.li_new_series, special.zeta_star):
        tree = ast.parse(inspect.getsource(function))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree)), function
    assert _defining_modules("scaled_numerators") == ["coeffs"]
    assert _defining_modules("numerator_row") == ["coeffs"]
    assert _defining_modules("s2star_row") == []
    assert not hasattr(coeffs, "_S2STAR_ROWS")
    assert "accumulate" not in (PACKAGE / "coeffs.py").read_text(encoding="utf-8")
    # special builds no rows of its own: each double row rounds the cells of
    # the integer row below it, and no dict of rows is rebuilt for longer J
    assert not hasattr(special, "_SCALED_ROWS")
    # a table's range has one reader, cells, and the classical row one
    # entry: li_classic_series passes the row _phi_inner_table reads
    assert not hasattr(SequenceTable, "prefix") and not hasattr(special, "_scaled_row")
    assert not re.search(r"\b_CLASSIC_ROWS\b", inspect.getsource(special.li_classic_series))
    readers = [node.name for node in ast.parse(special_source).body
               if isinstance(node, ast.FunctionDef) and "_CLASSIC_ROWS" in ast.unparse(node)]
    assert readers == ["_phi_inner_table"]
    for e in range(6):
        assert special._DOUBLE_ROWS[e]._below is coeffs._NUMERATORS[e]
        assert special._CLASSIC_ROWS[e]._below is coeffs._NUMERATORS[e]
    # the row format and both double-row families live in coeffs; special
    # imports the two families and reads no integer table of its own
    assert not re.search(r"_LCM|_NUMERATORS|SequenceTable|\._values", special_source)
    assert _defining_modules("double_rows") == ["coeffs"]
    assert special._DOUBLE_ROWS is coeffs._DOUBLE_ROWS and special._CLASSIC_ROWS is coeffs._CLASSIC_ROWS
    # every c*-weighted series reads one all-n row sum; series keeps no
    # diagonal builders of its own
    assert _defining_modules("binomial_row_sums") == ["coeffs"]
    assert series._binomial_row_sums is coeffs._binomial_row_sums
    series_source = (PACKAGE / "series.py").read_text(encoding="utf-8")
    for name in ("_diag_geom_pow", "_diag_geom_pow_sums", "_diag_exp_pow", "_diag_exp_shifted",
                 "_diagonal_sum", "_INTRO_DIAGONALS"):
        assert not hasattr(series, name)
        assert not re.search(rf"\b{name}\b", series_source), name


def test_one_kernel_per_exact_sum():
    # the rational-weighted and the c*-weighted sums each have one kernel,
    # and the M-sums import both rather than keep a Fraction loop
    coeffs, exactnum, harmonic, msums = (importlib.import_module(f"zetaseries.{name}")
                                         for name in ("coeffs", "exactnum", "harmonic", "msums"))
    assert _defining_modules("linear_combination") == ["exactnum"]
    assert _defining_modules("weighted_row_sum") == ["coeffs"]
    assert msums._linear_combination is harmonic._linear_combination is exactnum._linear_combination
    assert msums._weighted_row_sum is harmonic._weighted_row_sum is coeffs._weighted_row_sum
    for module in ("harmonic", "msums"):
        assert "Fraction(0)\n" not in (PACKAGE / f"{module}.py").read_text(encoding="utf-8"), module
    # the printed M-sum relations are tables of weights: both relation
    # functions return through one evaluator, whose right side is one
    # integer combination over one common denominator, and neither reads a
    # term itself
    kernel = ast.unparse(ast.parse(textwrap.dedent(inspect.getsource(msums._relation_sides))))
    assert kernel.count("_linear_combination(") == kernel.count("_over_common(") == 1
    for function in (msums.almost_linear_sides, msums.general_relation_sides):
        source = ast.unparse(ast.parse(textwrap.dedent(inspect.getsource(function))).body[0].body[1:])
        assert "return _relation_sides(" in source, function
        assert not re.search(r"\b(harmonic|m_value|M|H)\(", source), function


def test_each_transform_sums_beside_its_table():
    # the c* row sums live with the c* table, which alone applies the row's
    # sign; the S2 row sum lives with the S2 table, and the power sum and
    # the forward transform read it
    from zetaseries import series, stirling
    harmonic_source = (PACKAGE / "harmonic.py").read_text(encoding="utf-8")
    assert "(-1) ** (j - 1)" not in harmonic_source
    assert not re.search(r"\b(_scaled_numerators|_binomial_sums)\b", harmonic_source)
    assert _defining_modules("npow_forward") == ["stirling"]
    assert series.npow_forward is stirling.npow_forward
    power_sum = ast.unparse(ast.parse(textwrap.dedent(inspect.getsource(stirling.stirling2_power_sum))))
    assert "npow_forward(" in power_sum and not re.search(r"stirling2\(|falling_factorial", power_sum)
    # the identities module has two importers in the package
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py")) if "harmonic" in _imported_modules(path)]
    assert importers == ["__init__", "suite_harmonic"]


def test_one_pascal_rule_kernel(monkeypatch):
    # every exact binomial transform is the kernel of exactnum over one row;
    # the s >= 1 Lerch-style rows of special are the harmonic-polynomial
    # recurrence instead, and the s <= 0 rows the kernel over 1 - s terms
    coeffs, powerseries, special = (importlib.import_module(f"zetaseries.{name}")
                                    for name in ("coeffs", "powerseries", "special"))
    assert _defining_modules("binomial_sums") == ["exactnum"]
    assert [path.stem for path in PACKAGE.glob("*.py") if "row[1:]" in path.read_text(encoding="utf-8")] == ["exactnum"]
    imported = {alias.name for node in ast.walk(ast.parse((PACKAGE / "powerseries.py").read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "binomial" not in imported and "_binomial_sums" in imported
    for function in (coeffs._binomial_row_sums, powerseries.TruncSeries.binomial_transform):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree)), function
        assert "_binomial_sums" in ast.unparse(tree), function
    # the Lerch-style rows: no binomial coefficient and no Pascal sum for s >= 1
    recurrence = ast.unparse(ast.parse(textwrap.dedent(inspect.getsource(special._lerch_cells))))
    assert not re.search(r"_binomial_sums|comb|binomial", recurrence)
    lengths = []

    def counted(values):
        lengths.append(len(values))
        return _binomial_sums(values)

    monkeypatch.setattr(special, "_binomial_sums", counted)
    for s in (1, 3, 8, 0, -2):
        special._phi_general_table.__wrapped__(s, Fraction(3, 4), Fraction(-7, 2), 30)
    assert lengths == [1, 3]


def test_one_common_denominator_rule():
    # rationals as integer numerators over the lcm of their denominators:
    # written once, in exactnum, and called by each exact sum and product
    from zetaseries import exactnum, special
    from zetaseries.powerseries import TruncSeries
    assert _defining_modules("over_common") == ["exactnum"]
    assert [path.stem for path in PACKAGE.glob("*.py") if ".denominator for" in path.read_text(encoding="utf-8")] == ["exactnum"]
    for function in (exactnum._linear_combination, special._phi_general_table.__wrapped__, TruncSeries.__mul__):
        assert "_over_common(" in inspect.getsource(function), function
    # the series class is exact-only: no branch or idiom for another type
    source = (PACKAGE / "powerseries.py").read_text(encoding="utf-8")
    assert not re.search(r"\bcomplex\b|\bfloat\b|\*\*\s*0\b", source)
    assert not any("_zero_like" in path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py"))
    # one copy of the real-order weight of the harmonic sums
    harmonic_source = (PACKAGE / "harmonic.py").read_text(encoding="utf-8")
    assert harmonic_source.count("(j + 1) * (i + 2) ** -(r + 1)") == 1


def test_no_second_copies():
    # each of these calls the kernel that already computes its concept:
    # bernoulli_poly, harmonic_real, scale_arg, __add__ and the first-
    # difference scan of reports.compare
    from zetaseries import series, special, stirling
    from zetaseries.powerseries import TruncSeries
    for function in (stirling.faulhaber_sum, special.zeta_ref, TruncSeries.geometric, TruncSeries.__sub__,
                     series.dilog_functional_eq_check):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree)), function
    assert not hasattr(TruncSeries, "log_one_minus_z")
    # one table of closed forms, one way to build a reduced Fraction, the
    # math module's factorials, and one dispatcher of the zeta* methods
    from zetaseries import cli, coeffs, exactnum
    assert not hasattr(coeffs, "_HARMONIC_DENOM") and not hasattr(coeffs, "_harmonic_bracket")
    assert not hasattr(exactnum, "_FROM_COPRIME_INTS")
    slot_writers = [path.stem for path in PACKAGE.glob("*.py") if "._numerator" in path.read_text(encoding="utf-8")]
    assert slot_writers == ["exactnum"]
    from zetaseries import harmonicnums
    assert not hasattr(harmonicnums, "_inv_power")
    assert exactnum.factorial is math.factorial and exactnum.falling_factorial is math.perm
    assert not any(isinstance(node, ast.If) for node in ast.walk(ast.parse(inspect.getsource(cli.cmd_zetastar))))


def test_one_suite_registry_and_one_runner():
    # the suites are a tuple of names, each imported by name; one sweep
    # applies the exit-code policy; the paper's tables live in the one
    # suite that reads them; and the help epilog needs no parser class
    from zetaseries import audit, cli
    assert audit.suite_names() is audit._SUITES == ("core", "fourier", "harmonic", "msums", "series", "special")
    for name in ("suite_passes", "_suite", "_asserted", "_passes", "TABLE1", "TABLE2", "_TABLE3_T0",
                 "_TABLE3_T1", "table3_expression"):
        assert not hasattr(audit, name), name
    assert not hasattr(cli, "_Parser")
    tree = ast.parse((PACKAGE / "audit.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert "reports" in imported and not {"fractions", "harmonicnums"} & imported


AUDIT_NAMES = {"run_suite", "suite_names", "emit_report"}

# Loads the CLI in a fresh interpreter, runs commands through main and
# prints which of the heavy modules and suite modules are loaded after
# each step.
_COLD_SCRIPT = """
import contextlib, io, sys
from zetaseries.cli import main
HEAVY = ("zetaseries.audit", "json", "concurrent.futures", "logging", "dataclasses", "inspect")
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as stop:  # --help
            return stop.code
loaded = {}
for step, argv in [("coeff", ["coeff", "--k", "4", "--j", "5"]),
                   ("polylog", ["polylog", "--s", "2", "--z", "-1/2"]),
                   ("table", ["table", "--kmax", "2", "--jmax", "3"]),
                   ("coeff_help", ["coeff", "--help"]),
                   ("help", ["--help"]),
                   ("verify_help", ["verify", "--help"]),
                   ("verify", ["verify", "--suite", "fourier"])]:
    assert run(argv) == 0, argv
    loaded[step] = sorted(name for name in sys.modules if name in HEAVY or name.startswith("zetaseries.suite_"))
import json  # last, as the commands above must not load it
print(json.dumps(loaded))
"""


def test_cold_cli_loads_audit_only_for_verify():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", _COLD_SCRIPT], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    # no suite module, and no json: these commands write no json document
    assert loaded["coeff"] == loaded["polylog"] == loaded["table"] == loaded["coeff_help"] == []
    # help names the suites, read from audit, and builds none of them
    assert loaded["help"] == loaded["verify_help"] == ["zetaseries.audit"]
    # no thread pool, so no concurrent.futures or logging; one suite module
    assert loaded["verify"] == ["json", "zetaseries.audit", "zetaseries.suite_fourier"]


def test_every_public_name_resolves_to_its_home_object():
    star = {}
    exec("from zetaseries import *", star)
    modules = [importlib.import_module(f"zetaseries.{name}") for name in LAYERS]
    assert len(zetaseries.__all__) == 53
    for name in zetaseries.__all__:
        value = getattr(zetaseries, name)
        assert star[name] is value
        if name != "__version__":
            homes = [module for module in modules if name in getattr(module, "__all__", ())]
            assert len(homes) == 1 and getattr(homes[0], name) is value, (name, homes)
    assert zetaseries.harmonic is zetaseries.harmonicnums.harmonic
    assert AUDIT_NAMES <= set(dir(zetaseries))
    with pytest.raises(AttributeError):
        zetaseries.no_such_name


@pytest.mark.parametrize("record,field", [
    (IdentityReport("id", (), "exact_pass", "0"), "status"),
    (EvalResult(0.0, 1, 0.0, "direct"), "value"),
    (IdentitySpec("id", (), lambda point: (0, 0)), "tolerance"),
    (MSumSpec(3, 1, 0), "k"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
