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

import pytest

import zetaseries
from zetaseries.audit import IdentitySpec
from zetaseries.msums import MSumSpec
from zetaseries.reports import IdentityReport
from zetaseries.special import EvalResult

# lowest first, as in the package docstring
LAYERS = ["exactnum", "stirling", "harmonicnums", "powerseries", "coeffs", "harmonic",
          "reports", "series", "special", "msums", "audit", "cli"]

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
    assert _defining_modules("binomial_row_sums") == ["harmonic"]
    series_source = (PACKAGE / "series.py").read_text(encoding="utf-8")
    for name in ("_diag_geom_pow", "_diag_geom_pow_sums", "_diag_exp_pow", "_diag_exp_shifted",
                 "_diagonal_sum", "_INTRO_DIAGONALS"):
        assert not hasattr(series, name)
        assert not re.search(rf"\b{name}\b", series_source), name


def test_one_kernel_per_exact_sum():
    # the rational-weighted and the c*-weighted sums each have one kernel,
    # and the M-sums import both rather than keep a Fraction loop
    exactnum, harmonic, msums = (importlib.import_module(f"zetaseries.{name}")
                                 for name in ("exactnum", "harmonic", "msums"))
    assert _defining_modules("linear_combination") == ["exactnum"]
    assert _defining_modules("weighted_row_sum") == ["harmonic"]
    assert msums._linear_combination is harmonic._linear_combination is exactnum._linear_combination
    assert msums._weighted_row_sum is harmonic._weighted_row_sum
    for module in ("harmonic", "msums"):
        assert "Fraction(0)\n" not in (PACKAGE / f"{module}.py").read_text(encoding="utf-8"), module


def test_one_pascal_rule_kernel():
    # every binomial transform is the kernel of exactnum over one row
    # zetaseries.harmonic is the function harmonicnums.harmonic, so the
    # identities module is reached through importlib
    harmonic, powerseries, special = (importlib.import_module(f"zetaseries.{name}")
                                      for name in ("harmonic", "powerseries", "special"))
    assert _defining_modules("binomial_sums") == ["exactnum"]
    assert [path.stem for path in PACKAGE.glob("*.py") if "row[1:]" in path.read_text(encoding="utf-8")] == ["exactnum"]
    imported = {alias.name for node in ast.walk(ast.parse((PACKAGE / "powerseries.py").read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "binomial" not in imported and "_binomial_sums" in imported
    for function in (harmonic._binomial_row_sums, special._phi_general_table.__wrapped__,
                     powerseries.TruncSeries.binomial_transform):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree)), function
        assert "_binomial_sums" in ast.unparse(tree), function


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


AUDIT_NAMES = {"run_suite", "suite_names", "suite_passes", "emit_report"}

# Loads the CLI in a fresh interpreter, runs commands through main and
# prints which of the heavy modules are loaded after each step.
_COLD_SCRIPT = """
import contextlib, io, json, sys
from zetaseries.cli import main
HEAVY = ("zetaseries.audit", "concurrent.futures", "logging", "dataclasses", "inspect")
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
                   ("verify", ["verify", "--suite", "fourier"])]:
    assert run(argv) == 0, argv
    loaded[step] = [name for name in HEAVY if name in sys.modules]
print(json.dumps(loaded))
"""


def test_cold_cli_loads_audit_only_for_verify():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", _COLD_SCRIPT], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded["coeff"] == loaded["polylog"] == loaded["table"] == loaded["coeff_help"] == []
    assert "zetaseries.audit" in loaded["verify"]


def test_every_public_name_resolves_to_its_home_object():
    star = {}
    exec("from zetaseries import *", star)
    modules = [importlib.import_module(f"zetaseries.{name}") for name in LAYERS]
    assert len(zetaseries.__all__) == 54
    for name in zetaseries.__all__:
        value = getattr(zetaseries, name)
        assert star[name] is value
        if name != "__version__":
            homes = [module for module in modules if name in getattr(module, "__all__", ())]
            assert homes and all(getattr(module, name) is value for module in homes), name
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
