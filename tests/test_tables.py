"""The growable exact tables: no recursion with the index, thread safety
and the memory of a Stirling strip, checked in cold interpreters, and the
edge cases of the public functions built on them."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import zetaseries
from zetaseries.coeffs import s2star_rec
from zetaseries.exactnum import _RUN
from zetaseries.harmonicnums import harmonic
from zetaseries.stirling import bernoulli_number, stirling1_unsigned, stirling2

SRC = str(pathlib.Path(zetaseries.__file__).resolve().parents[1])


def run_cold(*args, timeout=120):
    """Run a fresh interpreter that imports this package; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize(
    "argv, value",
    [
        (["coeff", "--k", "4", "--j", "1000"], lambda: s2star_rec(4, 1000)),
        (["coeff", "--k", "1500", "--j", "2"], lambda: s2star_rec(1500, 2)),
        (["harmonic", "--n", "5000"], lambda: harmonic(5000)),
    ],
    ids=["coeff-4-1000", "coeff-1500-2", "harmonic-5000"],
)
def test_cli_reaches_large_indices_from_a_cold_start(argv, value):
    assert run_cold("-m", "zetaseries.cli", *argv) == f"{value()}\n"


@pytest.mark.parametrize("format", ["frac", "csv", "json", "markdown"])
@pytest.mark.parametrize("k, j", [(300, 40), (4, 5000)])
def test_cli_prints_fractions_beyond_the_int_digit_limit(k, j, format):
    # a numerator or denominator of more than 4,300 digits made these exit 1
    printed = run_cold("-m", "zetaseries.cli", "coeff", "--k", str(k), "--j", str(j), "--format", format)
    if format == "json":
        cell = json.loads(printed)
    elif format == "csv":
        header, (cell,) = csv.reader(io.StringIO(printed))
        assert header == ["value"]
    elif format == "markdown":
        cell = printed.removeprefix("| value |\n| --- |\n| ").removesuffix(" |\n")
    else:
        cell = printed.removesuffix("\n")
    numerator, denominator = (int(Decimal(part)) for part in cell.split("/"))
    assert max(len(part) for part in cell.split("/")) > 4300
    assert Fraction(numerator, denominator) == s2star_rec(k, j)


GUARD = r"""
import json, math, sys, tracemalloc
from fractions import Fraction

sys.setrecursionlimit(150)
from zetaseries.suite_core import TABLE1
from zetaseries import stirling
from zetaseries.coeffs import s2star_rec, s2star_sum
from zetaseries.harmonicnums import harmonic
from zetaseries.stirling import stirling1_unsigned, stirling2

checks = {}
tracemalloc.start()
s1 = stirling1_unsigned(1500, 5)
peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
s2 = stirling2(1500, 5)
# cells held by each column object, the columns of S1 and of S2
strips = [[len(column._values) for column in table._values]
          for table in (stirling._STIRLING1, stirling._STIRLING2)]

# x (x+1) ... (x+1499) truncated to degree 5
rising = [0, 1, 0, 0, 0, 0]
for m in range(1, 1500):
    rising = [m * rising[0]] + [m * rising[d] + rising[d - 1] for d in range(1, 6)]
checks["stirling1(1500, 5)"] = s1 == rising[5]
checks["stirling2(1500, 5)"] = s2 == sum(
    (-1) ** i * math.comb(5, i) * (5 - i) ** 1500 for i in range(6)) // math.factorial(5)

# a far cell read first, the printed table after it
far = s2star_rec(12, 400)
checks["c*(12, 400) first"] = far == s2star_sum(12, 400)
checks["TABLE1 after it"] = all(
    s2star_rec(k, j) == value for k, row in TABLE1.items() for j, value in enumerate(row))
checks["c*(300, 40)"] = s2star_rec(300, 40) == s2star_sum(300, 40)
checks["c*(4, 3000)"] = s2star_rec(4, 3000) == s2star_sum(4, 3000)
lcm = math.lcm(*range(1, 5001))
checks["H_5000"] = harmonic(5000) == Fraction(sum(lcm // m for m in range(1, 5001)), lcm)
print(json.dumps({"checks": checks, "peak_mb": peak_mb, "strips": strips}))
"""


def test_large_indices_need_no_recursion_and_a_small_strip():
    out = json.loads(run_cold("-c", GUARD))
    assert out["checks"] == {name: True for name in out["checks"]}
    assert len(out["checks"]) == 7
    assert out["peak_mb"] < 50
    # S(1500, 5) builds columns 0..5 from their first nonzero cell, cell
    # 1495 of column 5 and at most one run past it, and no cell of column 6
    for strip in out["strips"]:
        assert [k for k, cells in enumerate(strip) if cells] == list(range(6))
        assert all(1496 <= cells <= 1496 + _RUN for cells in strip[:6])


THREADED = r"""
import json, random, sys, threading
from zetaseries.coeffs import s2star_rec
from zetaseries.harmonicnums import harmonic
from zetaseries.stirling import bernoulli_number, stirling1_unsigned, stirling2

FUNCS = {"c": s2star_rec, "s1": stirling1_unsigned, "s2": stirling2, "h": harmonic, "b": bernoulli_number}
GRID = ([("c", k, j) for k in range(14) for j in range(70)]
        + [(name, n, k) for name in ("s1", "s2") for n in range(70) for k in range(n + 2)]
        + [("h", n, r) for r in range(-2, 5) for n in range(150)]
        + [("b", n) for n in range(60)])
results = {}

def read_all(seed):
    grid = GRID[:]
    random.Random(seed).shuffle(grid)
    results[seed] = {key: str(FUNCS[key[0]](*key[1:])) for key in grid}

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=read_all, args=(seed,)) for seed in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert len(results) == 8 and all(r == results[0] for r in results.values())
print(json.dumps([[*key, value] for key, value in sorted(results[0].items())]))
"""


def test_eight_threads_on_cold_tables_agree_with_one():
    funcs = {"c": s2star_rec, "s1": stirling1_unsigned, "s2": stirling2,
             "h": harmonic, "b": bernoulli_number}
    rows = json.loads(run_cold("-c", THREADED))
    assert len(rows) == 14 * 70 + 2 * sum(n + 2 for n in range(70)) + 7 * 150 + 60
    for *key, value in rows:
        assert str(funcs[key[0]](*key[1:])) == value, key


def test_edge_cases_of_the_tables():
    assert s2star_rec(-1, 3) == s2star_rec(3, -1) == 0
    assert stirling2(-1, 0) == stirling1_unsigned(0, -1) == 0
    assert stirling2(3, 5) == stirling1_unsigned(3, 5) == 0
    assert isinstance(s2star_rec(5, 0), Fraction) and isinstance(harmonic(0), Fraction)
    with pytest.raises(ValueError):
        harmonic(-1)
    with pytest.raises(ValueError):
        bernoulli_number(-1)
