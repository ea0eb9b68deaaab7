"""Double-precision sums that the pinned reports depend on are taken left
to right in an explicit loop: since Python 3.12, ``sum()`` of floats
compensates rounding, so it would change their bits (and the report
hashes) with the interpreter version."""

import ast
import inspect

import pytest

from zetaseries import audit
from zetaseries.harmonicnums import harmonic_real
from zetaseries.special import zeta_ref


def left_to_right(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


def calls_sum(function) -> bool:
    tree = ast.parse(inspect.getsource(function).strip())
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum" for node in ast.walk(tree))


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5, 2.0, 3.25])
def test_harmonic_real_sums_left_to_right(rho):
    for n in (0, 1, 10, 1000):
        assert harmonic_real(n, rho).hex() == left_to_right(m ** (-rho) for m in range(1, n + 1)).hex()


@pytest.mark.parametrize("s", range(2, 12))
def test_zeta_ref_sums_left_to_right(s):
    x = 1000.0
    want = left_to_right(n ** (-float(s)) for n in range(1, 1000))
    want += x ** (1 - s) / (s - 1) + x ** (-s) / 2 + s * x ** (-s - 1) / 12
    want -= s * (s + 1) * (s + 2) * x ** (-s - 3) / 720
    assert zeta_ref(s).hex() == want.hex()


def test_hurwitz_direct_reference_sums_left_to_right():
    (spec,) = [spec for spec in audit._build("special") if spec.id == "special.hurwitz_direct"]
    for p in spec.points:
        direct = spec.sides(**p)[1]
        want = left_to_right(p["z"] ** n / (p["alpha"] * n + p["beta"]) ** p["s"] for n in range(1, 400))
        assert direct.hex() == want.hex()


def test_no_float_sum_calls_sum():
    hurwitz = next(spec.sides for spec in audit._build("special") if spec.id == "special.hurwitz_direct")
    for function in (harmonic_real, zeta_ref, hurwitz):
        assert not calls_sum(function), function
