"""Truncated power series, the zeta transform, and the worked examples."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaseries.exactnum import factorial
from zetaseries import powerseries, series
from zetaseries.harmonicnums import harmonic, harmonic_t
from zetaseries.powerseries import TruncSeries
from zetaseries.series import (
    dilog_functional_eq_check,
    exp_harmonic_series,
    intro_example,
    multisection,
    stirling1_egf_check,
    transform_forward,
    transform_zeta,
)

small_fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)
series_strategy = st.lists(small_fracs, min_size=3, max_size=8).map(TruncSeries)


# --- ring / calculus structure -------------------------------------------


@given(series_strategy, series_strategy)
def test_multiplication_commutes(f, g):
    assert (f * g).coeffs == (g * f).coeffs


@given(series_strategy, series_strategy, series_strategy)
def test_multiplication_distributes(f, g, h):
    n = min(f.order, g.order, h.order)
    lhs = f * (g + h)
    rhs = f * g + f * h
    for i in range(n + 1):
        assert lhs.coeff(i) == rhs.coeff(i)


@given(series_strategy)
def test_derivative_of_antiderivative(f):
    assert list(f.antiderivative().derivative().coeffs) == list(f.coeffs)


@given(series_strategy)
def test_inverse_round_trip(f):
    if f.coeff(0) == 0:
        with pytest.raises(ZeroDivisionError):
            f.inverse()
        return
    product = f * f.inverse()
    assert product.coeff(0) == 1
    for i in range(1, product.order + 1):
        assert product.coeff(i) == 0


@given(series_strategy)
@example(TruncSeries([Fraction(5)]))
@example(TruncSeries([Fraction(5), Fraction(-2, 3)]))
def test_exp_log_round_trip(f):
    # normalize to unit constant term so log is defined
    g = TruncSeries([Fraction(1)] + [f.coeff(i) for i in range(1, f.order + 1)])
    assert list(g.log().exp().coeffs) == list(g.coeffs)


def test_exp_matches_exponential_series():
    z = TruncSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * 8)
    assert list(z.exp().coeffs) == [Fraction(1, factorial(n)) for n in range(10)]


def compose(outer, inner):
    """outer(inner(z)) by Horner's rule in O(n^3): the oracle of
    ``binomial_transform``; inner must have zero constant term."""
    assert inner.coeff(0) == 0
    order = min(outer.order, inner.order)
    result, one = TruncSeries([Fraction(0)], order), TruncSeries([Fraction(1)], order)
    for c in reversed(outer.coeffs[: order + 1]):
        result = result * inner.truncate(order) + one.scale(c)
    return result


def test_compose_geometric():
    # 1/(1-z) composed with z/(1+z) gives 1+z exactly (all higher terms 0)
    outer = TruncSeries.geometric(1, 8)
    inner = TruncSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * 6) * TruncSeries.geometric(-1, 8)
    result = compose(outer, inner)
    assert result.coeff(0) == 1
    assert result.coeff(1) == 1
    assert all(result.coeff(n) == 0 for n in range(2, 9))


@given(st.lists(small_fracs, min_size=1, max_size=10).map(TruncSeries))
@example(TruncSeries([Fraction(3)]))
@example(TruncSeries([Fraction(-2), Fraction(1, 3), Fraction(5), Fraction(-7, 4)]))
def test_binomial_transform_is_compose_with_minus_z_over_one_minus_z(f):
    inner = TruncSeries([Fraction(0)] + [Fraction(-1)] * f.order)  # -z/(1-z)
    assert f.binomial_transform() == compose(f, inner)


@pytest.mark.parametrize("t", [Fraction(-1, 3), pytest.param(Fraction(1, 2), id="0.5")])
def test_geometric_is_repeated_products(t):
    powers = [t**0]
    while len(powers) < 9:
        powers.append(powers[-1] * t)
    assert TruncSeries.geometric(t, 8).coeffs == tuple(powers)


def test_sub_is_elementwise_difference_with_signed_zeros():
    a = [0, -0, Fraction(3, 2), -Fraction(0), Fraction(0), Fraction(-9, 4)]
    b = [-Fraction(0), -0, 0, Fraction(0), 2]
    int_a = [0, -0, 3, 0, -5, 1]
    int_b = [-0, 0, -0, 4, 0]
    for x, y in ((a, b), (int_a, int_b)):
        difference = (TruncSeries(x) - TruncSeries(y)).coeffs
        assert [repr(c) for c in difference] == [repr(p - q) for p, q in zip(x, y)]
    # a float zero carries a sign that an exact series cannot hold
    for zeros in ([0.0, -0.0], [complex(-0.0, 0.0)]):
        with pytest.raises(TypeError):
            TruncSeries(zeros)


def test_non_rational_coefficients_raise_type_error():
    with pytest.raises(TypeError):
        TruncSeries([Fraction(1), 0.5])
    with pytest.raises(TypeError):
        TruncSeries([1, 2j])
    with pytest.raises(TypeError):
        TruncSeries.geometric(0.5, 8)


def test_int_coefficients_stay_exact():
    f = TruncSeries([2, 1, 0])
    assert f.inverse().coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    assert TruncSeries([1, 3]).antiderivative().coeffs == (0, 1, Fraction(3, 2))
    for result in (f.inverse(), TruncSeries([1, 3]).antiderivative(), TruncSeries([0, 1, 0]).exp(), f * f):
        assert all(type(c) is Fraction for c in result.coeffs), result


def fraction_product(f, g):
    """The Fraction double loop that ``TruncSeries.__mul__`` was before
    its integer kernel: the oracle of that kernel."""
    order = min(f.order, g.order)
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(f.coeffs[: order + 1]):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs[: order - i + 1]):
            if b == 0:
                continue
            out[i + j] += a * b
    return out


mixed_series = st.lists(st.one_of(st.integers(-5, 5), small_fracs), min_size=1, max_size=9).map(TruncSeries)


@given(mixed_series, mixed_series)
@example(TruncSeries([0]), TruncSeries([Fraction(1, 2), 3, 0]))
@example(TruncSeries([Fraction(-2, 3)]), TruncSeries([Fraction(3, 4)]))
@example(TruncSeries([2, 0, 0, Fraction(1, 6)]), TruncSeries([Fraction(5, 4), 0, Fraction(-7, 10), 1, 9]))
def test_integer_kernel_matches_the_fraction_loop(f, g):
    got, want = (f * g).coeffs, fraction_product(f, g)
    assert all(type(c) is Fraction for c in got)
    assert [(c.numerator, c.denominator) for c in got] == [(c.numerator, c.denominator) for c in want]


_ONE_TWO_THREE = TruncSeries([1, 2, 3])


@pytest.mark.parametrize("operation, expected", [
    pytest.param(lambda s: s.truncate(1), TruncSeries([1, 2]), id="truncate-to-a-lower-order"),
    pytest.param(lambda s: s == 1, False, id="eq-with-an-int"),
    pytest.param(lambda s: hash(s) == hash(TruncSeries([1, 2, Fraction(3)])), True, id="equal-series-equal-hashes"),
    pytest.param(lambda s: s + 1, TypeError, id="add-an-int"),
    pytest.param(lambda s: s - 1, TypeError, id="sub-an-int"),
    pytest.param(lambda s: s * Fraction(-2, 3), _ONE_TWO_THREE.scale(Fraction(-2, 3)), id="scalar-on-the-right"),
    pytest.param(lambda s: Fraction(-2, 3) * s, _ONE_TWO_THREE.scale(Fraction(-2, 3)), id="scalar-on-the-left"),
    pytest.param(lambda s: 3 * s, _ONE_TWO_THREE.scale(3), id="int-on-the-left"),
    pytest.param(lambda s: TruncSeries([Fraction(5, 2)]).derivative(), TruncSeries([0]), id="derivative-of-order-0"),
])
def test_series_operations_at_their_edges(operation, expected):
    if expected is TypeError:
        with pytest.raises(TypeError):
            operation(_ONE_TWO_THREE)
    else:
        assert operation(_ONE_TWO_THREE) == expected


def test_series_builds_on_the_powerseries_class():
    assert series.TruncSeries is powerseries.TruncSeries
    assert "TruncSeries" not in series.__all__


# --- the transform --------------------------------------------------------


def test_transform_zeta_geometric():
    for k in (1, 2, 3):
        result = transform_zeta(TruncSeries.geometric(1, 25), k)
        assert result.coeff(0) == 0
        for n in range(1, 26):
            assert result.coeff(n) == Fraction(1, n**k)


def test_transform_zeta_exponential():
    result = transform_zeta(TruncSeries.exp_z(20), 2)
    for n in range(1, 21):
        assert result.coeff(n) == Fraction(1, n**2 * factorial(n))


def test_transform_forward_power_weighting():
    f = TruncSeries([Fraction(0)] + [Fraction(1, n) for n in range(1, 16)])
    result = transform_forward(f, 3)
    for n in range(1, 16):
        assert result.coeff(n) == Fraction(n**3, n)


def test_transform_round_trip():
    G = TruncSeries.geometric(1, 18)
    back = transform_forward(transform_zeta(G, 2), 2)
    for n in range(1, 19):
        assert back.coeff(n) == G.coeff(n)


# --- worked introduction examples ----------------------------------------


def test_intro_example_a_matches_display():
    result = intro_example("a", 1, 3)
    assert [result.coeff(n) for n in range(4)] == [0, 1, Fraction(1, 2), Fraction(1, 3)]


def test_intro_example_c_matches_display():
    result = intro_example("c", 2, 2)
    assert [result.coeff(n) for n in range(3)] == [0, 1, Fraction(5, 4)]


def test_intro_example_f_matches_display():
    result = intro_example("f", 1, 2)
    assert [result.coeff(n) for n in range(3)] == [0, 1, Fraction(3, 4)]


def test_intro_examples_direct_sums():
    u = 24
    for k in range(6):
        a = intro_example("a", k, u)
        b = intro_example("b", k, u)
        c = intro_example("c", k, u)
        f = intro_example("f", k, u)
        for n in range(1, u + 1):
            assert a.coeff(n) == Fraction(1, n**k)
            assert b.coeff(n) == Fraction(1, n**k * factorial(n))
            assert c.coeff(n) == harmonic(n, k)
            assert f.coeff(n) == harmonic(n, k) / factorial(n)
        for t in (Fraction(1, 3), Fraction(-2)):
            d = intro_example("d", k, u, t=t)
            assert all(d.coeff(n) == harmonic_t(n, k, t) for n in range(1, u + 1))
        for r in (Fraction(1, 2), Fraction(3)):
            e = intro_example("e", k, u, r=r)
            for n in range(1, u + 1):
                assert e.coeff(n) == sum(r**m / (m**k * factorial(m)) for m in range(1, n + 1))
        assert exp_harmonic_series(k, u) == f


def test_intro_example_g_progression():
    for a, b, s in ((2, 0, 1), (2, 1, 2), (3, 1, 1), (4, 3, 2)):
        result = intro_example("g", s, 10, a=a, b=b)
        want0 = 1.0 / b**s if b > 0 else 0.0
        assert abs(result[0] - want0) < 1e-10
        for n in range(1, 11):
            assert abs(result[n] - 1.0 / (a * n + b) ** s) < 1e-10


def test_intro_example_rejects_bad_input():
    with pytest.raises(ValueError):
        intro_example("z", 1, 3)
    with pytest.raises(ValueError):
        intro_example("a", 1, 0)
    with pytest.raises(ValueError):
        intro_example("g", 1, 3, a=1, b=0)
    with pytest.raises(ValueError):
        intro_example("d", 1, 3)  # missing t
    with pytest.raises(ValueError):
        intro_example("e", 1, 3)  # missing r
    with pytest.raises(ValueError):
        intro_example("ab", 1, 3)


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_intro_examples_reject_negative_order(k):
    scalars = {"d": {"t": Fraction(1, 2)}, "e": {"r": Fraction(3)}, "g": {"a": 2, "b": 1}}
    for example_id in "abcdefg":
        with pytest.raises(ValueError, match="k >= 0"):
            intro_example(example_id, k, 4, **scalars.get(example_id, {}))
    with pytest.raises(ValueError, match="k >= 0"):
        exp_harmonic_series(k, 4)


def test_each_transform_builds_one_kernel_row(monkeypatch):
    coeffs, harmonic_module = (importlib.import_module(f"zetaseries.{name}") for name in ("coeffs", "harmonic"))
    kernel, builds = coeffs._scaled_numerators, []

    def counted(k, J):
        builds.append((k, J))
        return kernel(k, J)

    monkeypatch.setattr(coeffs, "_scaled_numerators", counted)
    calls = [
        lambda: transform_zeta(TruncSeries.geometric(1, 50), 3),
        lambda: harmonic_module.harmonic_via_rec(50, 2),
        lambda: exp_harmonic_series(2, 20),
        lambda: intro_example("d", 2, 20, t=Fraction(-1, 3)),
        lambda: intro_example("e", 2, 20, r=Fraction(1, 2)),
        lambda: intro_example("g", 2, 10, a=3, b=1),
    ] + [lambda example_id=example_id: intro_example(example_id, 2, 20) for example_id in "abcf"]
    for call in calls:
        builds.clear()
        call()
        assert len(builds) == 1


# --- multisection ---------------------------------------------------------


@settings(deadline=None)
@given(st.integers(2, 6), st.data())
def test_multisection_extracts_residue_class(a, data):
    b = data.draw(st.integers(0, a - 1))
    F = TruncSeries([Fraction(n**2 - 3 * n + 1, 3) for n in range(20)])
    picked = multisection(F, a, b)
    for n in range(20):
        want = float(F.coeff(n)) if n % a == b else 0.0
        assert abs(picked[n] - want) < 1e-10


def test_multisection_partition_of_unity():
    F = TruncSeries([Fraction(1, n + 1) for n in range(16)])
    total = [x + y + z for x, y, z in zip(multisection(F, 3, 0), multisection(F, 3, 1), multisection(F, 3, 2))]
    for n in range(16):
        assert abs(total[n] - float(F.coeff(n))) < 1e-12


# --- classical series identities -----------------------------------------


def test_dilog_functional_eq_exact_to_order_40():
    passed, witness = dilog_functional_eq_check(40)
    assert passed, witness


def test_stirling1_egf_corrected_form():
    for k in range(5):
        lhs, rhs = stirling1_egf_check(k, 12)
        assert lhs.coeffs == rhs.coeffs


def test_stirling1_egf_printed_sign_fails_for_odd_k():
    lhs, rhs = stirling1_egf_check(3, 8)
    assert lhs.coeffs != rhs.scale(Fraction(-1)).coeffs


def test_exp_harmonic_series_coefficients():
    for k in (1, 2, 3):
        result = exp_harmonic_series(k, 18)
        for n in range(19):
            assert result.coeff(n) == harmonic(n, k) / factorial(n)
