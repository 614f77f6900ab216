import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import (
    InvalidFamily,
    NonIntegralSides,
    Overflow,
    bounds_hypercube,
    bounds_integral,
    bounds_torus2,
    bounds_torusd,
    scenario_bounds,
)
from gridres.bounds import SANDWICH_SLACK, torus2_lower_branches


def test_torus2_square_example():
    report = bounds_torus2(4, 4)
    assert report.applicable
    assert abs(report.lower - 1.0 / 24.0) <= 1e-12
    assert abs(report.upper - (math.log(4) / (2 * math.pi) + 1.0 / 12.0 + 1.0)) <= 1e-12
    assert report.contains(0.2682291666666667) is True


def test_torus2_ratio_branch_dominates():
    report = bounds_torus2(4, 40)
    assert abs(report.lower - (10.0 / 12.0 - 1.0 / 24.0)) <= 1e-12


def test_torus2_inapplicable():
    report = bounds_torus2(3, 5)
    assert not report.applicable
    assert report.lower is None and report.upper is None
    assert report.contains(1.0) is None


def test_torusd_example():
    report = bounds_torusd(4, 3)
    assert report.applicable
    assert abs(report.lower - 1.0 / 12.0) <= 1e-12
    expected_upper = 2.0 * 1.25**4 + (3.0 / 16.0) * (1.0 / 3.0 + 2.0 * math.log(4) / math.pi)
    assert abs(report.upper - expected_upper) <= 1e-12
    assert abs(report.upper - 5.1108) <= 5e-4


def test_torusd_limit_shape():
    # the upper bound settles toward 8/(d+1) as the side grows
    upper_big = bounds_torusd(10**6, 3).upper
    assert abs(upper_big - 2.0) <= 1e-4


def test_bounds_past_the_float_range():
    # M^-(d-2) underflows to 0 where M^(d-2) overflowed; the ratio M2/M1
    # is taken before any float conversion of the sides.
    report = bounds_torusd(4, 600)
    assert math.isfinite(report.lower) and math.isfinite(report.upper)
    big = 10**400
    assert bounds_torus2(big, big).lower == max(torus2_lower_branches(big, big))
    assert math.isfinite(bounds_torus2(big, big).upper)
    # a bound that itself leaves the float range raises the typed error
    for call in (lambda: bounds_torusd(4, 5000), lambda: bounds_torus2(4, big), lambda: bounds_torusd(big, 3)):
        with pytest.raises(Overflow, match="leaves the float range"):
            call()


def test_torusd_inapplicable():
    assert not bounds_torusd(4, 2).applicable
    assert not bounds_torusd(3, 4).applicable


def test_hypercube_examples():
    report = bounds_hypercube(2)
    assert (report.lower, report.upper) == (1.0 / 6.0, 2.0 / 3.0)
    assert report.contains(5.0 / 16.0) is True
    report10 = bounds_hypercube(10)
    assert abs(report10.lower - 1.0 / 22.0) <= 1e-15
    assert abs(report10.upper - 2.0 / 11.0) <= 1e-15
    assert not bounds_hypercube(1).applicable


def test_contains_allows_the_slack_and_no_more():
    report = bounds_hypercube(2)  # 1/6 .. 2/3
    assert report.contains(0.5) is True
    edge = report.lower - SANDWICH_SLACK
    assert report.contains(edge) is True
    assert report.contains(math.nextafter(edge, -math.inf)) is False
    assert report.contains(math.nextafter(report.upper + SANDWICH_SLACK, math.inf)) is False
    assert bounds_hypercube(1).contains(0.5) is None


# Each integer argument of the five bound functions, with an integer it accepts.
INTEGER_ARGUMENTS = [
    ("M1", lambda x: bounds_torus2(x, 64), 4),
    ("M2", lambda x: bounds_torus2(4, x), 64),
    ("M", lambda x: bounds_torusd(x, 3), 4),
    ("d", lambda x: bounds_torusd(4, x), 3),
    ("d", bounds_hypercube, 2),
    ("d", bounds_integral, 3),
    ("N", lambda x: scenario_bounds(1, 4, x), 64),
]


@pytest.mark.parametrize("name, call, good", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("bad", [float, lambda good: good + 0.5, lambda good: True, lambda good: math.nan])
def test_bound_integer_arguments_refuse_floats_bools_and_nan(name, call, good, bad):
    with pytest.raises(InvalidFamily, match=f"^{name} must be an integer"):
        call(bad(good))


@pytest.mark.parametrize("name, call, good", INTEGER_ARGUMENTS)
def test_bound_integer_arguments_accept_numpy_integers(name, call, good):
    report = call(np.int64(good))
    assert report.applicable
    assert report == call(good)
    assert type(report.params[name]) is int


def test_integral_examples():
    report = bounds_integral(3)
    assert (report.lower, report.upper) == (1.0 / 12.0, 4.0 / 3.0)
    report8 = bounds_integral(8)
    assert (report8.lower, report8.upper) == (1.0 / 32.0, 0.5)
    assert not bounds_integral(2).applicable


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_lower_never_exceeds_upper(m1, m2):
    report = bounds_torus2(m1, m2)
    if report.applicable:
        assert report.lower <= report.upper
        assert report.lower == max(torus2_lower_branches(m1, m2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=12))
def test_torusd_lower_never_exceeds_upper(m, d):
    report = bounds_torusd(m, d)
    if report.applicable:
        assert report.lower <= report.upper


def test_lower_branch_structure():
    # aspect-ratio branch wins for strongly unequal sides
    for m1, m2 in ((4, 80), (4, 128), (5, 100), (8, 160)):
        first, second = torus2_lower_branches(m1, m2)
        assert first >= second
    # logarithmic branch wins for large equal sides; the crossover for
    # square tori sits near M = 51, so 64 and up is safely past it
    for m in (64, 128):
        first, second = torus2_lower_branches(m, m)
        assert second > first
    first, second = torus2_lower_branches(16, 16)
    assert first > second  # still on the aspect-ratio side of the crossover


def test_scenario1_example():
    report = scenario_bounds(1, 4, 64)
    assert report.applicable
    assert abs(report.lower - (64.0 / 192.0 - 1.0 / 24.0)) <= 1e-12
    assert abs(report.upper - (64.0 / 192.0 + math.log(64) / (2 * math.pi) + 1.0)) <= 1e-12
    assert report.params["M1"] == 4 and report.params["M2"] == 16


def test_scenario3_example():
    report = scenario_bounds(3, 1, 64)
    assert report.applicable
    quarter = math.log(64) / (4 * math.pi)
    assert abs(report.lower - (quarter - 1.0 / 12.0 - 0.5)) <= 1e-12
    assert abs(report.upper - (quarter + 1.0 / 12.0 + 1.0)) <= 1e-12


def test_scenario2_gates():
    # sides 2 and 4 are integers, but the short side fails the >= 4 gate
    report = scenario_bounds(2, 3, 8)
    assert not report.applicable
    assert "2" in report.reason
    # sides 4 and 16 at N = 64 pass every gate
    report = scenario_bounds(2, 3, 64)
    assert report.applicable
    assert report.params["M1"] == 4 and report.params["M2"] == 16


def test_scenario_nonintegral_sides():
    with pytest.raises(NonIntegralSides):
        scenario_bounds(2, 3, 10)
    with pytest.raises(NonIntegralSides):
        scenario_bounds(3, 2, 10)
    with pytest.raises(NonIntegralSides):
        scenario_bounds(1, 3, 10)


def test_scenario1_c_gate():
    report = scenario_bounds(1, 3, 27)
    assert not report.applicable
    assert "c >= 4" in report.reason


def test_scenario_argument_errors():
    with pytest.raises(ValueError):
        scenario_bounds(4, 1, 16)
    with pytest.raises(ValueError):
        scenario_bounds(1, 4, 0)
    for scenario in (True, 1.0):
        with pytest.raises(InvalidFamily, match="^scenario must be an integer"):
            scenario_bounds(scenario, 4, 64)


@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("c", [0, -1, -4.0, math.nan, math.inf])
def test_scenario_refuses_c_not_finite_and_positive(scenario, c):
    with pytest.raises(ValueError, match="c must be finite and positive"):
        scenario_bounds(scenario, c, 64)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_scenario_overflow(scenario):
    with pytest.raises(Overflow, match="leaves the float range"):
        scenario_bounds(scenario, 2, 10**400)
    with pytest.raises(Overflow, match="leaves the float range"):
        scenario_bounds(scenario, 10**400, 64)
