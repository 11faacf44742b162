import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disopt.bounds import (
    AssumptionError,
    BoundReport,
    admissible_step_window,
    constants,
    contraction_factor,
    lemma1_bound,
    neighborhood_size,
    quantizer_admissible,
    recursion_bound,
    subgradient_admissible,
)

REL = 1e-12


def test_constants_golden_values():
    assert constants(1.0, 1.0) == pytest.approx((1.0, 1.0), rel=REL)
    assert constants(0.5, 1.5) == pytest.approx((1.0, 0.75), rel=REL)
    assert constants(0.5, 2.0) == pytest.approx((0.8, 0.8), rel=REL)


def test_constants_reject_bad_moduli():
    with pytest.raises(AssumptionError):
        constants(0.0, 1.0)
    with pytest.raises(AssumptionError):
        constants(2.0, 1.0)


def test_contraction_factor_examples():
    assert contraction_factor(0.5, 1.0) == pytest.approx(1.5, rel=REL)
    assert contraction_factor(2.0 / 3.0, 1.0) == pytest.approx(1.0, rel=REL)
    assert contraction_factor(0.7, 1.0) == pytest.approx(0.9, rel=REL)


def test_step_window_golden_values():
    w = admissible_step_window(1.0, 1.0)
    assert w.lower == pytest.approx(0.6666666666666666, rel=REL)
    assert w.upper == pytest.approx(1.0, rel=REL)
    assert not w.empty and w.contains(0.7) and not w.contains(0.5)

    w = admissible_step_window(1.0, 100.0)
    assert w.lower == pytest.approx(0.33666666666666667, rel=REL)
    assert w.upper == pytest.approx(0.019801980198019802, rel=REL)
    assert w.empty and not w.contains(0.1)

    w = admissible_step_window(2.0, 2.0)
    assert w.lower == pytest.approx(0.3333333333333333, rel=REL)
    assert w.upper == pytest.approx(0.5, rel=REL)


def test_quantizer_admissibility_thresholds():
    # the one-bit threshold is 2/sqrt(6) = 0.816496580927726
    assert not quantizer_admissible(1.0, 1)
    assert quantizer_admissible(0.8164965809277260, 1)
    assert quantizer_admissible(0.5, 1)
    assert quantizer_admissible(1.0, 2)
    with pytest.raises(ValueError):
        quantizer_admissible(0.0, 1)
    with pytest.raises(ValueError):
        quantizer_admissible(1.0, 0)


def test_subgradient_admissibility_threshold():
    # 1/(sqrt(6)*0.7) = 0.5832118435198044
    assert subgradient_admissible(0.5832118435198044, 0.7)
    assert not subgradient_admissible(0.5832118435198045, 0.7)
    with pytest.raises(ValueError):
        subgradient_admissible(1.0, 0.0)


def test_lemma1_bound_golden_values():
    assert lemma1_bound(0.25, 0.1, 0.7, 10) == pytest.approx(
        0.7170062761231591, rel=REL
    )
    assert lemma1_bound(0.015625, 1.0, 0.7, 10) == pytest.approx(
        0.14318912319027588, rel=REL
    )


def test_lemma1_bound_warns_above_unit_step():
    with pytest.warns(RuntimeWarning, match="alpha"):
        lemma1_bound(0.25, 0.1, 1.5, 10)
    with pytest.raises(ValueError):
        lemma1_bound(-0.1, 0.1, 0.7, 10)


def test_lemma1_bound_takes_an_array_of_rounds():
    deltas = np.array([0.0, 0.015625, 0.25, 0.5])
    bounds = lemma1_bound(deltas, 1.0, 0.7, 10)
    assert bounds.tolist() == [lemma1_bound(float(d), 1.0, 0.7, 10) for d in deltas]
    with pytest.raises(ValueError):
        lemma1_bound(np.array([0.25, -0.1]), 0.1, 0.7, 10)
    # one warning per call, however many rounds it covers
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lemma1_bound(deltas, 1.0, 1.5, 10)
    assert [str(w.message) for w in caught] == [
        "projection-error bound assumes alpha <= 1, got 1.5"
    ]


def test_neighborhood_golden_values():
    assert neighborhood_size(1.0, 1, 0.0, 0.0, 0.0) == pytest.approx(
        1.224744871391589, rel=REL
    )
    assert neighborhood_size(1.0, 5, 0.1, 0.7, 1.0) == pytest.approx(
        1.980061644025674, rel=REL
    )


def test_neighborhood_finite_at_the_largest_bit_count():
    # 2**1023 * Lbar * alpha overflowed when multiplied before dividing
    assert neighborhood_size(1.0, 1023, 4.0, 0.7, 1.0) == pytest.approx(
        math.sqrt(6) * 4.0 * 0.7 + math.sqrt(3), rel=REL
    )


def test_recursion_bound_golden_values():
    # rho = 3 - 3*0.9 = 0.3, so k=2 contributes rho^1 * 10 = 3
    assert recursion_bound(2, 10.0, 0.9, 1.0, 0.0, 1, 0.0, 0.0) == pytest.approx(
        2.999999999999999, rel=REL
    )
    assert recursion_bound(0, 2.5, 0.7, 1.0, 1.0, 5, 0.1, 0.5) == pytest.approx(
        3.6140362402412354, rel=REL
    )
    # after many iterations only the floor term remains
    assert recursion_bound(10**6, 1.0, 0.7, 1.0, 1.0, 5, 0.1, 0.5) == pytest.approx(
        1.1140362402412354, rel=REL
    )


def test_recursion_bound_warns_outside_hypothesis():
    with pytest.warns(RuntimeWarning, match=">= 1"):
        recursion_bound(5, 1.0, 0.1, 1.0, 1.0, 1, 0.1, 0.0)
    with pytest.warns(RuntimeWarning, match="< 0"):
        recursion_bound(5, 1.0, 1.5, 1.0, 1.0, 1, 0.1, 0.0)


def test_bound_report_is_consistent():
    report = BoundReport(
        mu=1.0,
        lipschitz=1.0,
        alpha=0.7,
        bits=5,
        interval_length=1.0,
        subgrad_bound=0.5,
        attack_norm=0.0,
        initial_error=1.0,
    )
    assert report.c1 == 1.0 and report.c2 == 1.0
    assert report.rho == pytest.approx(0.9, rel=REL)
    flags = report.admissible
    assert flags["alpha_in_window"] and flags["quantizer"] and flags["subgradient"]
    assert flags["contractive"] and flags["alpha_le_1"]
    # per_k_bound is monotone nonincreasing and tends to the floor
    floor = report.per_k_bound(10**6)
    values = [report.per_k_bound(k) for k in range(0, 200)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] >= floor
    d = report.to_dict()
    assert d["contraction_factor"] == report.rho
    assert d["step_window"]["empty"] is False


@pytest.mark.parametrize("alpha", [0.7, 0.1, 1.5])
def test_bound_column_is_per_k_bound_over_every_k(alpha):
    # alpha 0.1 and 1.5 make the factor non-contractive (rho >= 1, rho < 0)
    report = BoundReport(
        mu=1.0,
        lipschitz=1.0,
        alpha=alpha,
        bits=3,
        interval_length=1.0,
        subgrad_bound=0.5,
        attack_norm=0.2,
        initial_error=0.8,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        column = report.bound_column(200)
    assert column == [report.per_k_bound(k) for k in range(201)]
    # the public bound, bit for bit (c2 = 1 at mu = L = 1); only it warns
    with warnings.catch_warnings():
        if alpha != 0.7:
            warnings.simplefilter("ignore", RuntimeWarning)
        public = [recursion_bound(k, 0.8, alpha, 1.0, 1.0, 3, 0.5, 0.2) for k in range(201)]
    assert column == public
    with pytest.raises(ValueError, match=">= 0"):
        report.per_k_bound(-1)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(min_value=1e-3, max_value=10, allow_nan=False),
    ratio=st.floats(min_value=1.0, max_value=100, allow_nan=False),
)
def test_c1_c2_product_at_most_one(mu, ratio):
    c1, c2 = constants(mu, mu * ratio)
    assert c1 * c2 <= 1.0 + 1e-12
    assert 0 < c2 <= (mu + mu * ratio) / 2 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=16),
    length=st.floats(min_value=1e-3, max_value=10, allow_nan=False),
)
def test_neighborhood_shrinks_with_more_bits(bits, length):
    coarse = neighborhood_size(length, bits, 0.1, 0.5, 0.0)
    fine = neighborhood_size(length, bits + 1, 0.1, 0.5, 0.0)
    assert fine <= coarse + 1e-15
