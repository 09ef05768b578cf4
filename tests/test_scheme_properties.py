"""Property tests of scheme.divide_smoothing against Fraction long division."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv.exactalg import LaurentPoly
from dualsubdiv.scheme import NotDivisible, divide_smoothing
from oracle import monomial, power, smoothing_factor

ARITIES = st.integers(min_value=2, max_value=7)
ORDERS = st.integers(min_value=0, max_value=4)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def polys(min_size=0, max_size=8):
    # zero entries on purpose; the constructor trims the ends
    entry = st.one_of(st.just(F(0)), RATIONALS)
    return st.builds(
        LaurentPoly,
        st.integers(min_value=-6, max_value=6),
        st.lists(entry, min_size=min_size, max_size=max_size),
    )


def nonzero_polys():
    return polys(min_size=1).filter(lambda p: not p.is_zero)


def outcome(divide, poly, m, order):
    try:
        return divide(poly, m, order)
    except NotDivisible:
        return NotDivisible


@settings(max_examples=200, deadline=None)
@given(polys(), ARITIES, ORDERS)
def test_division_undoes_multiplication(b, m, order):
    assert divide_smoothing(b * power(smoothing_factor(m), order), m, order) == b


@settings(max_examples=150, deadline=None)
@given(nonzero_polys(), ARITIES, st.integers(min_value=1, max_value=4), st.data())
def test_one_perturbed_coefficient_is_not_divisible(b, m, order, data):
    product = b * power(smoothing_factor(m), order)
    exponent = data.draw(
        st.integers(min_value=product.degree_low - 2, max_value=product.degree_high + 2)
    )
    delta = data.draw(RATIONALS.filter(bool))
    with pytest.raises(NotDivisible):
        divide_smoothing(product + monomial(exponent, delta), m, order)


@settings(max_examples=300, deadline=None)
@given(polys(max_size=30), ARITIES, ORDERS)
def test_agrees_with_long_division(poly, m, order):
    # mostly not divisible, and often narrower than the divisor
    assert outcome(divide_smoothing, poly, m, order) == outcome(
        oracle.divide_smoothing, poly, m, order
    )


@settings(max_examples=150, deadline=None)
@given(nonzero_polys(), nonzero_polys(), ARITIES, ORDERS, ORDERS)
def test_agrees_with_long_division_on_partial_factors(b, c, m, have, order):
    # B s^have C divides by s^order exactly when have >= order, mostly
    poly = b * power(smoothing_factor(m), have) * c
    assert outcome(divide_smoothing, poly, m, order) == outcome(
        oracle.divide_smoothing, poly, m, order
    )
