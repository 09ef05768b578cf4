from fractions import Fraction as F

import pytest

from dualsubdiv import catalog
from dualsubdiv.exactalg import LaurentPoly
from dualsubdiv.scheme import (
    Mask,
    NotDivisible,
    factor_smoothing,
    limit_support,
    shift_parameter,
    support_interval,
    symbol,
)

from oracle import power, smoothing_factor, sub_symbol, sub_symbols, value_at_one


def delta_mask():
    return Mask(2, 0, [2])


def test_mask_trims_and_validates():
    m = Mask(3, -2, [0, 1, 2, 0])
    assert (m.offset, m.coeffs) == (-1, (F(1), F(2)))
    with pytest.raises(ValueError):
        Mask(1, 0, [1])
    with pytest.raises(ValueError):
        Mask(3, 0, [0, 0])


def test_symbol_delta_scheme():
    assert symbol(delta_mask()) == LaurentPoly.constant(1)


def test_symbol_cantor():
    expected = LaurentPoly(-1, [F(1, 6), F(1, 3), F(1, 3), F(1, 6)])
    assert symbol(catalog.cantor_mask()) == expected


def test_symbol_ternary_sums():
    a = symbol(catalog.ternary_cubic_mask())
    assert value_at_one(a) == 1
    assert a.derivative_at_one() == F(1, 2)


def test_sub_symbols_delta():
    subs = sub_symbols(delta_mask())
    assert subs[0] == LaurentPoly.constant(1)
    assert subs[1].is_zero


def test_sub_symbols_cantor_values_at_one():
    for s in sub_symbols(catalog.cantor_mask()):
        assert value_at_one(s) == F(1, 3)


def test_sub_symbols_sum_to_symbol():
    masks = [
        catalog.cantor_mask(),
        catalog.ternary_cubic_mask(),
        catalog.quinary_family_mask(F(-7, 5)),
        Mask(4, -2, [1, 2, F(1, 3), -1, 5, 0, 2]),  # no symmetry at all
    ]
    for m in masks:
        total = LaurentPoly.zero()
        for s in sub_symbols(m):
            total = total + s
        assert total == symbol(m)


def test_sub_symbol_index_periodicity():
    m = catalog.ternary_cubic_mask()
    for n in range(-3, 7):
        assert sub_symbol(m, n) == sub_symbol(m, n + 3)
    # oracle: definition with an unreduced index gives the same polynomial
    n = 5  # stands for residue 2
    direct = LaurentPoly.from_terms(
        (3 * k + n, m.coefficient(3 * k + n) / 3)
        for k in range(-5, 5)
        if m.coefficient(3 * k + n) != 0
    )
    assert sub_symbol(m, n) == direct


def test_ternary_submasks_mirror_each_other():
    m = catalog.ternary_cubic_mask()
    residue = lambda r: [m.coefficient(k) for k in range(-6, 8) if k % 3 == r and m.coefficient(k) != 0]
    assert residue(0) == list(reversed(residue(1)))


def test_classify_quinary_w0_dual_after_trim():
    # boundary entries vanish at w=0; trimming must keep the dual window
    mask = catalog.quinary_family_mask(0)
    assert (mask.k_left, mask.k_right) == (-7, 8)
    assert shift_parameter(mask) == F(1, 2)


def test_factor_smoothing_order_zero_is_symbol():
    m = catalog.ternary_cubic_mask()
    assert factor_smoothing(m, 0) == symbol(m)


def test_factor_smoothing_ternary():
    b = factor_smoothing(catalog.ternary_cubic_mask(), 4)
    expected = LaurentPoly(
        -6, [F(13, 48), F(-37, 24), F(85, 48), F(85, 48), F(-37, 24), F(13, 48)]
    )
    assert b == expected
    with pytest.raises(NotDivisible):
        factor_smoothing(catalog.ternary_cubic_mask(), 5)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_factor_smoothing_reconstructs(d):
    m = catalog.ternary_cubic_mask()
    b = factor_smoothing(m, d)
    assert b * power(smoothing_factor(3), d) == symbol(m)


def test_factor_smoothing_delta_not_divisible():
    with pytest.raises(NotDivisible):
        factor_smoothing(delta_mask(), 1)


def test_shift_parameter_values():
    assert shift_parameter(catalog.cantor_mask()) == F(1, 2)
    assert shift_parameter(Mask(2, -1, [1, 2, 1])) == 0
    assert shift_parameter(catalog.quaternary_quartic_mask()) == F(1, 2)


@pytest.mark.parametrize(
    "m,k_star,expected",
    [
        (3, 7, F(13, 4)),
        (5, 10, F(19, 8)),
        (3, 2, F(3, 4)),
    ],
)
def test_support_interval(m, k_star, expected):
    lo, hi = support_interval(m, k_star)
    assert (lo, hi) == (-expected, expected)


def test_support_interval_width_law():
    for m in range(2, 7):
        for k_star in range(1, 12):
            lo, hi = support_interval(m, k_star)
            assert hi - lo == F(2 * k_star - 1, m - 1)


def test_limit_support_cantor():
    assert limit_support(catalog.cantor_mask()) == (F(-3, 4), F(3, 4))
