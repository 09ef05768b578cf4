from fractions import Fraction as F

import pytest

from dualsubdiv.exactalg import (
    InfeasibleSystem,
    LaurentPoly,
    RatMatrix,
    rat,
    rref_solve,
)

from oracle import identity, matmul, matvec, monomial, power, shift


def test_rat_parsing_and_formatting_round_trip():
    for text in ["3/4", "-1/16", "5", "0", "-107/1296", "137/144"]:
        q = rat(text)
        assert str(q) == text
        assert rat(str(q)) == q


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.1)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_rat_rejects_zero_denominators(text):
    with pytest.raises(ValueError, match="zero denominator"):
        rat(text)


def test_laurent_normalization_trims_zero_ends():
    p = LaurentPoly(-2, [0, 1, 2, 0, 0])
    assert p.offset == -1
    assert p.coeffs == (F(1), F(2))
    assert LaurentPoly(5, [0, 0]).is_zero


def test_laurent_mul_identity():
    one = LaurentPoly.constant(1)
    p = LaurentPoly(-1, [F(1, 2), 1, 1, F(1, 2)])
    assert one * p == p
    assert p * one == p


def _convolve(a, b):
    # brute-force oracle, independent of LaurentPoly internals
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_smoothing_factor_fourth_power_coefficients():
    third = [F(1, 3)] * 3
    coeffs = [F(1)]
    for _ in range(4):
        coeffs = _convolve(coeffs, third)
    p = power(LaurentPoly(0, [F(1, 3)] * 3), 4)
    assert list(p.coeffs) == coeffs
    assert p.coefficient(0) == F(1, 81)
    assert p.coefficient(4) == F(19, 81)


# b-coefficients of the ternary scheme's smoothing quotient
B1, B2, B3 = F(85, 48), F(-37, 24), F(13, 48)

TERNARY_COEFFS = [
    F(13, 1296), F(-11, 648), F(-1, 16), F(-107, 1296), F(179, 1296),
    F(9, 16), F(137, 144), F(137, 144), F(9, 16), F(179, 1296),
    F(-107, 1296), F(-1, 16), F(-11, 648), F(13, 1296),
]


def test_ternary_symbol_factors_through_smoothing_quotient():
    smoothing4 = power(LaurentPoly(0, [F(1, 3)] * 3), 4)
    quotient = LaurentPoly(-6, [B3, B2, B1, B1, B2, B3])
    rebuilt = smoothing4 * quotient
    symbol = LaurentPoly(-6, TERNARY_COEFFS) * F(1, 3)
    assert rebuilt == symbol


@pytest.mark.parametrize(
    "p,q",
    [
        (LaurentPoly(-1, [1, 2]), LaurentPoly(3, [F(1, 2), 0, 5])),
        (LaurentPoly(0, [F(1, 3)] * 3), LaurentPoly(-6, [B3, B2, B1, B1, B2, B3])),
        (LaurentPoly(-4, [1, -1, 1]), LaurentPoly(-4, [1, -1, 1])),
    ],
)
def test_laurent_mul_commutes_and_degrees_add(p, q):
    left = p * q
    assert left == q * p
    assert left.degree_low == p.degree_low + q.degree_low
    assert left.degree_high == p.degree_high + q.degree_high


def test_derivative_at_one():
    assert LaurentPoly.zero().derivative_at_one() == 0
    cantor_symbol = LaurentPoly(-1, [F(1, 6), F(1, 3), F(1, 3), F(1, 6)])
    assert cantor_symbol.derivative_at_one() == F(1, 2)
    ternary_symbol = LaurentPoly(-6, TERNARY_COEFFS) * F(1, 3)
    # oracle: direct exact summation of k * a_k / m
    expected = sum(
        (k * c for k, c in zip(range(-6, 8), TERNARY_COEFFS)), F(0)
    ) / 3
    assert ternary_symbol.derivative_at_one() == expected == F(1, 2)


def test_divide_exact_and_remainder():
    sigma = LaurentPoly(0, [1, 1, 1])
    p = sigma * LaurentPoly(-2, [2, -3, F(1, 7)])
    q, r = p.divide(sigma)
    assert r.is_zero
    assert q == LaurentPoly(-2, [2, -3, F(1, 7)])
    bumped = p + monomial(0, F(1, 5))
    q2, r2 = bumped.divide(sigma)
    assert not r2.is_zero
    # division invariant holds regardless of exactness
    assert q2 * sigma + r2 == bumped


def test_scale_exponents_and_shift():
    p = LaurentPoly(-1, [1, 0, 2])
    assert p.scale_exponents(3) == LaurentPoly(-3, [1, 0, 0, 0, 0, 0, 2])
    assert shift(p, 2) == LaurentPoly(1, [1, 0, 2])


def test_rref_solve_identity():
    sol = rref_solve(identity(3), [1, 0, 0])
    assert sol.particular == (F(1), F(0), F(0))
    assert sol.nullbasis == ()


PRINTED_SYSTEM = [
    [F(-1, 432), F(5, 432), F(35, 432)],
    [F(1, 27), F(4, 27), F(10, 27)],
    [F(1, 3), F(1, 2), F(2, 3)],
    [F(26, 27), F(23, 27), F(17, 27)],
    [F(289, 216), F(211, 216), F(109, 216)],
    [F(2), F(2), F(2)],
]
PRINTED_RHS = [F(0), F(-1, 16), F(0), F(9, 16), F(1), F(1)]


def test_rref_solve_ternary_system_unique():
    sol = rref_solve(RatMatrix(PRINTED_SYSTEM), PRINTED_RHS)
    assert sol.nullbasis == ()
    assert sol.particular == (B1, B2, B3)
    assert matvec(RatMatrix(PRINTED_SYSTEM), sol.particular) == tuple(PRINTED_RHS)


def test_rref_solve_one_free_variable():
    sol = rref_solve(RatMatrix([[1, 1]]), [1])
    assert sol.particular == (F(1), F(0))
    assert sol.nullbasis == ((F(-1), F(1)),)


def test_rref_solve_infeasible():
    with pytest.raises(InfeasibleSystem):
        rref_solve(RatMatrix([[1, 1], [2, 2]]), [1, 3])


@pytest.mark.parametrize(
    "rows,rhs",
    [
        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [1, 2, F(1, 3)]),
        ([[F(1, 2), 0, 1, 0], [0, 0, 1, 1]], [5, -2]),
        (PRINTED_SYSTEM, PRINTED_RHS),
    ],
)
def test_rref_solution_remultiplies(rows, rhs):
    m = RatMatrix(rows)
    sol = rref_solve(m, rhs)
    assert matvec(m, sol.particular) == tuple(rat(x) for x in rhs)
    zero = tuple(F(0) for _ in range(m.rows))
    for v in sol.nullbasis:
        assert matvec(m, v) == zero


def test_matmul_shapes_and_values():
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix([[0, 1], [1, 0]])
    assert matmul(a, b).entries == ((F(2), F(1)), (F(4), F(3)))
    with pytest.raises(ValueError):
        matmul(a, RatMatrix([[1, 2]]))


# rows over 12, 35 and 1: the Fraction rows mix the denominators 2, 3, 4, 5, 6 and 7
MIXED_NUMERATORS = [[2, -3, 0], [14, -10, 35], [4, 0, -1]]
MIXED_DENOMINATORS = [12, 35, 1]
MIXED_FRACTIONS = [
    [F(1, 6), F(-1, 4), F(0)],
    [F(2, 5), F(-2, 7), F(1)],
    [F(4), F(0), F(-1)],
]


def test_ratmatrix_from_integer_rows_matches_fraction_rows():
    from_ints = RatMatrix.from_numerators(MIXED_NUMERATORS[:1], 12).vstack(
        RatMatrix.from_numerators(MIXED_NUMERATORS[1:2], 35)
    ).vstack(RatMatrix.from_numerators(MIXED_NUMERATORS[2:]))
    from_fractions = RatMatrix(MIXED_FRACTIONS)
    assert (from_ints.rows, from_ints.cols) == (from_fractions.rows, from_fractions.cols) == (3, 3)
    # both are stored in lowest terms, so the integer fields agree as well
    assert from_ints.numerators == from_fractions.numerators == ((2, -3, 0), (14, -10, 35), (4, 0, -1))
    assert from_ints.denominators == from_fractions.denominators == (12, 35, 1)
    assert from_ints == from_fractions
    assert from_ints.entries == from_fractions.entries == tuple(map(tuple, MIXED_FRACTIONS))


def test_ratmatrix_reduces_each_row_over_a_positive_denominator():
    scaled = RatMatrix.from_numerators([[4, -6, 0], [0, 0, 0], [8, 2, 6]], -24)
    assert scaled.numerators == ((-2, 3, 0), (0, 0, 0), (-4, -1, -3))
    assert scaled.denominators == (12, 1, 12)
    assert scaled == RatMatrix([[F(-1, 6), F(1, 4), 0], [0, 0, 0], [F(-1, 3), F(-1, 12), F(-1, 4)]])


def test_ratmatrix_vstack_keeps_rows_and_checks_columns():
    top = RatMatrix(MIXED_FRACTIONS[:2])
    bottom = RatMatrix.from_numerators([MIXED_NUMERATORS[2]])
    stacked = top.vstack(bottom)
    assert stacked == RatMatrix(MIXED_FRACTIONS)
    assert stacked.entries == top.entries + bottom.entries
    assert RatMatrix([]).vstack(bottom) == bottom == bottom.vstack(RatMatrix([]))
    assert (RatMatrix([]).rows, RatMatrix([]).cols) == (0, 0)
    with pytest.raises(ValueError, match="column count"):
        top.vstack(RatMatrix([[1, 2]]))
    with pytest.raises(ValueError, match="ragged"):
        RatMatrix.from_numerators([[1, 2], [3]], 5)


def test_ratmatrix_shape_reads_build_no_fractions():
    matrix = RatMatrix.from_numerators(MIXED_NUMERATORS, 12)
    assert (matrix.rows, matrix.cols) == (3, 3)
    assert "entries" not in vars(matrix)
    matrix.vstack(matrix)
    assert "entries" not in vars(matrix)


def test_linear_solution_numerators_over_the_last_pivot():
    sol = rref_solve(RatMatrix([[2, 4, 6], [1, 1, F(1, 2)]]), [F(1, 3), 5])
    den = sol.denominator
    assert sol.particular == tuple(F(x, den) for x in sol.particular_numerators)
    assert sol.nullbasis == tuple(tuple(F(x, den) for x in v) for v in sol.nullbasis_numerators)
    assert sol.pivot_cols == (0, 1) and sol.dimension == 1
    assert sol.particular == (F(59, 6), F(-29, 6), F(0))
    assert sol.nullbasis == ((F(2), F(-5, 2), F(1)),)
