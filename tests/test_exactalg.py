import sys
from fractions import Fraction as F

import pytest

from dualsubdiv import catalog, exactalg
from dualsubdiv.analyze import contractivity_profile, refine_values
from dualsubdiv.charax import verify_refinability
from dualsubdiv.construct import ConstructionProblem, derive
from dualsubdiv.exactalg import (
    InfeasibleSystem,
    LaurentPoly,
    RatMatrix,
    integer,
    numerators,
    rat,
    rref_solve,
)
from dualsubdiv.samples import dd_samples, samples_from_shorthand

from oracle import (
    entries,
    identity,
    matmul,
    matvec,
    monomial,
    nullbasis,
    particular,
    power,
    rat_matrix,
    scale_exponents,
    shift,
)


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


def test_rat_bounds_the_exponent_like_an_int_string():
    # Fraction builds 10^|e|; |e| is bounded by 4300, like the digits of an
    # int string, and a longer exponent string is refused by int itself
    assert rat("1e4300") == 10**4300
    assert rat("-2.5E-4_300") == F(-25, 10**4301)
    for text in ["1e4301", "1e-4301", " 3.5E+10000000 ", "7e4_301"]:
        with pytest.raises(ValueError, match=r"exponent [-+]?[\d_]+ exceeds 4300 in magnitude$"):
            rat(text)
    with pytest.raises(ValueError, match="^a numeral of 5000 digits exceeds 4300$"):
        rat("1e" + "9" * 5000)


@pytest.fixture(params=[0, 4300], ids=["no-limit", "default-limit"])
def digit_limit(request):
    """Run the test under each digit limit the interpreter may keep."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter keeps no digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(limit)


def test_a_numeral_of_more_than_4300_digits_is_refused_under_any_limit(digit_limit):
    # one rule, not the interpreter's: a numeral is a run of digits,
    # underscores and a point, each read as one int
    ones = "1" * 4300
    for text in [ones, "-" + ones, f"{ones}/{ones}", f"{ones[:2150]}.{ones[2150:]}", f"1_{ones[1:]}",
                 f"{ones[:4296]}e-4300"]:
        assert rat(text) == F(text.replace("_", ""))
        assert numerators([text]) == (rat(text).denominator, [rat(text).numerator])
    assert integer(ones) == int(ones)
    for text, digits in [(ones + "1", 4301), ("-" + ones + "1", 4301), (f"1/{ones}9", 4301),
                         (f"0.{ones}", 4301), (f"{ones}.{ones}", 8600), (f"1_{ones}", 4301),
                         (f"1e-{ones}1", 4301), (" " + "٣" * 4301, 4301)]:
        for read in (rat, lambda x: numerators([x]), integer):
            with pytest.raises(ValueError, match=f"^a numeral of {digits} digits exceeds 4300$"):
                read(text)


def test_laurent_normalization_trims_zero_ends():
    p = LaurentPoly(-2, [0, 1, 2, 0, 0])
    assert p.offset == -1
    assert p.coeffs == (F(1), F(2))
    assert LaurentPoly(5, [0, 0]).is_zero


def test_terms_and_coefficient_build_only_what_they_return():
    # a residual on z^3 exponents: two of every three stored entries are zero
    p = scale_exponents(LaurentPoly(-1, [F(1, 2), 1, 1, F(1, 2)]), 3)
    assert p.terms() == [(-3, F(1, 2)), (0, F(1)), (3, F(1)), (6, F(1, 2))]
    assert all(type(c) is F for _, c in p.terms())
    assert (p.coefficient(6), p.coefficient(1), p.coefficient(99)) == (F(1, 2), 0, 0)
    assert "coeffs" not in p.__dict__
    assert p.coeffs == (F(1, 2), 0, 0, 1, 0, 0, 1, 0, 0, F(1, 2))
    assert "coeffs" in p.__dict__


def test_adding_zero_keeps_the_window():
    # the zero polynomial sits at offset 0; a sum with it spans only the other term
    far = LaurentPoly.from_numerators(10**12, [3], 4)
    assert far + LaurentPoly.zero() == far == LaurentPoly.zero() + far
    assert far - LaurentPoly.zero() == far
    assert (far + -far).is_zero and LaurentPoly.zero() + LaurentPoly.zero() == LaurentPoly.zero()


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
    assert scale_exponents(p, 3) == LaurentPoly(-3, [1, 0, 0, 0, 0, 0, 2])
    assert shift(p, 2) == LaurentPoly(1, [1, 0, 2])


def test_rref_solve_identity():
    sol = rref_solve(rat_matrix(identity(3)), [1, 0, 0])
    assert particular(sol) == (F(1), F(0), F(0))
    assert nullbasis(sol) == ()


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
    sol = rref_solve(rat_matrix(PRINTED_SYSTEM), PRINTED_RHS)
    assert nullbasis(sol) == ()
    assert particular(sol) == (B1, B2, B3)
    assert matvec(entries(rat_matrix(PRINTED_SYSTEM)), particular(sol)) == tuple(PRINTED_RHS)


def test_rref_solve_one_free_variable():
    sol = rref_solve(rat_matrix([[1, 1]]), [1])
    assert particular(sol) == (F(1), F(0))
    assert nullbasis(sol) == ((F(-1), F(1)),)


def test_rref_solve_infeasible():
    with pytest.raises(InfeasibleSystem):
        rref_solve(rat_matrix([[1, 1], [2, 2]]), [1, 3])


@pytest.mark.parametrize(
    "rows,rhs",
    [
        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [1, 2, F(1, 3)]),
        ([[F(1, 2), 0, 1, 0], [0, 0, 1, 1]], [5, -2]),
        (PRINTED_SYSTEM, PRINTED_RHS),
    ],
)
def test_rref_solution_remultiplies(rows, rhs):
    m = rat_matrix(rows)
    sol = rref_solve(m, rhs)
    assert matvec(entries(m), particular(sol)) == tuple(rat(x) for x in rhs)
    zero = tuple(F(0) for _ in range(m.rows))
    for v in nullbasis(sol):
        assert matvec(entries(m), v) == zero


def test_matmul_shapes_and_values():
    a = entries(rat_matrix([[1, 2], [3, 4]]))
    b = entries(rat_matrix([[0, 1], [1, 0]]))
    assert matmul(a, b) == ((F(2), F(1)), (F(4), F(3)))
    with pytest.raises(ValueError):
        matmul(a, entries(rat_matrix([[1, 2]])))


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
    from_fractions = rat_matrix(MIXED_FRACTIONS)
    assert (from_ints.rows, from_ints.cols) == (from_fractions.rows, from_fractions.cols) == (3, 3)
    # both are stored in lowest terms, so the integer fields agree as well
    assert from_ints.numerators == from_fractions.numerators == ((2, -3, 0), (14, -10, 35), (4, 0, -1))
    assert from_ints.denominators == from_fractions.denominators == (12, 35, 1)
    assert from_ints == from_fractions
    assert entries(from_ints) == entries(from_fractions) == tuple(map(tuple, MIXED_FRACTIONS))


def test_ratmatrix_reduces_each_row_over_a_positive_denominator():
    scaled = RatMatrix.from_numerators([[4, -6, 0], [0, 0, 0], [8, 2, 6]], -24)
    assert scaled.numerators == ((-2, 3, 0), (0, 0, 0), (-4, -1, -3))
    assert scaled.denominators == (12, 1, 12)
    assert scaled == rat_matrix([[F(-1, 6), F(1, 4), 0], [0, 0, 0], [F(-1, 3), F(-1, 12), F(-1, 4)]])


def test_ratmatrix_vstack_keeps_rows_and_checks_columns():
    top = rat_matrix(MIXED_FRACTIONS[:2])
    bottom = RatMatrix.from_numerators([MIXED_NUMERATORS[2]])
    stacked = top.vstack(bottom)
    assert stacked == rat_matrix(MIXED_FRACTIONS)
    assert entries(stacked) == entries(top) + entries(bottom)
    empty = RatMatrix.from_numerators([])
    assert empty.vstack(bottom) == bottom == bottom.vstack(empty)
    assert (empty.rows, empty.cols) == (0, 0)
    with pytest.raises(ValueError, match="column count"):
        top.vstack(rat_matrix([[1, 2]]))
    with pytest.raises(ValueError, match="ragged"):
        RatMatrix.from_numerators([[1, 2], [3]], 5)


def test_ratmatrix_shape_reads_build_no_fractions():
    matrix = RatMatrix.from_numerators(MIXED_NUMERATORS, 12)
    assert (matrix.rows, matrix.cols) == (3, 3)
    # the integer fields are all a matrix holds
    assert set(vars(matrix)) == {"numerators", "denominators"}
    matrix.vstack(matrix)
    assert set(vars(matrix)) == {"numerators", "denominators"}


def test_linear_solution_numerators_over_the_last_pivot():
    sol = rref_solve(rat_matrix([[2, 4, 6], [1, 1, F(1, 2)]]), [F(1, 3), 5])
    den = sol.denominator
    assert particular(sol) == tuple(F(x, den) for x in sol.particular_numerators)
    assert nullbasis(sol) == tuple(tuple(F(x, den) for x in v) for v in sol.nullbasis_numerators)
    assert sol.pivot_cols == (0, 1) and sol.dimension == 1
    assert particular(sol) == (F(59, 6), F(-29, 6), F(0))
    assert nullbasis(sol) == ((F(2), F(-5, 2), F(1)),)


def test_one_budget_moves_every_rule(monkeypatch):
    # exactalg.MAX_POINTS alone bounds the growth of a cascade, the identity
    # product, the elimination, dd:N and the sweep total; at 16 each refuses
    family = catalog.quinary_reference_family()
    refusals = [
        (lambda: refine_values(catalog.cantor_mask(), dd_samples(1), 2),
         "level 2 of a lattice of depth 2 would need 27 points"),
        (lambda: verify_refinability(catalog.ternary_cubic_mask(), dd_samples(2)),
         r"the product A\(z\^2\) V\(z\) would need 33 entries"),
        (lambda: derive(ConstructionProblem(3, 1, 2, dd_samples(1), False)),
         "a system of 7 rows and 2 unknowns would need 28 elimination steps"),
        (lambda: samples_from_shorthand("dd:6"), "dd:6 would need 36 point pairs"),
        (lambda: contractivity_profile(family, 0, 1, [0.0, 1.0]),
         "level 1 of a sweep of 2 points at 1 levels would need 32 entries"),
    ]
    for call, _ in refusals:
        call()
    monkeypatch.setattr(exactalg, "MAX_POINTS", 16)
    for call, message in refusals:
        with pytest.raises(ValueError, match=f"^{message}, more than 16$"):
            call()
