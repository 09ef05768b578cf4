"""Property test of the fraction-free exactalg.rref_solve against Gauss-Jordan
on Fractions, on rows whose entries mix coprime denominators."""

import functools
import math
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv.exactalg import InfeasibleSystem, RatMatrix, rref_solve

# denominators from pairwise coprime primes and their products, and zeros, so
# that row scales differ, ranks drop and pivot columns get skipped
entries = st.one_of(
    st.just(F(0)),
    st.builds(
        F,
        st.integers(-40, 40),
        st.sampled_from([1, 2, 3, 5, 7, 11, 13, 6, 35, 143, 1001]),
    ),
)


@st.composite
def systems(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    matrix = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        # a row combination of two others, so that the rank drops
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = draw(entries), draw(entries)
        matrix[-1] = [a * x + b * y for x, y in zip(matrix[i], matrix[j])]
    return matrix, draw(st.lists(entries, min_size=rows, max_size=rows))


@settings(max_examples=200, deadline=None)
@given(systems())
def test_rref_matches_fraction_gauss_jordan(system):
    matrix, rhs = system
    reduced, column, pivots = oracle.rref(matrix, rhs)
    expected = oracle.canonical_solution(reduced, column, pivots)
    try:
        solution = rref_solve(oracle.rat_matrix(matrix), rhs)
    except InfeasibleSystem:
        # a row below the rank keeps a nonzero rhs
        assert expected is None
        return
    assert solution.pivot_cols == tuple(pivots)
    assert (oracle.particular(solution), oracle.nullbasis(solution)) == expected


@settings(max_examples=100, deadline=None)
@given(systems())
def test_rref_solve_solutions_remultiply(system):
    matrix, rhs = system
    try:
        solution = rref_solve(oracle.rat_matrix(matrix), rhs)
    except InfeasibleSystem:
        reduced, column, pivots = oracle.rref(matrix, rhs)
        assert any(column[len(pivots):])
        return
    for row, b in zip(matrix, rhs):
        assert sum((x * y for x, y in zip(row, oracle.particular(solution))), F(0)) == b
        for v in oracle.nullbasis(solution):
            assert sum((x * y for x, y in zip(row, v)), F(0)) == 0


@settings(max_examples=100, deadline=None)
@given(systems())
def test_integer_rows_match_fraction_rows(system):
    matrix, rhs = system
    fractions = oracle.rat_matrix(matrix)
    rows = []
    for row in matrix:
        den = math.lcm(*(x.denominator for x in row))
        rows.append(RatMatrix.from_numerators([[x.numerator * (den // x.denominator) for x in row]], den))
    from_ints = functools.reduce(RatMatrix.vstack, rows)
    assert (from_ints.rows, from_ints.cols) == (fractions.rows, fractions.cols)
    assert from_ints == fractions
    assert oracle.entries(from_ints) == oracle.entries(fractions) == tuple(map(tuple, matrix))

    def solve(matrix):
        try:
            return rref_solve(matrix, rhs)
        except InfeasibleSystem:
            return None

    assert solve(from_ints) == solve(fractions)
