"""Property test of exactalg.rref_solve against sympy's Matrix.rref as an oracle."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv.exactalg import InfeasibleSystem, rref_solve

# zeros on purpose, so that ranks drop and pivot columns get skipped
entries = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=9))


@st.composite
def systems(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(entries, min_size=cols, max_size=cols)
    matrix = draw(st.lists(row, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        # consistent by construction: rhs = matrix x
        x = draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in matrix]
    else:
        rhs = draw(st.lists(entries, min_size=rows, max_size=rows))
    return matrix, rhs


def to_sympy(x):
    return sympy.Rational(x.numerator, x.denominator)


def to_fraction(x):
    return F(int(x.p), int(x.q))


@settings(max_examples=100, deadline=None)
@given(systems())
def test_rref_matches_sympy(system):
    matrix, rhs = system
    cols = len(matrix[0])
    augmented = sympy.Matrix([[to_sympy(x) for x in row + [b]] for row, b in zip(matrix, rhs)])
    reduced, pivots = augmented.rref()
    reduced = [[to_fraction(x) for x in reduced.row(i)] for i in range(reduced.rows)]
    try:
        solution = rref_solve(oracle.rat_matrix(matrix), rhs)
    except InfeasibleSystem:
        # inconsistent exactly when the rhs column pivots
        assert cols in pivots
        return
    assert cols not in pivots
    assert solution.pivot_cols == pivots
    expected = oracle.canonical_solution(
        [row[:cols] for row in reduced], [row[cols] for row in reduced], pivots
    )
    assert (oracle.particular(solution), oracle.nullbasis(solution)) == expected
