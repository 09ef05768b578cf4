"""Property tests of the fraction-free exactalg.rref_solve against Gauss-Jordan
on Fractions and against the dense fraction-free Gauss-Jordan of
``oracle.bareiss_gauss_jordan``, on rows whose entries mix coprime
denominators, on degenerate rows and columns, and on banded rows under a dense
border."""

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


def _solve(solver, matrix, rhs):
    try:
        return solver(matrix, rhs)
    except InfeasibleSystem:
        return "infeasible"


@st.composite
def degenerate_systems(draw):
    """Systems with zero rows, duplicate rows, zero columns and combination rows."""
    matrix, rhs = draw(systems())
    rows, cols = len(matrix), len(matrix[0])
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        edit = draw(st.sampled_from(["zero row", "duplicate row", "zero column", "combination"]))
        if edit == "zero row":
            matrix[i] = [F(0)] * cols
        elif edit == "duplicate row":
            matrix[i], rhs[i] = list(matrix[j]), rhs[j]
        elif edit == "zero column":
            c = draw(st.integers(0, cols - 1))
            for row in matrix:
                row[c] = F(0)
        else:
            a, b = draw(entries), draw(entries)
            k = draw(st.integers(0, rows - 1))
            matrix[k] = [a * x + b * y for x, y in zip(matrix[i], matrix[j])]
            if draw(st.booleans()):
                # the same combination of the rhs, so that it stays consistent
                rhs[k] = a * rhs[i] + b * rhs[j]
    return matrix, rhs


@st.composite
def bordered_band_systems(draw):
    """The shape ``construct.assemble`` gives: rows that are each nonzero on a
    short window that moves right down the matrix, below them a few dense
    border rows, and a rhs of Fractions."""
    cols, band = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    n_band, n_border = draw(st.integers(0, 10)), draw(st.integers(1, 3))
    matrix = []
    for i in range(n_band):
        start = i * cols // max(n_band, 1)
        values = draw(st.lists(entries, min_size=band, max_size=band))
        row = [F(0)] * cols
        row[start : start + band] = values[: cols - start]
        matrix.append(row)
    matrix += draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                            min_size=n_border, max_size=n_border))
    if draw(st.booleans()):
        # a border row that repeats a band row
        matrix[-1] = list(matrix[draw(st.integers(0, len(matrix) - 1))])
    return matrix, draw(st.lists(entries, min_size=len(matrix), max_size=len(matrix)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(systems(), degenerate_systems(), bordered_band_systems()))
def test_rref_solve_matches_dense_gauss_jordan_field_for_field(system):
    # the forward pass with back substitution gives the dense Gauss-Jordan
    # Bareiss answer: the pivots, the last pivot and every numerator, and
    # InfeasibleSystem on the same inputs
    matrix, rhs = system
    stored = oracle.rat_matrix(matrix)
    assert _solve(rref_solve, stored, rhs) == _solve(oracle.bareiss_gauss_jordan, stored, rhs)


@settings(max_examples=100, deadline=None)
@given(systems(), systems())
def test_vstack_keeps_the_stored_rows(top, bottom):
    # each side is already in lowest terms, so stacking the stored rows gives
    # the fields that storing the stacked rows gives
    a, b = oracle.rat_matrix(top[0]), oracle.rat_matrix(bottom[0])
    if a.cols != b.cols:
        with pytest.raises(ValueError, match="column count"):
            a.vstack(b)
        return
    den = math.lcm(*a.denominators, *b.denominators)
    rows = [[x * (den // d) for x in row]
            for row, d in zip(a.numerators + b.numerators, a.denominators + b.denominators)]
    stacked = a.vstack(b)
    restored = RatMatrix.from_numerators(rows, den)
    assert (stacked.numerators, stacked.denominators) == (restored.numerators, restored.denominators)
