"""Property test of ``analyze.contractivity_range`` against
``oracle.contractivity_range`` on random float family lines.

Within one call the kernel keeps, for each level, the class of the largest
sum from the last time that level's norm was computed in full, and rejects
a level whose witness class sums to at least 1 without the other classes;
the last level it rejects without building it.  The oracle evaluates every
level of every probe in full.  A member's order-(order+1) difference symbol
is drawn directly: the mask (1 + ... + z^{m-1})^{order+1} d / m^order has
the difference symbol d.  The particular member's and the direction's
symbols are small integers over one denominator, palindromic or not; a
member whose symbol has a zero coefficient takes the ``convolve`` path at
that parameter.  Both ends of the range must agree bit for bit, and so must
a refusal of an empty or split sampled set.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv.analyze import NoContractivePoint, ParameterGrid, contractivity_range
from dualsubdiv.construct import ConstructionProblem, SolutionFamily
from dualsubdiv.exactalg import convolve
from dualsubdiv.samples import samples_from_shorthand
from dualsubdiv.scheme import Mask


def mask_with_difference_symbol(m, order, d):
    poly = d
    for _ in range(order + 1):
        poly = convolve([1] * m, poly)
    return Mask(m, 0, [c / m**order for c in poly])


@st.composite
def float_lines(draw):
    """(family, order, levels, lo, hi, points): a line of difference symbols
    c/D + t b/D with at most 8 coefficients, sampled on [lo, hi]."""
    m = draw(st.integers(min_value=2, max_value=5))
    palindrome = draw(st.booleans())
    width = draw(st.integers(min_value=1, max_value=4 if palindrome else 8))
    odd = draw(st.sampled_from([0, 1]))
    den = draw(st.sampled_from([7, 16, 31, 8191]))
    c, b = (
        draw(st.lists(st.integers(min_value=-12, max_value=12), min_size=width, max_size=width))
        for _ in range(2)
    )
    if palindrome:
        c, b = (x + x[::-1][odd:] for x in (c, b))
    hypothesis.assume(any(c) and any(b))
    order = draw(st.sampled_from([0, 1]))
    masks = [mask_with_difference_symbol(m, order, [F(x, den) for x in xs]) for xs in (c, b)]
    family = SolutionFamily(
        ConstructionProblem(m, 1, 10, samples_from_shorthand("dd4")), masks[0], (masks[1],)
    )
    levels = draw(st.integers(min_value=1, max_value=4))
    hypothesis.assume((len(c) - 1) * (m**levels - 1) // (m - 1) < 400)
    lo = draw(st.integers(min_value=-6, max_value=2))
    hi = lo + draw(st.integers(min_value=1, max_value=6))
    return family, order, levels, lo, hi, draw(st.integers(min_value=3, max_value=17))


@settings(max_examples=60, deadline=None)
@given(float_lines())
def test_range_matches_the_oracle_on_random_lines(line):
    family, order, levels, lo, hi, points = line
    try:
        got = contractivity_range(family, order, levels, ParameterGrid(lo, hi, points))
    except (NoContractivePoint, ValueError):
        got = None
    assert got == oracle.contractivity_range(family, order, levels, (lo, hi), grid=points)
