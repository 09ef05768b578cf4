"""Property tests of ``analyze.contractivity_range`` against
``oracle.contractivity_range``, and of ``analyze.contractivity_profile``
against the streaming minimum of ``analyze._iterated_norms``, on random
float family lines.

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

A sweep takes the last level's rooted norm first and, within one call,
skips a lower level L >= 2 whose witness class, the class that attained its
norm the last time it was summed, roots to more than the last level's bound
(1 + 2^-36).  Every point's best bound must equal the minimum over all
levels' rooted norms in level order for ``repr``, at parameters whose norms
overflow to inf and nan too.  The example pins a point whose last level is
nan while level 2, with a witness set at the point before, sets the bound.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv import catalog
from dualsubdiv.analyze import (
    NoContractivePoint,
    ParameterGrid,
    _family_line,
    _iterated_norms,
    contractivity_profile,
    contractivity_range,
)
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
def float_lines(draw, max_m=5, max_levels=4, max_entries=400):
    """(family, order, levels, lo, hi, points): a line of difference symbols
    c/D + t b/D with at most 8 coefficients, sampled on [lo, hi]."""
    m = draw(st.integers(min_value=2, max_value=max_m))
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
    levels = draw(st.integers(min_value=1, max_value=max_levels))
    hypothesis.assume((len(c) - 1) * (m**levels - 1) // (m - 1) < max_entries)
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


# parameters on the search scale, and large enough for norms that overflow
PARAMETERS = st.one_of(
    st.floats(min_value=-8, max_value=8),
    st.sampled_from([1e80, -1e80, 1e105, -1e105, 1e150, 1e200, -1e300]),
)


def streaming_profile(family, order, levels, ts):
    """Each point's minimum over all its levels' rooted norms, in level order."""
    symbol, m = _family_line(family, order, levels, ts), family.problem.m
    return [
        (t, min(n ** (1.0 / L) for L, n in enumerate(_iterated_norms(symbol(t), m, levels), 1)))
        for t in ts
    ]


@settings(max_examples=200, deadline=None)
@given(float_lines(max_m=6, max_levels=5, max_entries=2_000), st.lists(PARAMETERS, max_size=8))
@hypothesis.example(
    (catalog.quinary_reference_family(), 0, 3, None, None, None), [0.0, 1e105]
)
def test_profile_matches_the_streaming_minimum(line, ts):
    family, order, levels, *_ = line
    got = contractivity_profile(family, order, levels, ts)
    assert [(t, repr(b)) for t, b in got] == [
        (t, repr(b)) for t, b in streaming_profile(family, order, levels, ts)
    ]
