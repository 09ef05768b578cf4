"""Property tests of the limit-evaluation kernels against their references in
``oracle``: the polyphase curve step against the whole product per
coordinate, and the windowed reproduction comb sums against the full comb
product."""

import math
import struct
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

import oracle
from dualsubdiv import catalog
from dualsubdiv.analyze import refine_values, reproduction_degree, subdivide_points
from dualsubdiv.construct import ConstructionProblem, InfeasibleProblem, derive
from dualsubdiv.exactalg import convolve
from dualsubdiv.samples import dd_samples, mix_samples
from dualsubdiv.scheme import Mask, shift_parameter
from test_construct_properties import smallest_k_star

coordinates = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    # products of these with weights below 1 underflow to a zero
    st.floats(min_value=-1e-310, max_value=1e-310),
)


@st.composite
def curve_cases(draw):
    """A mask of arity 2-7 up to 3 m n long, zeros inside on purpose, and a
    polygon of n = 2-6 points in one or two dimensions."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.just(0), st.integers(-60, 60))
    nums = draw(st.lists(entry, min_size=1, max_size=3 * m * n).filter(any))
    mask = Mask(m, draw(st.integers(-3 * m * n, 3 * m * n)),
                [F(x, draw(st.integers(1, 10**6))) for x in nums])
    dim = draw(st.integers(1, 2))
    control = draw(st.lists(st.tuples(*[coordinates] * dim), min_size=n, max_size=n))
    return mask, control, draw(st.integers(1, 2)), draw(st.booleans())


def bits(points):
    return [struct.pack("<d", x) for p in points for x in p]


@settings(max_examples=300, deadline=None)
@given(curve_cases())
def test_polyphase_step_matches_the_whole_product_bit_for_bit(case):
    mask, control, steps, closed = case
    params, pts = subdivide_points(mask, control, steps, closed=closed)
    first, expected = oracle.subdivide_points(mask, control, steps, closed)
    # the reference stores a first product as is, so a negative coordinate
    # times a zero weight (or an underflow) is a signed zero there; the
    # polyphase step adds every product to 0.0 and holds an unsigned zero
    unsigned = [tuple(0.0 if x == 0 else x for x in p) for p in expected]
    assert bits(pts) == bits(unsigned)
    assert all(str(x) == "0.0" for p in pts for x in p if x == 0)
    m = mask.arity
    drift = shift_parameter(mask) * (m**steps - 1) / (m - 1)
    assert params == [float((i - drift) / m**steps) for i in range(first, first + len(pts))]


@st.composite
def reproduction_cases(draw):
    """A catalog mask or a member of a derived family, with its samples."""
    if draw(st.booleans()):
        return draw(st.sampled_from([
            (catalog.cantor_mask(), catalog.cantor_samples()),
            (catalog.ternary_cubic_mask(), dd_samples(2)),
            (catalog.quinary_family_mask(F(-7, 5)), dd_samples(2)),
            (catalog.quaternary_quartic_mask(), dd_samples(3)),
        ]))
    m = draw(st.integers(3, 5))
    w = draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
    samples = mix_samples(dd_samples(2), dd_samples(3), w)
    d = draw(st.integers(1, 3))
    k_star = smallest_k_star(m, d, samples) + draw(st.integers(0, 1))
    try:
        family = derive(ConstructionProblem(m, d, k_star, samples, True))
    except InfeasibleProblem:
        reject()
    t = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7),
                      min_size=family.dimension, max_size=family.dimension))
    return family.member(t), samples


def residual(lattice, e, i):
    """|sum_k k^e phi(p/Q - k) - (p/Q)^e| at lattice entry i, from the full
    comb product."""
    Q, nums, n = lattice.denominator, lattice.numerators, len(lattice.numerators)
    K = (n - 1) // Q
    acc = convolve([k**e for k in range(-K, K + 1)], nums, Q)[K * Q + i]
    return abs(F(acc, lattice.scale) - F(lattice.offset + i, Q) ** e)


@settings(max_examples=60, deadline=None)
@given(reproduction_cases(), st.integers(1, 3), st.integers(0, 5), st.data())
def test_windowed_combs_match_the_full_comb_product(case, depth, max_degree, data):
    mask, seed = case
    lattice = refine_values(mask, seed, depth)
    # a tolerance at one entry's residual makes that entry decide the degree
    e = data.draw(st.integers(0, max_degree))
    i = data.draw(st.integers(0, len(lattice.numerators) - 1))
    r = float(residual(lattice, e, i))
    tol = data.draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-12, 1e-8, 1e-3]),
        st.floats(min_value=0, max_value=1),
        st.sampled_from([math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf)])
        .filter(lambda x: x >= 0),
    ))
    expected = oracle.reproduction_degree(lattice, max_degree, tol)
    assert reproduction_degree(mask, seed, max_degree, depth, tol) == expected
