"""Property tests of the limit-evaluation kernels against their references in
``oracle``: the polyphase curve step against the whole product per
coordinate, and the reproduction comb sums on one lattice period against the
full comb product at every lattice point."""

import math
import struct
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

import oracle
from dualsubdiv import catalog
from dualsubdiv.analyze import lattice_window, refine_values, reproduction_degree, subdivide_points
from dualsubdiv.construct import ConstructionProblem, InfeasibleProblem, derive
from dualsubdiv.samples import SampleSet, dd_samples, mix_samples
from dualsubdiv.scheme import Mask, limit_support, shift_parameter
from test_construct_properties import smallest_k_star

coordinates = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    # products of these with weights below 1 underflow to a zero
    st.floats(min_value=-1e-310, max_value=1e-310),
    # with infinite coordinates, every nan of a step is the one nan that an
    # invalid operation (zero times inf, inf - inf) makes, so that no order
    # of a sum shows in its bits
    st.sampled_from([math.inf, -math.inf]),
)


@st.composite
def curve_cases(draw):
    """A mask of arity 2-7 up to 3 m n long, zeros inside on purpose, and a
    polygon of n = 2-6 points in one or two dimensions.  A mask shorter than
    m, drawn as often as a longer one, leaves residue classes empty.  Half
    the draws mirror the mask and the points, so that each coordinate's
    product is a palindrome, whose sums a mirrored product would not repeat
    bit for bit."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.just(0), st.integers(-60, 60))
    size = draw(st.one_of(st.integers(1, m - 1), st.integers(m, 3 * m * n)))
    coeffs = [F(x, draw(st.integers(1, 10**6)))
              for x in draw(st.lists(entry, min_size=size, max_size=size))]
    dim = draw(st.integers(1, 2))
    control = draw(st.lists(st.tuples(*[coordinates] * dim), min_size=n, max_size=n))
    if draw(st.booleans()):
        coeffs = coeffs[: (size + 1) // 2] + coeffs[: size // 2][::-1]
        control = control[: (n + 1) // 2] + control[: n // 2][::-1]
    if not any(coeffs):
        reject()
    mask = Mask(m, draw(st.integers(-3 * m * n, 3 * m * n)), coeffs)
    return mask, control, draw(st.integers(1, 2)), draw(st.booleans())


def bits(points):
    return [struct.pack("<d", x) for p in points for x in p]


@settings(max_examples=300, deadline=None)
@given(curve_cases())
def test_polyphase_step_matches_the_whole_product_bit_for_bit(case):
    mask, control, steps, closed = case
    params, pts = subdivide_points(mask, control, steps, closed=closed)
    first, expected = oracle.subdivide_points(mask, control, steps, closed)
    assert bits(pts) == bits(expected)
    assert all(str(x) == "0.0" for p in pts for x in p if x == 0)
    m = mask.arity
    drift = shift_parameter(mask) * (m**steps - 1) / (m - 1)
    assert params == [float((i - drift) / m**steps) for i in range(first, first + len(pts))]


@st.composite
def reproduction_cases(draw):
    """A catalog mask or a member of a derived family, symmetric or not, with
    its samples."""
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
        family = derive(ConstructionProblem(m, d, k_star, samples, draw(st.booleans())))
    except InfeasibleProblem:
        reject()
    t = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7),
                      min_size=family.dimension, max_size=family.dimension))
    return family.member(t), samples


@st.composite
def primal_cases(draw):
    """A symmetric primal interpolatory mask, a_{mj} = 1 at j = 0 and 0
    elsewhere, with the T = 1 delta seed: at depth 0 the lattice is that seed
    on Z, where Q = 1 and every degree is reproduced."""
    m = draw(st.integers(2, 5))
    L = draw(st.integers(1, 3 * m).filter(lambda L: L % m))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=9)
    half = [F(1)] + [F(0) if i % m == 0 else draw(entry) for i in range(1, L)]
    half.append(draw(entry.filter(bool)))
    return Mask(m, -L, half[:0:-1] + half), SampleSet(1, 0, [F(1)])


@st.composite
def short_window_cases(draw):
    """A mask of arity 2-5 shorter than m: its limit support is shorter than
    1, so at every depth its window holds at most Q points, and mostly fewer.
    The seed on Z/T is a fixed vector of the refinement equation on the
    lattice points of that support, from Fraction Gauss-Jordan on the
    equation minus the identity, or zero where the equation fixes no vector.
    Coefficients summing to 1 make a fixed vector likely."""
    m = draw(st.integers(2, 5))
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=3).filter(bool),
                           min_size=1, max_size=m - 1))
    if draw(st.booleans()) and sum(coeffs[:-1]) != 1:
        coeffs[-1] = 1 - sum(coeffs[:-1])
    mask = Mask(m, draw(st.integers(-3, 3)), coeffs)
    tau = shift_parameter(mask)
    T = tau.denominator * draw(st.integers(1, 3))
    tau_T = int(tau * T)
    lo, hi = limit_support(mask)
    qs = range(math.ceil(lo * T), math.floor(hi * T) + 1)
    # row q: sum_k a_k phi((m q - k T + tau T)/T) - phi(q/T)
    rows = []
    for q in qs:
        row = [F(-(p == q)) for p in qs]
        for k, a in enumerate(mask.poly.coeffs, mask.k_left):
            p = m * q - k * T + tau_T
            if p in qs:
                row[p - qs.start] += a
        rows.append(row)
    solution = oracle.canonical_solution(*oracle.rref(rows, [0] * len(rows))) if rows else None
    fixed = solution[1][0] if solution and solution[1] else ()
    return mask, SampleSet(T, qs.start, fixed)


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.tuples(reproduction_cases(), st.integers(0, 3)),
                 st.tuples(primal_cases(), st.just(0)),
                 st.tuples(short_window_cases(), st.integers(0, 3))), st.data())
def test_windowed_combs_match_the_full_comb_product(case, data):
    (mask, seed), depth = case
    lattice = refine_values(mask, seed, depth)
    window = lattice_window(limit_support(mask), lattice.T)
    # the windowed loop stops by degree K + 1, the reference checks each one
    K = (window[1] - 1) // lattice.T
    max_degree = data.draw(st.integers(0, 2 * K + 6))
    expected = oracle.reproduction_degree(lattice, window, max_degree)
    assert reproduction_degree(mask, seed, max_degree, depth) == expected
