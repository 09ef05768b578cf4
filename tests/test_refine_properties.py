"""Property test of refine_values against the Fraction cascade on random
rational masks and seeds whose denominators do not divide one another."""

import math
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, settings, strategies as st

from dualsubdiv import analyze
from dualsubdiv.analyze import LatticeFunction, SeedInconsistent, refine_values
from dualsubdiv.exactalg import numerators
from dualsubdiv.construct import ConstructionProblem, InfeasibleProblem, derive
from dualsubdiv.samples import SampleSet, dd_samples, mix_samples
from dualsubdiv.scheme import Mask, limit_support, shift_parameter
from oracle import perturbed
from test_analyze import assert_canonical, cascade
from test_construct_properties import smallest_k_star

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
# seed scales with a prime denominator that no mask denominator below shares
scales = st.builds(
    F, st.integers(1, 30).map(lambda n: n if n % 2 else -n), st.sampled_from([7, 11, 13])
)


def scaled(seed, c):
    return SampleSet(seed.T, seed.offset, [c * v for v in seed.values])


@st.composite
def derived_pairs(draw):
    """A member of a derived family with its (scaled, maybe perturbed) samples:
    consistent unless perturbed."""
    m = draw(st.integers(3, 4))
    samples = mix_samples(dd_samples(2), dd_samples(3), draw(rationals))
    d = draw(st.integers(1, 2))
    k_star = smallest_k_star(m, d, samples) + draw(st.integers(0, 1))
    try:
        family = derive(ConstructionProblem(m, d, k_star, samples, True))
    except InfeasibleProblem:
        reject()
    t = draw(st.lists(rationals, min_size=family.dimension, max_size=family.dimension))
    seed = scaled(samples, draw(scales))
    if draw(st.booleans()):
        index = seed.offset + draw(st.integers(0, len(seed.values) - 1))
        seed = perturbed(seed, index, draw(rationals.filter(bool)))
    return family.member(t), seed


@st.composite
def random_pairs(draw):
    """An arbitrary mask over one denominator with random values on its
    lattice: almost always inconsistent."""
    m = draw(st.integers(2, 4))
    q = draw(st.sampled_from([3, 4, 5, 6, 9]))
    numerators = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(any))
    mask = Mask(m, draw(st.integers(-3, 1)), [F(n, q) for n in numerators])
    T = shift_parameter(mask).denominator
    lo, hi = limit_support(mask)
    n_lo = math.ceil(lo * T)
    size = max(math.floor(hi * T) + 1 - n_lo, 0)
    values = draw(st.lists(rationals, min_size=size, max_size=size))
    return mask, scaled(SampleSet(T, n_lo, values), draw(scales))


def seed_check(mask, seed):
    """The error refine_values must raise for this seed, or None."""
    lo, hi = limit_support(mask)
    s_lo, s_hi = seed.support
    if seed.values and (s_lo < lo or s_hi > hi):
        return f"seed support [{s_lo}, {s_hi}] exceeds the limit support [{lo}, {hi}]"
    _, level = cascade(mask, seed, 1)
    for alpha in range(math.ceil(lo * seed.T), math.floor(hi * seed.T) + 1):
        v, w = seed.value_at_index(alpha), level[mask.arity * alpha]
        if v != w:
            return f"refinement equation fails at {alpha}/{seed.T}: {v} != {w}"
    return None


def denominator(values):
    return math.lcm(*(F(v).denominator for v in values))


@settings(max_examples=100, deadline=None)
@given(st.one_of(derived_pairs(), random_pairs()), st.integers(0, 3))
def test_refine_values_matches_cascade_or_raises_its_seed_error(pair, depth):
    mask, seed = pair
    D, S = denominator(mask.coeffs), denominator(seed.values)
    # S D^L is then a proper lcm: neither denominator absorbs the other
    assume(D % S and S % D)
    error = seed_check(mask, seed)
    if error is not None:
        with pytest.raises(SeedInconsistent) as raised:
            refine_values(mask, seed, depth)
        assert str(raised.value) == error
        return
    lattice = refine_values(mask, seed, depth)
    Q, values = cascade(mask, seed, depth)
    assert lattice.denominator == Q
    assert lattice.values == tuple(values[q] for q in sorted(values))
    if values:
        assert lattice.offset == min(values)
    assert all(type(v) is F for v in lattice.values)
    # S D^L may share a factor with every numerator; the lattice is in lowest terms
    assert_canonical(lattice)
    scale, nums = numerators([values[q] for q in sorted(values)])
    assert lattice == LatticeFunction(Q, lattice.offset, scale, tuple(nums))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any),
    st.integers(-3, 1),
    st.integers(1, 3),
    st.integers(1, 60),
    st.integers(0, 12),
)
def test_depth_bound_refuses_only_one_point_supports(m, nums, offset, k, cap, depth):
    """A support of positive length is at least 1/(m-1) long, so its lattice
    passes the point cap before Q passes (cap + 1)(m - 1): the depth bound
    refuses nothing the cap lets through, and it stops a one-point support.
    Both bounds govern the levels that depth adds, so depth 0, which returns
    the seed's own lattice, is never refused."""
    mask = Mask(m, offset, nums)
    seed = SampleSet(k * shift_parameter(mask).denominator, 0, [])
    one_point = mask.k_left == mask.k_right
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyze, "MAX_POINTS", cap)
        try:
            refine_values(mask, seed, depth)
        except ValueError as exc:
            assert depth > 0
            assert ("would be finer than" in str(exc)) == one_point
        else:
            assert not one_point or depth == 0 or seed.T * m**depth <= (cap + 1) * (m - 1)
