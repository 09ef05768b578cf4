"""Property test of the stride-block iterate ``analyze._iterated_norms``
against ``oracle.iterated_norms``, of the witness class sums
``analyze._next_class_sum`` and ``analyze._class_sum`` against the built
level, of the level norm ``analyze._level_norm`` against all the class
sums, and of ``analyze._fold`` against a per-class fold.

The kernel builds each level of a symbol whose coefficients are all
nonzero and finite in m^(L-1)-long blocks, the last block of the level
before padded with zeros, and takes ``exactalg.convolve`` for any other
symbol.  It builds only the first half of a palindromic level and mirrors
it, and sums each level's classes with the ``abs`` taken in the pass.  The
oracle forms each iterate with ``oracle.strided_product``, not with
``convolve``.  Every norm must equal the oracle's ``repr`` for ``repr``:
its type, and every float bit, at every level, whether the generator is
read to the end or stopped early.  The coefficients include zeros of both
signs, values whose products overflow, infinities and nan.  The examples pin,
on the block path, a finite symbol whose iterate overflows to inf and nan
and the long edge blocks at m = 2 of an int symbol and of a float symbol
whose edge sums show their order; and, on the ``convolve`` path, an int
symbol with an interior zero and a float symbol with a nan.  On the block
path, each class sum of a level taken from the level before, as
``contractivity_range``'s witness reads it, and the same class summed on
the built level must equal ``analyze._class_sums``' sum for that class
for ``repr``, inf and nan included; the overflow and edge-sum examples
are pinned there too, with a palindrome whose mirrored entries differ in
the last bit from the same entries summed directly.  ``_fold``
keeps a shorter last block unpadded, so a sum that only that block misses
keeps the sign of its zero.  ``_level_norm``, the largest class sum of the
magnitudes and the first class that attains it, compares the classes in
order, so a nan class decides it only as ``max`` over the per-class folds
decides it.  On a palindromic level it sums half the classes and the mirror
of each class near their maximum; its norm and class must be those of all
the class sums for ``repr``, and an example pins a level whose norm only a
mirror class attains.
"""

import functools
import itertools
import math
import operator

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv.analyze import (
    _blocked,
    _class_sum,
    _class_sums,
    _fold,
    _iterated_norms,
    _iterates,
    _level_norm,
    _next_class_sum,
)

ENTRIES = {
    int: st.integers(min_value=-10**6, max_value=10**6),
    # quotients by a prime round, so the order of a sum shows in its last bits
    float: st.integers(min_value=-10**6, max_value=10**6).map(lambda n: n / 8191),
}
SPECIAL = {
    int: [0],
    float: [0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan],
}


@st.composite
def symbols(draw):
    """Int or float coefficients, palindromic or not, at most 10 long, with
    up to three entries (mirrored in a palindrome) set to a special value."""
    kind = draw(st.sampled_from([int, float]))
    palindrome = draw(st.booleans())
    coeffs = draw(st.lists(ENTRIES[kind], min_size=1, max_size=5 if palindrome else 10))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(coeffs) - 1))
        coeffs[i] = draw(st.sampled_from(SPECIAL[kind]))
    if palindrome:
        coeffs += coeffs[::-1][draw(st.sampled_from([0, 1])) :]
    return coeffs


# infinite coefficients, on the convolve path: a padded term -inf 0 = nan
# would make its level-4 norm read 0.0 instead of inf
PADDED_NAN = [-0.0, -1.0, -math.inf, 2.0, 0.0, 0.0, 2.0, -math.inf, -1.0, -0.0]
# a level-2 block of three products at m = 2, whose sum in another order
# moves the norm's last bit
THREE_TERMS = [n / 8191 for n in (569504, 637848, 671905, -229722, 802909, -229722, 671905,
                                  637848, 569504)]
# level 1 leaves the int 0 at each zero coefficient: with only zeros of both
# signs and types the norm is the int 0, and zeros at the ends stay in place
ZEROS = [-0.0, 0, 0.0]
ENDS = [0, -0.0, 1.5, -2.25, 0.0, 0]
# the nan classes follow class 0 at every level, so the largest sum is finite
# only when the classes are compared in order
LATER_NAN = [2.0, math.nan]
# finite and nonzero, so on the block path, where its iterate overflows: the
# norms are 2e+200, inf, nan, nan, nan
OVERFLOW = [1.5, -2.0, 1e200, 0.25, 1e200, -2.0, 1.5]
# at m = 2 the level before has the most blocks, so the edges are longest
EDGES = [3, -1, 4, 1, -5, 9, 2, -6]
# left and right edge blocks of three or more float products, whose sums in
# another order move the last bit of the level-4 norm
EDGE_SUMS = [n / 8191 for n in (621809, -278862, -958113, 30562, 868588)]
# a palindrome whose level-2 entries past the first half, summed on their
# own, differ in the last bit from the mirrored entries that the level holds
MIRRORED = [n / 8191 for n in (1, -1, 2, 2, -1, 1)]
# a palindrome whose level-2 class 1 at m = 2, the mirror of class 0, holds
# class 0's entries in reverse order and sums to one ulp more: it sets the norm
MIRROR_WINS = [n / 8191 for n in (-242530, -129878, -129878, -242530)]
# an interior zero sends an int symbol to the convolve path
INTERIOR_ZERO = [2, 0, -3, 0, 0, 5, 1]
# so does a nan coefficient: a padded term nan 0 would make the level-2 norm
# 6.0 instead of 9.0
NAN_COEFF = [1.0, math.nan, 3.0, -1.0]


@settings(max_examples=300, deadline=None)
@given(symbols(), st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
@hypothesis.example(PADDED_NAN, 5, 4, 4)
@hypothesis.example(THREE_TERMS, 2, 2, 1)
@hypothesis.example(ZEROS, 2, 1, 1)
@hypothesis.example(ENDS, 4, 1, 1)
@hypothesis.example(LATER_NAN, 2, 3, 3)
@hypothesis.example(OVERFLOW, 2, 5, 5)
@hypothesis.example(EDGES, 2, 5, 3)
@hypothesis.example(EDGE_SUMS, 2, 4, 4)
@hypothesis.example(INTERIOR_ZERO, 3, 4, 4)
@hypothesis.example(NAN_COEFF, 3, 2, 2)
def test_iterated_norms_match_the_oracle(coeffs, m, levels, stop):
    # the largest level holds (len - 1)(m^L - 1)/(m - 1) + 1 entries
    hypothesis.assume((len(coeffs) - 1) * (m**levels - 1) // (m - 1) < 20_000)
    want = [repr(n) for n in oracle.iterated_norms(coeffs, m, levels)]
    assert [repr(n) for n in _iterated_norms(coeffs, m, levels)] == want
    # read lazily, stopping after level `stop`
    early = itertools.islice(_iterated_norms(coeffs, m, levels), min(stop, levels))
    assert [repr(n) for n in early] == want[:stop]


@settings(max_examples=200, deadline=None)
@given(symbols(), st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5))
@hypothesis.example(OVERFLOW, 2, 5)
@hypothesis.example(EDGE_SUMS, 2, 4)
@hypothesis.example(MIRRORED, 2, 2)
def test_next_class_sums_match_the_built_level(coeffs, m, levels):
    # every class sum of level L, taken from level L - 1 and from level L
    # itself, is _class_sums' sum of that class over the built level L
    hypothesis.assume(_blocked(coeffs))
    hypothesis.assume((len(coeffs) - 1) * (m**levels - 1) // (m - 1) < 5_000)
    q = [1]
    for level, built in enumerate(_iterates(coeffs, m, levels), start=1):
        s = m ** (level - 1)
        n = min(m * s, len(built))
        want = [repr(x) for x in _class_sums(built, n)]
        assert [repr(_next_class_sum(coeffs, q, s, r, n)) for r in range(n)] == want
        assert [repr(_class_sum(built, r, n)) for r in range(n)] == want
        q = built


@settings(max_examples=200, deadline=None)
@given(symbols(), st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5))
@hypothesis.example(OVERFLOW, 2, 5)
@hypothesis.example(EDGE_SUMS, 2, 4)
@hypothesis.example(MIRRORED, 2, 2)
@hypothesis.example(MIRROR_WINS, 2, 2)
@hypothesis.example(ZEROS, 2, 1)
@hypothesis.example(PADDED_NAN, 5, 4)
def test_level_norm_is_the_largest_class_sum(coeffs, m, levels):
    # on every level of a palindromic symbol half the classes are summed
    # first; the norm and its class must be those of all the class sums
    hypothesis.assume((len(coeffs) - 1) * (m**levels - 1) // (m - 1) < 5_000)
    palindrome = coeffs == coeffs[::-1]
    for level, q in enumerate(_iterates(coeffs, m, levels), start=1):
        n = min(m**level, len(q))
        sums = _class_sums(q, n)
        want = max(sums)
        norm, r = _level_norm(q, n, palindrome)
        assert (repr(norm), r) == (repr(want), sums.index(want))
        assert repr(sums[r]) == repr(norm)


def test_a_mirror_class_sets_the_norm():
    # class 0 is summed, and its mirror, class 1, sums to more and is the norm
    *_, q = _iterates(MIRROR_WINS, 2, 2)
    sums = _class_sums(q, 4)
    assert sums[1] > sums[0] == max(sums[0], sums[2], sums[3])
    assert _level_norm(q, 4, True) == (sums[1], 1)
    assert _level_norm(q, 4, False) == (sums[1], 1)


def per_class(values, n):
    """values[r] + values[r + n] + ... for r < n, each from its first entry;
    the entries' unsigned zero where no entry reaches."""
    return [
        functools.reduce(operator.add, values[r + n :: n], values[r])
        if r < len(values) else type(values[0])()
        for r in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300, math.inf]), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=12))
def test_fold_matches_the_per_class_fold(values, n):
    assert [repr(x) for x in _fold(values, n)] == [repr(x) for x in per_class(values, n)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0, 0.0, -0.0, 1.5, -2.25, 1e300, math.inf, -math.inf, math.nan]),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=12))
def test_norm_is_the_largest_per_class_fold_of_the_magnitudes(values, n):
    hypothesis.assume(n <= len(values))
    sums = per_class(list(map(abs, values)), n)
    want = max(sums)
    norm, r = _level_norm(values, n, values == values[::-1])
    assert (repr(norm), r) == (repr(want), sums.index(want))
