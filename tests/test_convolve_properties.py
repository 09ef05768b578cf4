"""Property test of exactalg.convolve against a plain double-sum oracle.

The product of two palindromes is a palindrome, and the kernel sums only the
first half of it and mirrors the rest.  Exact results must equal the oracle
all through.  A float result must equal it bit for bit where the kernel sums:
everywhere for other operands, and on the first ceil(N/2) entries of a
palindromic product, whose second half must be the exact mirror.  The
oracle's own second half may differ there in the last bit, since it rounds
each entry's sum in its own order.

The double sum has no infinity or nan.  ``oracle.strided_product`` is
``convolve`` written from its docstring, one product at a time: zero rows
skipped, each entry started from its first product, the unreached entries
``type(b[0])()``, a palindromic product summed to half and mirrored.  On
ints and on floats with signed zeros, overflowing products, infinities
and nan, every entry of ``convolve`` must equal it ``repr`` for ``repr``.
"""

import math
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv.exactalg import convolve

ENTRIES = {
    int: st.integers(min_value=-50, max_value=50),
    F: st.fractions(min_value=-4, max_value=4, max_denominator=12),
    float: st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
}


def double_sum(a, b, stride):
    """Coefficients of A(z^stride) B(z), one product at a time."""
    if not a or not b:
        return []
    acc = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            e = stride * i + j
            acc[e] = acc.get(e, 0) + x * y
    return [acc.get(e, 0) for e in range(stride * (len(a) - 1) + len(b))]


def kinds(draw):
    kind = draw(st.sampled_from(sorted(ENTRIES, key=lambda t: t.__name__)))
    # zero entries on purpose: interior, leading and trailing
    return kind, st.one_of(st.just(kind(0)), ENTRIES[kind])


@st.composite
def operands(draw):
    kind, entry = kinds(draw)
    a = draw(st.lists(entry, max_size=7))
    b = draw(st.lists(entry, max_size=9))
    return kind, a, b, draw(st.integers(min_value=1, max_value=27))


@st.composite
def mirrored_operands(draw):
    """Palindromes of odd and even length, 1 included, with zero ends."""
    kind, entry = kinds(draw)

    def palindrome(max_half):
        half = draw(st.lists(entry, max_size=max_half))
        return half + draw(st.lists(entry, max_size=1)) + half[::-1]

    return kind, palindrome(4), palindrome(5), draw(st.integers(min_value=1, max_value=27))


def check_against_double_sum(kind, a, b, stride):
    out = convolve(a, b, stride)
    expected = double_sum(a, b, stride)
    assert all(type(c) is kind for c in out)
    if kind is float and a == a[::-1] and b == b[::-1]:
        half = (len(out) + 1) // 2
        assert out == out[::-1]
        assert out[:half] == expected[:half]
    else:
        # floats too: the kernel adds each entry's products in the oracle's order
        assert out == expected


@settings(max_examples=300, deadline=None)
@given(operands())
def test_convolve_matches_double_sum(case):
    check_against_double_sum(*case)


@settings(max_examples=300, deadline=None)
@given(mirrored_operands())
def test_convolve_of_palindromes_matches_double_sum(case):
    check_against_double_sum(*case)


def test_float_palindrome_product_is_mirrored():
    # the oracle sums entry 2 as 0.1*0.7 + 0.1*0.7 + 0.1*0.1 and its mirror,
    # entry 4, in the reverse order, which rounds one ulp lower
    a, b = [0.1, 0.1, 0.1, 0.1], [0.1, 0.7, 0.7, 0.1]
    expected = double_sum(a, b, 1)
    assert expected != expected[::-1]
    out = convolve(a, b)
    assert out[:4] == expected[:4]
    assert out == out[::-1]


# the int 0 and 1 too: the difference iterate starts from the int product [1]
SPECIAL = [0, 1, 0.0, -0.0, 1.5, -2.25, 1e300, -1e300, math.inf, -math.inf, math.nan]


@st.composite
def special_operand(draw, max_half):
    """Ints, or floats with specials, palindromic or not."""
    entry = draw(st.sampled_from([st.integers(min_value=-50, max_value=50), st.sampled_from(SPECIAL)]))
    half = draw(st.lists(entry, max_size=max_half))
    if not draw(st.booleans()):
        return half + draw(st.lists(entry, max_size=max_half))
    return half + draw(st.lists(entry, max_size=1)) + half[::-1]


@settings(max_examples=500, deadline=None)
@given(special_operand(4), special_operand(5), st.integers(min_value=1, max_value=7))
def test_convolve_matches_the_strided_product(a, b, stride):
    want = [repr(x) for x in oracle.strided_product(a, b, stride)]
    assert [repr(x) for x in convolve(a, b, stride)] == want
