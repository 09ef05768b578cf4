"""Property test of exactalg.convolve against a plain double-sum oracle."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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


@st.composite
def operands(draw):
    kind = draw(st.sampled_from(sorted(ENTRIES, key=lambda t: t.__name__)))
    # zero entries on purpose: interior, leading and trailing
    entry = st.one_of(st.just(kind(0)), ENTRIES[kind])
    a = draw(st.lists(entry, max_size=7))
    b = draw(st.lists(entry, max_size=9))
    return kind, a, b, draw(st.integers(min_value=1, max_value=27))


@settings(max_examples=300, deadline=None)
@given(operands())
def test_convolve_matches_double_sum(case):
    kind, a, b, stride = case
    out = convolve(a, b, stride)
    # floats too: the kernel adds each entry's products in the oracle's order
    assert out == double_sum(a, b, stride)
    assert all(type(c) is kind for c in out)
