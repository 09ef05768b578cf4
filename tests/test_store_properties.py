"""Property tests of the integer coefficient store of LaurentPoly, Mask and
SampleSet against the trimmed Fraction-tuple reference."""

import json
import math
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv.exactalg import LaurentPoly
from dualsubdiv.samples import SampleSet
from dualsubdiv.scheme import Mask

OFFSETS = st.integers(min_value=-6, max_value=6)
# zero entries on purpose, so that lists have zero ends and can be all zero
ENTRIES = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
)
COEFFS = st.one_of(
    st.lists(ENTRIES, max_size=8),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=6),
    st.lists(st.just(0), max_size=4),
)


def stores(offset, coeffs):
    """The three objects on the coefficients, with the view of each; None
    for a mask without a nonzero coefficient, which is refused."""
    out = [(LaurentPoly(offset, coeffs), "coeffs"), (SampleSet(2, offset, coeffs), "values")]
    if any(coeffs):
        out.append((Mask(3, offset, coeffs), "coeffs"))
    else:
        with pytest.raises(ValueError, match="nonzero coefficient"):
            Mask(3, offset, coeffs)
    return out


@settings(max_examples=300, deadline=None)
@given(OFFSETS, COEFFS)
def test_views_match_the_fraction_reference(offset, coeffs):
    ref_offset, ref = oracle.fraction_window(offset, coeffs)
    for obj, view in stores(offset, coeffs):
        assert (obj.offset, getattr(obj, view)) == (ref_offset, ref)
        assert all(type(c) is F for c in getattr(obj, view))
    poly = LaurentPoly(offset, coeffs)
    assert poly.denominator > 0 and math.gcd(poly.denominator, *poly.numerators) == 1
    assert [F(x, poly.denominator) for x in poly.numerators] == list(ref)


@settings(max_examples=300, deadline=None)
@given(OFFSETS, COEFFS, st.data())
def test_equality_and_hash_agree_with_the_reference(offset, coeffs, data):
    # the second list is often the first one padded with zeros and shifted
    # so that its window is the same
    pad = data.draw(st.integers(min_value=0, max_value=3))
    offset2, coeffs2 = data.draw(st.one_of(
        st.just((offset - pad, [0] * pad + list(coeffs) + [0] * (3 - pad))),
        st.tuples(OFFSETS, COEFFS),
    ))
    same = oracle.fraction_window(offset, coeffs) == oracle.fraction_window(offset2, coeffs2)
    for (a, _), (b, _) in zip(stores(offset, coeffs), stores(offset2, coeffs2)):
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)


@settings(max_examples=300, deadline=None)
@given(OFFSETS, COEFFS)
def test_to_dict_writes_str_of_each_fraction_and_reads_back(offset, coeffs):
    _, ref = oracle.fraction_window(offset, coeffs)
    for obj, view in stores(offset, coeffs):
        if isinstance(obj, LaurentPoly):
            assert obj.coeff_strings() == [str(c) for c in ref]
            continue
        data = obj.to_dict()
        assert data[view] == [str(c) for c in ref]
        assert type(obj).from_dict(json.loads(json.dumps(data))) == obj


@settings(max_examples=300, deadline=None)
@given(OFFSETS, COEFFS, st.integers(min_value=-12, max_value=12).filter(bool))
def test_from_numerators_reduces_to_the_same_object(offset, coeffs, k):
    poly = LaurentPoly(offset, coeffs)
    scaled = LaurentPoly.from_numerators(
        poly.offset - 2, [0, 0] + [k * x for x in poly.numerators] + [0], k * poly.denominator
    )
    assert scaled == LaurentPoly(*oracle.fraction_window(offset, coeffs)) == poly
    assert hash(scaled) == hash(poly)
    assert (scaled.offset, scaled.denominator, scaled.numerators) == (
        poly.offset, poly.denominator, poly.numerators
    )
    if poly.is_zero:
        return
    assert Mask.from_poly(3, scaled) == Mask(3, offset, coeffs)
    assert SampleSet.from_poly(2, scaled) == SampleSet(2, offset, coeffs)
