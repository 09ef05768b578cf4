"""Property tests of the integer kernels that stand in for whole products, and
of the string parse that stands in for ``rat``.

``residue_convolve`` must equal one residue class of ``convolve``,
``box_sums`` a product with 1 + z + ... + z^{m-1}, and a ``LaurentPoly``
built from strings the one built from their ``rat`` Fractions: the same
fields for every accepted list, and for a refused one the same exception
type and message.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dualsubdiv.exactalg import LaurentPoly, box_sums, convolve, rat, residue_convolve

# zero entries on purpose: interior, leading and trailing
INTS = st.one_of(st.just(0), st.integers(min_value=-10**6, max_value=10**6))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(INTS, max_size=12),
    st.lists(INTS, max_size=15),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=2, max_value=12),
)
def test_residue_convolve_is_one_class_of_the_product(a, b, stride, modulus):
    product = convolve(a, b, stride)
    for first in range(modulus):
        assert residue_convolve(a, b, stride, modulus, first) == product[first::modulus]


@settings(max_examples=300, deadline=None)
@given(st.lists(INTS, max_size=20), st.integers(min_value=1, max_value=12))
def test_box_sums_multiply_by_the_box(x, m):
    assert box_sums(x, m) == convolve([1] * m, x)


def _long(digits):
    return "9" * digits


# every form rat reads or refuses, beside the plain "p" and "p/q"
SPECIAL = [
    "+1/2", "1e-3", "-2E+5", "0.25", "-.5", "1_000", "1_000/3", " 1/2", "1/2\n", "\t-3",
    "1/0", "-5/00", "0/0", "1e5000", "1e-4301", "2.5e4300", "", "-", "/", "1/", "/2", "--1",
    "1/-2", "1/+2", "1//2", "1/2/3", "abc", "nan", "inf", "١", "1/٢", "１", "²", "1/³",
    "007", "-0", "-0/1", "000/0001", "0", _long(4300), "-" + _long(4300),
    f"{_long(4300)}/{_long(4300)}", _long(4301), "-" + _long(4301), f"1/{_long(4301)}",
    f"{_long(4301)}/7",
]
PLAIN = st.from_regex(r"-?[0-9]{1,8}(/[0-9]{1,8})?", fullmatch=True)
DECORATIONS = ["", " ", "+", "_", "e2", "E-1", ".0", "/", "/0", "\n", "x"]


@st.composite
def decorated(draw):
    """A plain string with a piece of other grammar before or after it."""
    return draw(st.sampled_from(DECORATIONS)) + draw(PLAIN) + draw(st.sampled_from(DECORATIONS))


VALUES = st.one_of(
    PLAIN,
    decorated(),
    st.sampled_from(SPECIAL),
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False),
    st.booleans(),
)


def _outcome(build):
    try:
        poly = build()
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return poly.offset, poly.denominator, poly.numerators


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-5, max_value=5), st.lists(VALUES, max_size=6))
def test_string_parse_matches_the_rat_route(offset, values):
    parsed = _outcome(lambda: LaurentPoly(offset, values))
    assert parsed == _outcome(lambda: LaurentPoly(offset, [rat(v) for v in values]))


@pytest.mark.parametrize("value", SPECIAL, ids=range(len(SPECIAL)))
def test_each_special_form_matches_the_rat_route(value):
    parsed = _outcome(lambda: LaurentPoly(0, ["1/3", value]))
    assert parsed == _outcome(lambda: LaurentPoly(0, [rat("1/3"), rat(value)]))


def test_plain_strings_read_to_lowest_terms():
    poly = LaurentPoly(-1, ["2/4", "-007", "-0", "6/12"])
    assert (poly.offset, poly.denominator, poly.numerators) == (-1, 2, (1, -14, 0, 1))
    assert poly.coeffs == (F(1, 2), F(-7), F(0), F(1, 2))
