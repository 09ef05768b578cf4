"""Property test of the CLI's JSON writer: ``cli._dumps`` gives the text of
``json.dumps(x, indent=2, allow_nan=False)``, and refuses a non-finite float
with the same message."""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dualsubdiv.cli import _dumps

texts = st.one_of(
    st.text(),
    # quotes, backslashes, control characters and non-ASCII, escaped by both
    st.text(alphabet=st.sampled_from('"\\/\x00\x07\b\t\n\x1f\x7f é€ 😀')),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**1000), 10**1000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 1.0, -1e300]),
    texts,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(texts, max_size=5),  # a coefficient list
        st.dictionaries(texts, inner, max_size=5),
    ),
    max_leaves=30,
)


def json_text(value):
    return json.dumps(value, indent=2, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(values)
def test_writer_gives_the_bytes_of_json_dumps(value):
    assert _dumps(value) == json_text(value)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1.0, x], lambda x: {"t": 0.5, "bound": x}],
                         ids=["bare", "list", "dict"])
def test_writer_refuses_a_non_finite_float_as_json_dumps_does(bad, wrap):
    with pytest.raises(ValueError) as ours:
        _dumps(wrap(bad))
    with pytest.raises(ValueError) as theirs:
        json_text(wrap(bad))
    assert str(ours.value) == str(theirs.value) == f"Out of range float values are not JSON compliant: {bad!r}"
