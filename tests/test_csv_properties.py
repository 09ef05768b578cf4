"""Property tests of the ``eval`` and ``curve`` CSV text against the row-by-row
f-strings in ``oracle``.

The commands run through ``main`` on drawn lattices with their windows and
on drawn polylines, which stand in for ``refine_values``, ``lattice_window``
and ``subdivide_curve``: windows on every side of 0, palindromic or not,
with zero ends that the lattice trims, numerators beyond 2^53 and values
that round to a signed zero or overflow the float range.
"""

import contextlib
import io
import json
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracle
from dualsubdiv import catalog, cli
from dualsubdiv.analyze import Polyline
from dualsubdiv.exactalg import LaurentPoly
from dualsubdiv.samples import SampleSet

# lattice shapes: (offset, length) of the rows
SHAPES = ("empty", "negative", "positive", "one-point", "short-left", "centred", "long-left")

numerators = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2**80), 2**80),
    st.sampled_from([0, 2**53 + 1, -(2**53 + 1), 10**400, -(10**400)]),
)
scales = st.one_of(st.integers(1, 1000), st.integers(1, 2**70), st.just(10**400))
denominators = st.one_of(st.integers(1, 1000), st.integers(1, 2**80))
coordinates = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())


@st.composite
def rows(draw):
    """(offset, length) of a lattice of one of the SHAPES."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "empty":
        return draw(st.integers(-50, 50)), 0
    if shape == "one-point":
        return draw(st.integers(-50, 50)), 1
    n = draw(st.integers(2, 40))
    if shape == "negative":
        return draw(st.integers(-n - 50, -n)), n
    if shape == "positive":
        return draw(st.integers(0, 50)), n
    # straddling 0: -offset against the last point, offset + n - 1
    left = draw(st.integers(1, 20))
    right = {"short-left": left + draw(st.integers(1, 20)), "centred": left,
             "long-left": draw(st.integers(0, left - 1))}[shape]
    return -left, left + right + 1


@st.composite
def lattices(draw):
    offset, n = draw(rows())
    if draw(st.booleans()):
        half = draw(st.lists(numerators, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
        nums = half + half[: n // 2][::-1]
    else:
        nums = draw(st.lists(numerators, min_size=n, max_size=n))
    return lattice(draw(denominators), offset, draw(scales), nums)


def lattice(Q, offset, scale, nums):
    """(the SampleSet of nums[i] / scale at (offset + i)/Q, its window)."""
    poly = LaurentPoly.from_numerators(offset, nums, scale)
    return SampleSet.from_poly(Q, poly), (offset, len(nums))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("csv")
    mask = directory / "mask.json"
    mask.write_text(json.dumps(catalog.cantor_mask().to_dict()))
    points = directory / "points.csv"
    points.write_text("0,0\n1,1\n")
    return str(mask), str(points)


def run(argv, **patches):
    """(exit code, stdout, stderr) of ``main`` with cli's names patched."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name, value in patches.items():
            stack.enter_context(mock.patch.object(cli, name, return_value=value))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expect_output(call, reference):
    """``call`` prints ``reference()``'s text, or, when the reference
    overflows the float range, exits 2 with the overflow's message."""
    try:
        text = reference()
    except OverflowError as exc:
        assert call == (2, "", f"error: a value is beyond the float range: {exc}\n")
    else:
        assert call == (0, text + "\n", "")


@settings(max_examples=400, deadline=None)
@given(lattices())
def test_eval_prints_the_row_by_row_text(inputs, drawn):
    mask, _ = inputs
    values, window = drawn
    call = run(["eval", "--mask", mask, "--samples", "dd:2"], refine_values=values,
               lattice_window=window)
    expect_output(call, lambda: oracle.eval_csv(values, window))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates, coordinates), max_size=30))
def test_curve_prints_the_row_by_row_text(inputs, triples):
    mask, points = inputs
    line = Polyline(tuple(t for t, _, _ in triples), tuple((x, y) for _, x, y in triples))
    call = run(["curve", "--mask", mask, "--points", points], subdivide_curve=line)
    expect_output(call, lambda: oracle.curve_csv(line))


def test_a_value_beyond_the_float_range_exits_2(inputs):
    mask, _ = inputs
    values, window = lattice(18, -1, 1, (1, 10**400, 1))
    code, out, err = run(["eval", "--mask", mask, "--samples", "dd:2"], refine_values=values,
                         lattice_window=window)
    assert (code, out) == (2, "")
    assert err == "error: a value is beyond the float range: integer division result too large for a float\n"


def test_a_value_below_the_float_range_prints_a_signed_zero(inputs):
    mask, _ = inputs
    values, window = lattice(18, -1, 10**400, (-1, 10**400, -1))
    code, out, _ = run(["eval", "--mask", mask, "--samples", "dd:2"], refine_values=values,
                       lattice_window=window)
    assert code == 0
    assert out.splitlines()[1:] == ["-1,18,-0.05555555555555555,-0.0", "0,18,0.0,1.0",
                                    "1,18,0.05555555555555555,-0.0"]
