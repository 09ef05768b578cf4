"""Property test of the growth rule at the command line: every ``--depth``,
``--steps``, ``--levels``, ``--grid`` and ``dd:N`` that it refuses exits 2
with one ``error:`` line and no traceback, before any level is built.

``cli.main`` runs in this process; no example starts a thread or a process.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dualsubdiv import catalog
from dualsubdiv.cli import main
from dualsubdiv.construct import derive
from dualsubdiv.exactalg import MAX_POINTS
from dualsubdiv.scheme import Mask, factor_smoothing

# mask -> sample shorthand or file consistent with its shift and support
MASKS = {
    "cantor": (catalog.cantor_mask(), "dd:2"),
    "ternary": (catalog.ternary_cubic_mask(), "dd4"),
    "quinary": (catalog.quinary_family_mask(F(-7, 5)), "dd4"),
    "quartic": (catalog.quaternary_quartic_mask(), "dd6"),
    "box": (Mask(3, -1, [1, 1, 1]), "delta.json"),
}
HUGE = st.integers(10**2, 10**12)
FAMILY = derive(catalog.quinary_problem())
# its line's order-0 difference symbols span one window, and the level-3
# iterate of a symbol that long holds (len - 1)(5^3 - 1)/4 + 1 entries
SYMBOLS = [factor_smoothing(mask, 1) for mask in (FAMILY.particular, *FAMILY.basis)]
ENTRIES = (max(p.degree_high for p in SYMBOLS) - min(p.offset for p in SYMBOLS)) * 31 + 1
SECONDS = 0.5


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("refusals")
    for name, (mask, _) in MASKS.items():
        (path / f"{name}.json").write_text(json.dumps(mask.to_dict()))
    (path / "delta.json").write_text(json.dumps({"T": 1, "offset": 0, "values": ["1"]}))
    (path / "family.json").write_text(json.dumps(FAMILY.to_dict()))
    (path / "square.csv").write_text("0,0\n1,0\n1,1\n0,1\n")
    return path


def refused(path):
    """(argv, the start of the refusal's message after "error: ")."""
    names = st.sampled_from(sorted(MASKS))

    def samples(name):
        spec = MASKS[name][1]
        return str(path / spec) if spec.endswith(".json") else spec

    lattice = st.tuples(st.sampled_from(["eval", "reproduce"]), names, HUGE).map(
        lambda c: [c[0], "--mask", str(path / f"{c[1]}.json"), "--samples", samples(c[1]),
                   "--depth", str(c[2])]
    )
    polyline = st.tuples(names, HUGE, st.booleans()).map(
        lambda c: ["curve", "--mask", str(path / f"{c[0]}.json"), "--points",
                   str(path / "square.csv"), "--steps", str(c[1])] + ["--closed"] * c[2]
    )
    iterate = st.tuples(names, HUGE).map(
        lambda c: ["regularity", "--mask", str(path / f"{c[0]}.json"), "--levels", str(c[1])]
    )
    sweep = ["sweep", "--family", str(path / "family.json"), "--range=-2:2"]
    line = st.tuples(HUGE, st.booleans()).map(
        lambda c: sweep + ["--levels", str(c[0])] + ["--bisect"] * c[1]
    )
    grid = st.tuples(st.integers(MAX_POINTS // ENTRIES + 1, MAX_POINTS), st.booleans()).map(
        lambda c: sweep + ["--levels", "3", "--grid", str(c[0])] + ["--bisect"] * c[1]
    )
    points = st.integers(math.isqrt(MAX_POINTS) // 2 + 1, 10**12).map(lambda n: f"dd:{2 * n}")
    shorthand = st.tuples(st.sampled_from(["verify", "eval"]), points).map(
        lambda c: [c[0], "--mask", str(path / "cantor.json"), "--samples", c[1]]
    )
    return st.one_of(
        st.tuples(st.one_of(lattice, polyline, iterate, line, grid), st.just("")),
        st.tuples(shorthand, st.just("bad sample shorthand")),
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_refused_growth_exits_2_at_once(inputs, data):
    argv, start = data.draw(refused(inputs))
    out, err = io.StringIO(), io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - began
    text = err.getvalue()
    assert code == 2
    assert text.startswith("error: " + start) and text.count("\n") == 1
    assert "Traceback" not in text and out.getvalue() == ""
    if start:
        assert " point pairs, more than 1000000" in text
    else:
        assert ", more than 1000000" in text or " would be finer than Z/" in text
    assert elapsed < SECONDS, (argv, elapsed)
