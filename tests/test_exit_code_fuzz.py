"""A fuzzer of the command line's exit-code contract, seeded from the cases of
``tests/cli_cases.py``.

Each example takes one case and mutates its argv (an integer option set to an
extreme value, or one token replaced by a malformed one) or one field of one
of its JSON input files (a value of the wrong type, a huge integer, a lattice
density T from 1 to 10^7, a refused numeral), then runs ``cli.main`` in this
process.  Whatever the input, the exit code is 0, 1, 2 or 3; an exit 1 or 2
prints exactly one ``infeasible:`` or ``error:`` line; no traceback is
printed; and the call ends within a wall bound.

No mutation asks for work that no rule bounds.  An integer option is at most
1, which is refused or cheap, or at least 10^7, which the work budget, the
construction window, the factorization or the numeral rule refuses before any
work, or which only caps a loop that stops earlier (``--maxdeg``).  A numeral
string is one that the numeral rule refuses, and a lattice density T of up
to 10^7 is either within the work budget or refused by it.  No example starts
a thread or a process.
"""

import argparse
import contextlib
import io
import json
import os
import re
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import cli_cases
from dualsubdiv.cli import build_parser, main

# command -> its integer options
COMMANDS, = (action.choices for action in build_parser()._actions
             if isinstance(action, argparse._SubParsersAction))
INT_OPTIONS = {
    name: [action.option_strings[0] for action in parser._actions
           if getattr(action.type, "__name__", None) == "int"]
    for name, parser in COMMANDS.items()
}
SECONDS = 1.0

# an integer option's extreme values, and a numeral beyond 4300 digits
EXTREME = st.one_of(
    st.integers(-10**12, 1),
    st.integers(10**7, 10**4300 - 1),
    st.integers(4301, 6000).map(lambda n: "9" * n),
).map(str)
# tokens of the wrong form: not a number, not finite, a refused numeral, a
# shorthand whose number a rule refuses, an option or a command that is none
MALFORMED = st.sampled_from([
    "x", "", "-", "--", "nan", "inf", "-inf", "1.5", "1e400", "1/0", "0x10", "+-1", "٣",
    "dd:", "dd:0", "dd:3", "dd:-2", "dd:" + "2" * 4301, "dd:10000000", "mix:", "mix:1e10000",
    "mix:1/0", "mix:" + "1" * 4301, "--range", "--range=1:0", "--range=nan:1", "--form",
    "--bisect", "--closed", "--symmetric", "--nope", "verify", "sweep", "no/such/file.json",
])
# JSON values of the wrong type, huge integers and refused numerals
HUGE_DIGITS = "1" * 5001  # written into the JSON text as an integer
JSON_VALUE = st.one_of(
    st.sampled_from([None, True, False, 1.5, -0.0, "x", "", [], {}, ["1"], [None], {"T": 2}]),
    st.integers(1 - 10**4300, 10**4300 - 1),
    st.sampled_from(["1e10000", "1" * 4301, "1/" + "3" * 4301, "1/0", "0", "-1", "0x1", "1e4301",
                     HUGE_DIGITS]),
)


def _json_inputs(case, files):
    """name -> payload of each JSON input file that ``case`` reads."""
    inputs = {}
    for name in re.findall(r"\{(\w+)\}", case.args):
        if name in cli_cases.INPUTS:
            try:
                with open(files[name], encoding="utf-8") as fh:
                    inputs[name] = json.load(fh)
            except (ValueError, RecursionError):  # not JSON, or JSON too deep to mutate
                pass
    return inputs


def _paths(node, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def mutated(draw, files):
    """The argv of one case of the table with one mutation."""
    case = draw(st.sampled_from(cli_cases.CASES))
    argv = case.argv(files)
    inputs = _json_inputs(case, files)
    kind = draw(st.sampled_from(["option", "token", "json"]))
    options = INT_OPTIONS.get(argv[0] if argv else None)
    if kind == "option" and options:
        argv += [draw(st.sampled_from(options)), draw(EXTREME)]
    elif kind == "token" and argv:
        # the path after --out is kept: a mutated one would write a file
        spots = [i for i in range(len(argv)) if i == 0 or argv[i - 1] != "--out"]
        argv[draw(st.sampled_from(spots))] = draw(MALFORMED)
    elif kind == "json" and inputs:
        name = draw(st.sampled_from(sorted(inputs)))
        data = inputs[name]
        path = draw(st.sampled_from(list(_paths(data))))
        value = draw(st.integers(1, 10**7)) if path[-1:] == ("T",) and draw(st.booleans()) else draw(JSON_VALUE)
        if path:
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            data = value
        text = json.dumps(data).replace(json.dumps(HUGE_DIGITS), HUGE_DIGITS)
        mutant = os.path.join(files.directory, "mutant.json")
        with open(mutant, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [mutant if arg == files[name] else arg for arg in argv]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return cli_cases.Files(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_mutated_case_keeps_the_exit_code_contract(files, data):
    argv = data.draw(mutated(files))
    out, err = io.StringIO(), io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - began
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out + err, argv
    if code in (1, 2):
        assert out == "" and err.count("\n") == 1, argv
        assert err.startswith("infeasible: " if code == 1 else "error: "), argv
    assert elapsed < SECONDS, (argv, elapsed)
