"""The command line's exit-code contract as one table of cases.

The contract: 0 ok, 1 infeasible, 2 bad input, 3 identity violated, and
never a traceback.  A case with exit code 0 or 3 prints its answer on
standard output and nothing on standard error; a case with exit code 1 or 2
prints one ``infeasible:`` or ``error:`` line on standard error and nothing
on standard output.  Each case gives that one expected output as

- a ``str``: the exact text, without its final newline;
- a ``Prefix``: the start of the one line;
- a ``dict`` or ``list``: the parsed JSON;
- a ``Sha256``: the digest of the exact bytes.

An argument ``{name}`` stands for the path of the input file ``name``, which
``Files`` writes from ``INPUTS`` when a case first asks for it, and
``{out_dir}`` and ``{missing_dir}`` for a directory and a path in a missing
one.  Expected text is formatted the same way, so a brace that the command
prints is written twice.  ``wall`` bounds the seconds of an in-process run.

``tests/test_cli.py`` runs every case in process through ``cli.main``.  Run
as a script, this module runs every case against the installed
``dualsubdiv`` script, one fresh process at a time, each under a 10 second
timeout::

    python tests/cli_cases.py                              # dualsubdiv
    python tests/cli_cases.py python -m dualsubdiv.cli     # any other command
"""

import copy
import functools
import hashlib
import json
import operator
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction as F

import dualsubdiv
from dualsubdiv import catalog
from dualsubdiv.construct import ConstructionProblem, derive
from dualsubdiv.samples import samples_from_shorthand
from test_golden_bytes import DERIVE_GOLDEN, GOLDEN, SWEEP_FAMILIES, SWEEP_GOLDEN


class Prefix(str):
    """The start of the one line a case prints."""


class Sha256(str):
    """The sha256 hex digest of the bytes a case prints."""


@dataclass(frozen=True)
class Case:
    id: str
    args: str  # the argv, split on spaces
    code: int
    expect: object
    wall: float | None = None

    def argv(self, files):
        return [arg.format_map(files) for arg in self.args.split()]


def _edit(payload, *path, value=None):
    """The payload with the entry at ``path`` set to ``value``, or removed
    when that is None."""

    def build():
        data = copy.deepcopy(payload())
        *parents, last = path
        node = functools.reduce(operator.getitem, parents, data)
        if value is None:
            del node[last]
        else:
            node[last] = value
        return data

    return build


def _cantor():
    return catalog.cantor_mask().to_dict()


def _cantor_samples():
    return catalog.cantor_samples().to_dict()


def _line():
    return catalog.quinary_reference_family().to_dict()


FAR = 10**12
EPS = F(1, 9 * 10**4298 + 1)
DIGITS = "1" * 5001

# name -> a function of no arguments that returns the file's JSON payload, or
# its text when that is a str
INPUTS = {
    "cantor": _cantor,
    "points": lambda: "0,0\n1,0\n1,1\n",
    "deep": lambda: "[" * 100000 + "]" * 100000,
    "line": _line,
    "plane": lambda: derive(catalog.quaternary_problem(0)).to_dict(),
    "readme_family": lambda: SWEEP_FAMILIES["readme_quinary"][0]().to_dict(),
    "m11_mask": lambda: derive(ConstructionProblem(
        11, 6, 45, samples_from_shorthand("dd:8"), True)).particular.to_dict(),
    "ternary_mask": lambda: catalog.ternary_cubic_mask().to_dict(),
    "huge_mask": lambda: catalog.quinary_family_mask(10**200).to_dict(),
    "huger_mask": lambda: catalog.quinary_family_mask(10**400).to_dict(),
    # the cantor mask plus (1, -1, -1, 1)/100: tau stays 1/2, the identity fails
    "perturbed": lambda: {"arity": 3, "offset": -1, "coeffs": ["51/100", "99/100", "99/100", "51/100"]},
    # the cantor samples with phi(1/2) moved by 1/100
    "bad_seed": lambda: {"T": 2, "offset": -1, "values": ["1/2", "1", "51/100"]},
    # the ternary box mask: primal, and its difference symbol has one coefficient
    "box": lambda: {"arity": 3, "offset": -1, "coeffs": ["1", "1", "1"]},
    "hat": lambda: {"arity": 2, "offset": -1, "coeffs": ["1/2", "1", "1/2"]},
    "binary_mask": lambda: {"arity": 2, "offset": 0, "coeffs": ["1", "1"]},
    "point_mask": lambda: {"arity": 2, "offset": 0, "coeffs": ["1"]},
    "wide": lambda: {"arity": FAR, "offset": 0, "coeffs": [str(FAR)]},
    "exponent_mask": lambda: {"arity": 3, "offset": -1, "coeffs": ["1e10000000", "1", "1"]},
    "digits_mask": lambda: {"arity": 3, "offset": -1, "coeffs": ["1" * 4301, "1", "1"]},
    "digits_arity_mask": lambda: '{"arity": ' + DIGITS + ', "offset": -1, "coeffs": ["1"]}',
    # the cantor mask with eps = 1/(9 10^4298 + 1) added to its ends and taken
    # from its middle: each numeral has at most 4300 digits, and the residual's more
    "eps_mask": lambda: {"arity": 3, "offset": -1, "coeffs": [
        str(c) for c in (F(1, 2) + EPS, 1 - EPS, 1 - EPS, F(1, 2) + EPS)]},
    "delta": lambda: {"T": 1, "offset": 0, "values": ["1"]},
    "dense_samples": lambda: {"T": 200000, "offset": 0, "values": ["1"]},
    # one sample far from the cantor mask, at an even and an odd offset
    "far": lambda: {"T": 2, "offset": FAR, "values": ["1"]},
    "far_odd": lambda: {"T": 2, "offset": FAR + 1, "values": ["1"]},
    # phi(0) is not 1
    "no_values": lambda: {"T": 2, "offset": 0, "values": []},
    "zero_outside": lambda: {"T": 2, "offset": 1, "values": ["1/2"]},
    "zero_stored": lambda: {"T": 2, "offset": -1, "values": ["1/2", "0", "1/2"]},
    "no_offset_mask": _edit(_cantor, "offset"),
    "no_T_samples": _edit(_cantor_samples, "T"),
    "no_smoothing_family": _edit(_line, "problem", "smoothing"),
    "zero_den_mask": _edit(_cantor, "coeffs", 1, value="1/0"),
    "zero_den_samples": _edit(_cantor_samples, "values", 2, value="1/0"),
    "zero_den_family": _edit(_line, "basis", 0, "coeffs", 0, value="3/0"),
    # a JSON field of the wrong type is rejected, never converted
    "string_coeffs_mask": _edit(_cantor, "coeffs", value="1221"),
    "float_offset_mask": _edit(_cantor, "offset", value=-1.9),
    "float_arity_mask": _edit(_cantor, "arity", value=3.0),
    "float_T_samples": _edit(_cantor_samples, "T", value=2.0),
    "string_values_samples": _edit(_cantor_samples, "values", value="121"),
    "string_symmetric_family": _edit(_line, "problem", "symmetric", value="false"),
    "float_kstar_family": _edit(_line, "problem", "kstar", value=10.0),
    "float_smoothing_family": _edit(_line, "problem", "smoothing", value=3.5),
    "bool_coeff_family": _edit(_line, "basis", 0, "coeffs", value=[True]),
    "string_arity_family": _edit(_line, "basis", 0, "arity", value="x"),
    # each direction and the particular member is a mask of the family's arity
    "arity_7_direction_family": _edit(_line, "basis", 0, "arity", value=7),
    "arity_4_particular_family": _edit(_line, "particular", "arity", value=4),
    "no_arity_direction_family": _edit(_line, "basis", 0, "arity"),
    "zero_direction_family": _edit(_line, "basis", 0, "coeffs", value=["0"] * 20),
}


class Files(dict):
    """name -> path of the input file ``name`` in ``directory``, written the
    first time it is asked for."""

    def __init__(self, directory):
        directory = str(directory)
        super().__init__(out_dir=directory, missing_dir=os.path.join(directory, "no_such_dir"))
        self.directory = directory

    def __missing__(self, name):
        payload = INPUTS[name]()
        path = self[name] = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        return path


def check(case, files, code, out, err):
    """Assert that one run of ``case`` printed what the table expects."""
    said, quiet = (err, out) if case.code in (1, 2) else (out, err)
    want = case.expect
    if isinstance(want, Sha256):
        ok = hashlib.sha256(said.encode()).hexdigest() == want
    elif isinstance(want, (dict, list)):
        try:
            ok = json.loads(said) == want
        except ValueError:
            ok = False
    elif isinstance(want, Prefix):
        ok = said.startswith(want.format_map(files)) and said.count("\n") == 1
    else:
        ok = said == want.format_map(files) + "\n"
    if not (ok and (code, quiet) == (case.code, "") and "Traceback" not in err):
        raise AssertionError(f"{case.id}: exit {code}, stdout {out[:300]!r}, stderr {err[:300]!r}")


BAD_INPUT = [
    Case("eval-negative-depth", "eval --mask {cantor} --samples dd:2 --depth -1", 2,
         "error: depth must be nonnegative"),
    Case("eval-inconsistent-seed", "eval --mask {cantor} --samples {bad_seed} --depth 2", 2,
         "error: refinement equation fails at 0/2: 1 != 101/100"),
    Case("regularity-order-too-high", "regularity --mask {cantor} --order 9", 2,
         "error: no factorization of order 10 for arity 3"),
    Case("regularity-zero-levels", "regularity --mask {cantor} --levels 0", 2,
         "error: need at least one level, got 0"),
    Case("sweep-grid-1", "sweep --family {line} --range=-1:1 --grid 1", 2,
         "error: a grid needs at least 2 points, got 1"),
    Case("bisect-grid-1", "sweep --family {line} --range=-1:1 --grid 1 --bisect", 2,
         "error: a grid needs at least 2 points, got 1"),
    Case("sweep-plane-family", "sweep --family {plane} --range=-1:1 --grid 5", 2,
         "error: parameter sweeps need a one-dimensional family"),
    Case("sweep-zero-levels", "sweep --family {line} --range=-1:1 --levels 0", 2,
         "error: need at least one level, got 0"),
    Case("bisect-zero-levels", "sweep --family {line} --range=-1:1 --levels 0 --bisect", 2,
         "error: need at least one level, got 0"),
    Case("reproduce-negative-depth", "reproduce --mask {cantor} --samples dd:2 --depth -2", 2,
         "error: depth must be nonnegative"),
    Case("eval-zero-denominator-samples", "eval --mask {cantor} --samples mix:1/0", 2,
         "error: bad sample shorthand 'mix:1/0': zero denominator in '1/0'"),
    Case("eval-zero-denominator-mask", "eval --mask {zero_den_mask} --samples dd:2", 2,
         "error: bad mask file {zero_den_mask}: zero denominator in '1/0'"),
    Case("eval-zero-denominator-sample-file", "eval --mask {cantor} --samples {zero_den_samples}", 2,
         "error: bad sample file {zero_den_samples}: zero denominator in '1/0'"),
    Case("sweep-zero-denominator-family", "sweep --family {zero_den_family} --range=-1:1", 2,
         "error: bad family file {zero_den_family}: zero denominator in '3/0'"),
    Case("regularity-negative-order", "regularity --mask {cantor} --order -1", 2,
         "error: order must be nonnegative, got -1"),
    Case("sweep-negative-order", "sweep --family {line} --range=-1:1 --order -1", 2,
         "error: order must be nonnegative, got -1"),
    Case("bisect-negative-order", "sweep --family {line} --range=-1:1 --order -1 --bisect", 2,
         "error: order must be nonnegative, got -1"),
    Case("curve-negative-steps", "curve --mask {cantor} --points {points} --steps -1", 2,
         "error: steps must be nonnegative, got -1"),
    Case("reproduce-negative-maxdeg", "reproduce --mask {cantor} --samples dd:2 --maxdeg -1", 2,
         "error: max degree must be nonnegative, got -1"),
    Case("sweep-infinite-range", "sweep --family {line} --range=0:inf --grid 2", 2,
         "error: bad range '0:inf': bounds must be finite"),
    Case("sweep-nan-range", "sweep --family {line} --range=nan:1 --grid 2", 2,
         "error: bad range 'nan:1': bounds must be finite"),
    Case("sweep-overflowing-range", "sweep --family {line} --range=-1e308:1e308 --grid 3", 2,
         "error: bad range '-1e308:1e308': width must be finite"),
    Case("bisect-overflowing-range", "sweep --family {line} --range=-1e308:1e308 --grid 3 --bisect", 2,
         "error: bad range '-1e308:1e308': width must be finite"),
    Case("derive-arity-1", "derive --arity 1 --smoothing 1 --kstar 2 --samples dd4", 2,
         "error: arity must be at least 2"),
    Case("derive-kstar-0", "derive --arity 3 --smoothing 1 --kstar 0 --samples dd4", 2,
         "error: k* must be at least 1"),
    Case("derive-zero-point-samples", "derive --arity 3 --smoothing 1 --kstar 2 --samples dd:0", 2,
         "error: bad sample shorthand 'dd:0': dd:N requires an even point count N >= 2"),
    Case("derive-dd-1002", "derive --arity 3 --smoothing 1 --kstar 2 --samples dd:1002", 2,
         "error: bad sample shorthand 'dd:1002': dd:1002 would need 1004004 point pairs, more than 1000000"),
    Case("derive-kstar-51", "derive --arity 3 --smoothing 1 --kstar 51 --samples dd:2", 2,
         "error: a system of 105 rows and 100 unknowns would need 1050000 elimination steps,"
         " more than 1000000"),
    Case("verify-mask-without-offset", "verify --mask {no_offset_mask} --samples dd:2", 2,
         "error: bad mask file {no_offset_mask}: missing key 'offset'"),
    Case("regularity-mask-without-offset", "regularity --mask {no_offset_mask}", 2,
         "error: bad mask file {no_offset_mask}: missing key 'offset'"),
    Case("sweep-family-without-smoothing", "sweep --family {no_smoothing_family} --range=-1:1", 2,
         "error: bad family file {no_smoothing_family}: missing key 'smoothing'"),
    Case("eval-samples-without-T", "eval --mask {cantor} --samples {no_T_samples}", 2,
         "error: bad sample file {no_T_samples}: missing key 'T'"),
    Case("sweep-overflowing-grid", "sweep --family {line} --range=-1.7e308:0 --grid 3", 2,
         "error: bad range '-1.7e308:0': a grid point overflows"),
    Case("sweep-overflowing-bound", "sweep --family {line} --range=1e307:1.7e308 --grid 2 --order 2", 2,
         "error: a bound on range '1e307:1.7e308' is not finite:"
         " Out of range float values are not JSON compliant: inf"),
    Case("regularity-out-missing-dir", "regularity --mask {cantor} --out {missing_dir}/x.json", 2,
         "error: cannot write {missing_dir}/x.json:"
         " [Errno 2] No such file or directory: '{missing_dir}/x.json'"),
    Case("regularity-out-directory", "regularity --mask {cantor} --out {out_dir}", 2,
         "error: cannot write {out_dir}: [Errno 21] Is a directory: '{out_dir}'"),
    Case("derive-out-missing-dir",
         "derive --arity 3 --smoothing 1 --kstar 2 --samples dd:2 --symmetric --out {missing_dir}/x.json", 2,
         "error: cannot write {missing_dir}/x.json:"
         " [Errno 2] No such file or directory: '{missing_dir}/x.json'"),
    Case("derive-out-directory",
         "derive --arity 3 --smoothing 1 --kstar 2 --samples dd:2 --symmetric --out {out_dir}", 2,
         "error: cannot write {out_dir}: [Errno 21] Is a directory: '{out_dir}'"),
    Case("verify-mask-string-coeffs", "verify --mask {string_coeffs_mask} --samples dd:2", 2,
         "error: bad mask file {string_coeffs_mask}: 'coeffs' must be of type list, got '1221'"),
    Case("regularity-mask-float-offset", "regularity --mask {float_offset_mask}", 2,
         "error: bad mask file {float_offset_mask}: 'offset' must be of type int, got -1.9"),
    Case("regularity-mask-float-arity", "regularity --mask {float_arity_mask}", 2,
         "error: bad mask file {float_arity_mask}: 'arity' must be of type int, got 3.0"),
    Case("eval-samples-float-T", "eval --mask {cantor} --samples {float_T_samples}", 2,
         "error: bad sample file {float_T_samples}: 'T' must be of type int, got 2.0"),
    Case("verify-samples-string-values", "verify --mask {cantor} --samples {string_values_samples}", 2,
         "error: bad sample file {string_values_samples}: 'values' must be of type list, got '121'"),
    Case("sweep-family-string-symmetric", "sweep --family {string_symmetric_family} --range=-1:1", 2,
         "error: bad family file {string_symmetric_family}:"
         " 'symmetric' must be of type bool, got 'false'"),
    Case("sweep-family-float-kstar", "sweep --family {float_kstar_family} --range=-1:1", 2,
         "error: bad family file {float_kstar_family}: 'kstar' must be of type int, got 10.0"),
    Case("sweep-family-float-smoothing", "sweep --family {float_smoothing_family} --range=-1:1", 2,
         "error: bad family file {float_smoothing_family}: 'smoothing' must be of type int, got 3.5"),
    Case("sweep-family-bool-coefficient", "sweep --family {bool_coeff_family} --range=-1:1", 2,
         "error: bad family file {bool_coeff_family}: refusing to coerce bool True to an exact rational"),
    Case("sweep-family-string-direction-arity", "sweep --family {string_arity_family} --range=-1:1", 2,
         "error: bad family file {string_arity_family}: 'arity' must be of type int, got 'x'"),
    Case("sweep-family-direction-arity-7", "sweep --family {arity_7_direction_family} --range=-1:1", 2,
         "error: bad family file {arity_7_direction_family}: a mask of arity 7 in a family of arity 5"),
    Case("sweep-family-particular-arity-4", "sweep --family {arity_4_particular_family} --range=-1:1", 2,
         "error: bad family file {arity_4_particular_family}: a mask of arity 4 in a family of arity 5"),
    Case("sweep-family-direction-without-arity", "sweep --family {no_arity_direction_family} --range=-1:1",
         2, "error: bad family file {no_arity_direction_family}: missing key 'arity'"),
    Case("sweep-family-zero-direction", "sweep --family {zero_direction_family} --range=-1:1", 2,
         "error: bad family file {zero_direction_family}: mask must have at least one nonzero coefficient"),
    Case("regularity-norm-overflow", "regularity --mask {huge_mask} --levels=2", 2,
         "error: a value is beyond the float range: integer division result too large for a float"),
    Case("eval-value-overflow", "eval --mask {huge_mask} --samples dd4 --depth 2", 2,
         "error: a value is beyond the float range: integer division result too large for a float"),
    Case("curve-weight-overflow", "curve --mask {huger_mask} --points {points} --steps 1", 2,
         "error: a value is beyond the float range: integer division result too large for a float"),
    # every numeral read, whatever digit limit the interpreter keeps
    Case("regularity-coefficient-digits", "regularity --mask {digits_mask}", 2,
         "error: bad mask file {digits_mask}: a numeral of 4301 digits exceeds 4300"),
    Case("regularity-arity-digits", "regularity --mask {digits_arity_mask}", 2,
         "error: cannot read JSON from {digits_arity_mask}: a numeral of 5001 digits exceeds 4300"),
    Case("regularity-levels-digits", f"regularity --mask {{cantor}} --levels {DIGITS}", 2,
         "error: argument --levels: a numeral of 5001 digits exceeds 4300"),
    Case("derive-dd-digits", f"derive --arity 3 --smoothing 1 --kstar 2 --samples dd:{DIGITS}", 2,
         f"error: bad sample shorthand 'dd:{DIGITS}': a numeral of 5001 digits exceeds 4300"),
    Case("eval-runaway-depth", "eval --mask {cantor} --samples dd:2 --depth 40", 2,
         "error: level 12 of a lattice of depth 40 would need 1594323 points, more than 1000000"),
    Case("reproduce-runaway-depth", "reproduce --mask {cantor} --samples dd:2 --depth 40", 2,
         "error: level 12 of a lattice of depth 40 would need 1594323 points, more than 1000000"),
    Case("curve-runaway-steps", "curve --mask {cantor} --points {points} --steps 40", 2,
         "error: level 12 of a polyline of 40 steps would need 1860043 points, more than 1000000"),
    Case("curve-closed-runaway-steps", "curve --mask {cantor} --points {points} --steps 40 --closed", 2,
         "error: level 12 of a polyline of 40 steps would need 1594323 points, more than 1000000"),
    Case("eval-one-point-support-depth-15000", "eval --mask {point_mask} --samples {delta} --depth 15000",
         2, "error: a lattice of depth 15000 would be finer than Z/1000001"),
    Case("eval-one-point-support-depth-1000000",
         "eval --mask {point_mask} --samples {delta} --depth 1000000", 2,
         "error: a lattice of depth 1000000 would be finer than Z/1000001"),
    Case("reproduce-one-point-support-depth-1000000",
         "reproduce --mask {point_mask} --samples {delta} --depth 1000000", 2,
         "error: a lattice of depth 1000000 would be finer than Z/1000001"),
    Case("verify-refinability-dense-lattice",
         "verify --mask {ternary_mask} --samples {dense_samples} --form refinability", 2,
         "error: the product A(z^200000) V(z) would need 2600001 entries, more than 1000000"),
    Case("eval-dense-seed-depth-0", "eval --mask {ternary_mask} --samples {dense_samples} --depth 0", 2,
         "error: the product A(z^200000) V(z) would need 2600001 entries, more than 1000000"),
    Case("reproduce-dense-seed-depth-0",
         "reproduce --mask {ternary_mask} --samples {dense_samples} --depth 0", 2,
         "error: the product A(z^200000) V(z) would need 2600001 entries, more than 1000000"),
    Case("regularity-runaway-levels", "regularity --mask {cantor} --levels=40", 2,
         "error: level 14 of an iterate of 40 levels would need 2391485 entries, more than 1000000"),
    Case("sweep-runaway-levels", "sweep --family {line} --range=-1:1 --levels=40", 2,
         "error: level 8 of an iterate of 40 levels would need 1464841 entries, more than 1000000"),
    Case("bisect-runaway-levels", "sweep --family {line} --range=-1:1 --levels=40 --bisect", 2,
         "error: level 8 of an iterate of 40 levels would need 1464841 entries, more than 1000000"),
    # a cascade that never fills meets the density bound instead
    Case("regularity-box-levels-14", "regularity --mask {box} --levels 14", 2,
         "error: an iterate of 14 levels would be finer than Z/2000002"),
    Case("regularity-box-levels-8000", "regularity --mask {box} --levels 8000", 2,
         "error: an iterate of 8000 levels would be finer than Z/2000002"),
    # the sweep total: grid points times the iterate's entries; it refuses
    # every grid of more than 1000000 points, and one of more than an index holds
    Case("sweep-grid-above-cap", "sweep --family {line} --range=-1:1 --grid 1000001", 2,
         "error: level 1 of a sweep of 1000001 points at 3 levels would need 16000016 entries,"
         " more than 1000000"),
    Case("bisect-grid-above-cap", "sweep --family {line} --range=-1:1 --grid 1000001 --bisect", 2,
         "error: level 1 of a sweep of 1000001 points at 3 levels would need 16000016 entries,"
         " more than 1000000"),
    Case("sweep-grid-20001-levels-3", "sweep --family {readme_family} --levels 3 --range=-2:2 --grid 20001",
         2, "error: level 2 of a sweep of 20001 points at 3 levels would need 1820091 entries, more than 1000000"),
    Case("sweep-grid-1000000", "sweep --family {readme_family} --range=-2:2 --grid 1000000", 2,
         "error: level 1 of a sweep of 1000000 points at 3 levels would need 16000000 entries,"
         " more than 1000000"),
    Case("bisect-grid-1000000", "sweep --family {readme_family} --range=-2:2 --grid 1000000 --bisect", 2,
         "error: level 1 of a sweep of 1000000 points at 3 levels would need 16000000 entries,"
         " more than 1000000"),
    Case("bisect-grid-10-to-20", f"sweep --family {{line}} --range=-1:1 --grid {10**20} --bisect", 2,
         f"error: level 1 of a sweep of {10**20} points at 3 levels would need {16 * 10**20} entries,"
         " more than 1000000"),
    # json.load's RecursionError, whose text varies across Python versions
    Case("verify-deeply-nested-mask", "verify --mask {deep} --samples dd4", 2,
         Prefix("error: cannot read JSON from {deep}: maximum recursion depth exceeded")),
    Case("verify-deeply-nested-samples", "verify --mask {cantor} --samples {deep}", 2,
         Prefix("error: cannot read JSON from {deep}: maximum recursion depth exceeded")),
    Case("sweep-deeply-nested-family", "sweep --family {deep} --range=-1:1", 2,
         Prefix("error: cannot read JSON from {deep}: maximum recursion depth exceeded")),
]

# each ran 10-15 s before it was refused in closed form
RUNAWAY = [
    Case("derive-kstar-300", "derive --arity 3 --smoothing 1 --kstar 300 --samples dd:2", 2,
         "error: a system of 603 rows and 598 unknowns would need 215635212 elimination steps,"
         " more than 1000000", wall=0.05),
    Case("derive-mix-exponent", "derive --arity 3 --smoothing 1 --kstar 2 --samples mix:1e10000000", 2,
         "error: bad sample shorthand 'mix:1e10000000': exponent 10000000 exceeds 4300 in magnitude",
         wall=0.05),
    Case("regularity-coefficient-exponent", "regularity --mask {exponent_mask}", 2,
         "error: bad mask file {exponent_mask}: exponent 10000000 exceeds 4300 in magnitude", wall=0.05),
]

# the residual is summed window by window, so a sample 10^12 lattice steps
# from the mask, or an arity of 10^12, costs no more than a near one
FAR_IDENTITY = [
    Case("refinability-far-samples", "verify --mask {cantor} --samples {far} --form refinability", 3,
         {"satisfied": False, "residual": [[FAR - 1, "-1/2"], [3 * FAR, "1/2"]]}, wall=0.05),
    Case("dual-far-odd-samples", "verify --mask {cantor} --samples {far_odd}", 3,
         {"satisfied": False, "residual": [[-3, "-1/4"], [0, "1/2"], [3, "-1/4"], [FAR + 2, "-1/2"],
                                           [3 * FAR + 3, "1/2"]]}, wall=0.05),
    Case("refinability-huge-arity", "verify --mask {wide} --samples dd4 --form refinability", 3,
         {"satisfied": False, "residual": [[-3 * FAR, "-1/32"], [-FAR, "9/32"], [0, f"{1 - FAR}/2"],
                                           [FAR, "9/32"], [3 * FAR, "-1/32"]]}, wall=0.05),
]

# the residual's coefficients have more digits than the interpreter's default
# limit prints; the answer is the same under any limit
DIGIT_LIMIT = [
    Case("refinability-eps-mask", "verify --mask {eps_mask} --samples dd4 --form refinability", 3,
         Sha256("a928467d641d3b06d6ced1e0b485bf30c54dec06dbd87cc55827727aeb0d4396")),
]

# the first printed the Cantor mask with exit 0 and the second exited 1 as
# infeasible: phi(0) = 1 was checked only where 0 was stored
PHI_OF_ZERO = [
    Case(id, f"derive --arity 3 --smoothing 1 --kstar 2 --samples {{{name}}}", 2,
         "error: samples must take delta values at the integers")
    for id, name in [("no-values", "no_values"), ("zero-outside-the-window", "zero_outside"),
                     ("zero-stored-as-0", "zero_stored")]
]

# the hat lattice at depth 0 reproduces every degree; each call took seconds
# while the loop ran up to --maxdeg
DEGREE_LOOP = [
    Case("hat-delta-every-degree", "reproduce --mask {hat} --samples {delta} --depth 0 --maxdeg 1000000",
         0, {"degree": 1000000}, wall=0.05),
    Case("cantor-depth-6", "reproduce --mask {cantor} --samples dd:2 --depth 6 --maxdeg 400", 0,
         {"degree": 0}, wall=0.05),
]

USAGE = [
    Case("malformed", "reproduce --maxdeg x", 2, "error: argument --maxdeg: invalid int value: 'x'"),
    Case("unknown", "reproduce --mask m.json --samples dd4 --tol 1e-8", 2,
         "error: unrecognized arguments: --tol 1e-8"),
    Case("no-command", "", 2, "error: the following arguments are required: command"),
]


def _both_modes(id, faults, message):
    """A sweep with several faults, in grid and in --bisect mode: both check
    the grid count (at least 2), a grid point's overflow, the family's
    dimension, --order, --levels, the iterate and the sweep total in that
    order."""
    args = f"sweep --family {{line}} --range=-1:1 {faults}"
    return Case(id, args, 2, message), Case(f"{id}-bisect", f"{args} --bisect", 2, message)


SWEEP_MODES = [
    _both_modes("count-levels", "--grid 1 --levels 0", "error: a grid needs at least 2 points, got 1"),
    _both_modes("count-order", "--grid 1 --order -1", "error: a grid needs at least 2 points, got 1"),
    _both_modes("overflow-levels", "--range=-1.7e308:0 --grid 3 --levels 0",
                "error: bad range '-1.7e308:0': a grid point overflows"),
    _both_modes("dimension-order", "--family {plane} --order -1",
                "error: parameter sweeps need a one-dimensional family"),
    _both_modes("order-levels", "--order -1 --levels 0", "error: order must be nonnegative, got -1"),
    _both_modes("levels-total", "--levels 0 --grid 1000000", "error: need at least one level, got 0"),
    _both_modes("iterate-total", "--levels 40 --grid 1000000",
                "error: level 8 of an iterate of 40 levels would need 1464841 entries, more than 1000000"),
]

# one case per exception class that main maps to an exit code
EXCEPTIONS = [
    Case("InvalidWindow", "derive --arity 3 --smoothing 4 --kstar 1 --samples dd4", 2,
         "error: no unknowns: 2k* - d(m-1) = -6 < 1"),
    Case("ShiftMismatch", "verify --mask {box} --samples dd:2", 2,
         "error: dual forms require tau = 1/2, got 0"),
    Case("ShiftLatticeMismatch", "verify --mask {cantor} --samples {delta} --form refinability", 2,
         "error: tau*T = 1/2 is not an integer"),
    Case("ArityTwoUnsupported", "verify --mask {binary_mask} --samples dd4", 2,
         "error: arity 2 admits no convergent dual interpolatory scheme: the identity forces boundary"
         " mask elements equal to 1, which rules out contractivity"),
    Case("SeedInconsistent", "eval --mask {cantor} --samples {bad_seed}", 2,
         "error: refinement equation fails at 0/2: 1 != 101/100"),
    Case("NoContractivePoint", "sweep --family {line} --order 2 --range=5:6 --bisect", 2,
         "error: no contractive parameter among 129 samples in [5.0, 6.0]"),
    Case("NotDivisible", "regularity --mask {cantor} --order 9", 2,
         "error: no factorization of order 10 for arity 3"),
    Case("GridOverflow", "sweep --family {line} --range=-8e307:8e307 --grid 3", 2,
         "error: bad range '-8e307:8e307': a grid point overflows"),
    Case("InfeasibleProblem", "derive --arity 3 --smoothing 4 --kstar 5 --samples dd4 --symmetric", 1,
         "infeasible: no dual interpolatory mask with arity 3, smoothing order 4, k* = 5 and symmetry"
         " for these samples"),
    Case("CliError", "verify --mask no/such/file.json --samples dd4", 2,
         "error: cannot read JSON from no/such/file.json:"
         " [Errno 2] No such file or directory: 'no/such/file.json'"),
    Case("OverflowError", "regularity --mask {huge_mask} --levels=2", 2,
         "error: a value is beyond the float range: integer division result too large for a float"),
]

# answers; each sha256 is the one that tests/test_golden_bytes.py pins
ANSWERS = [
    Case("corpus", "corpus", 0, "\n".join([
        "PASS cantor-derive: unique mask {{1/2, 1, 1, 1/2}}",
        "PASS cantor-identity: dual interpolatory identity",
        "PASS ternary-derive: unique 14-entry mask",
        "PASS ternary-infeasible: k* in {{5, 6}} infeasible",
        "PASS ternary-identity: dual interpolatory identity",
        "PASS quinary-family: dimension 1; members at w in {{0, -7/5, 10}}",
        "PASS quinary-identity: dual interpolatory identity at w=0",
        "PASS quaternary-families: dimension 2 at w in {{0, 1/2, 1}}; reference members",
        "PASS quaternary-quartic-half: frozen first-half coefficients",
        "PASS quaternary-identity: dual interpolatory identity",
    ])),
    Case("derive-readme-quinary", "derive --arity 5 --smoothing 3 --kstar 10 --samples dd4 --symmetric", 0,
         Sha256(DERIVE_GOLDEN["m5-d3-k10-dd4/derive"])),
    # the float family line at order 2 and level 4, sampled and bisected
    Case("sweep-readme-quinary", "sweep --family {readme_family} --order 2 --levels 4 --range=-2.5:0 --grid 33",
         0, Sha256(SWEEP_GOLDEN["readme_quinary/o2-l4"][1])),
    Case("bisect-readme-quinary",
         "sweep --family {readme_family} --order 2 --levels 4 --range=-2.5:0 --grid 33 --bisect", 0,
         Sha256(SWEEP_GOLDEN["readme_quinary/o2-l4-bisect"][1])),
    # its iterates are palindromes, so this runs the mirrored integer product
    Case("regularity-cantor-levels-6", "regularity --mask {cantor} --levels 6", 0,
         Sha256(GOLDEN["cantor/regularity-o0"])),
    # 81 lattice points on [-3/4, 3/4] over 54: a palindrome, printed as mirrored columns
    Case("eval-cantor-depth-3", "eval --mask {cantor} --samples dd:2 --depth 3", 0,
         Sha256(GOLDEN["cantor/eval"])),
    # the largest design-grid shape: its family's masks are d = 6 passes of
    # running sums over b, where the smoothing factor has 61 terms
    Case("derive-m11", "derive --arity 11 --smoothing 6 --kstar 45 --samples dd:8 --symmetric", 0,
         Sha256(DERIVE_GOLDEN["m11-d6-k45-dd8/derive"])),
    Case("verify-m11", "verify --mask {m11_mask} --samples dd:8", 0, {"satisfied": True, "residual": []}),
    Case("verify-perturbed-mask", "verify --mask {perturbed} --samples dd:2", 3,
         {"satisfied": False, "residual": [[-3, "-1/200"], [0, "1/200"], [3, "-1/200"]]}),
]

CASES = [*BAD_INPUT, *RUNAWAY, *FAR_IDENTITY, *DIGIT_LIMIT, *PHI_OF_ZERO, *DEGREE_LOOP, *USAGE,
         *(case for pair in SWEEP_MODES for case in pair), *EXCEPTIONS, *ANSWERS]

MODULE = (sys.executable, "-m", "dualsubdiv.cli")


def fresh_process(command, argv, cwd, stdout=subprocess.PIPE, timeout=10):
    """Exit code, stdout and stderr of ``command`` run on ``argv`` in a new
    process, which imports the dualsubdiv package this interpreter imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualsubdiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([*command, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True,
                          cwd=cwd, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def main(command):
    """Run every case in a fresh ``command`` process, one at a time; exit 1
    when a case fails."""
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        files = Files(directory)
        for case in CASES:
            try:
                check(case, files, *fresh_process(command, case.argv(files), directory))
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failed += 1
                print(f"FAIL {exc}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass: {' '.join(command)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["dualsubdiv"]))
