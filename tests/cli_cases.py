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

This table is the one place that pins a CLI answer: the exact answers of
every command on the catalog masks, one asymmetric mask, a slice of the
design grid and three sweep families are generated from compact specs at
its end, each a ``Sha256``, and the commands of README.md's "Command line"
block are cases too.  ``tests/test_cli.py`` runs the cases in process
through ``cli.main``, one test per section, and ``tests/test_golden_bytes.py``
runs the groups of ``GOLDEN`` through the same runner, one test per mask,
derive chain and family.  Run as a script, this module runs every case
against the installed ``dualsubdiv`` script, one fresh process at a time,
each under a 10 second timeout::

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
from dataclasses import dataclass, replace
from fractions import Fraction as F

import dualsubdiv
from dualsubdiv import catalog
from dualsubdiv.construct import ConstructionProblem, derive
from dualsubdiv.samples import samples_from_shorthand


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


@functools.cache
def _derived(m, d, k_star, samples, symmetric):
    """The family of ``derive`` on these arguments."""
    return derive(ConstructionProblem(m, d, k_star, samples_from_shorthand(samples), symmetric))


FAR = 10**12
EPS = F(1, 9 * 10**4298 + 1)
DIGITS = "1" * 5001

# name -> a function of no arguments that returns the file's JSON payload, or
# its text when that is a str
INPUTS = {
    "cantor": _cantor,
    "points": lambda: "0,0\n1,0\n1,1\n",
    "square": lambda: "x,y\n0,0\n1,0\n1,1\n0,1\n",
    # zero, negative and inexact coordinates
    "polygon": lambda: "x,y\n0,0\n1.5,-0.25\n2.1,1.3\n0.7,2.2\n-0.9,1.1\n",
    "segment": lambda: "x,y\n0.3,-1.7\n2.9,0.4\n",
    "deep": lambda: "[" * 100000 + "]" * 100000,
    "line": _line,
    "plane": lambda: derive(catalog.quaternary_problem(0)).to_dict(),
    "readme_family": lambda: _derived(5, 3, 10, "dd4", True).to_dict(),
    # the m = 5 and m = 6 lines that the family-scan benchmark sweeps
    "derived_m5": lambda: _derived(5, 4, 14, "mix:3/5", True).to_dict(),
    "derived_m6": lambda: _derived(6, 4, 15, "mix:3/5", True).to_dict(),
    # a line whose difference symbols are not palindromes
    "nonsymmetric_m3": lambda: _derived(3, 4, 7, "dd4", False).to_dict(),
    "cantor_samples": _cantor_samples,
    "ternary_mask": lambda: catalog.ternary_cubic_mask().to_dict(),
    "quinary_w0": lambda: catalog.quinary_family_mask(0).to_dict(),
    "quinary_w_minus_7_5": lambda: catalog.quinary_family_mask(F(-7, 5)).to_dict(),
    "quinary_w10": lambda: catalog.quinary_family_mask(10).to_dict(),
    "quartic": lambda: catalog.quaternary_quartic_mask().to_dict(),
    "quaternary_cubic": lambda: catalog.quaternary_family_mask(
        F(1, 2), *catalog.quaternary_cubic_params(F(1, 2))).to_dict(),
    # a member of `derive --arity 3 --smoothing 1 --kstar 4 --samples dd:2` that
    # is not symmetric: its dd:2 lattice at depth 2 runs from -31 to 13 over 18,
    # so neither its values nor its x magnitudes mirror
    "asymmetric": lambda: {"arity": 3, "offset": -3, "coeffs": ["1/2", "-1/2", "1/2", "1/2", "3/2", "1/2"]},
    "huge_mask": lambda: catalog.quinary_family_mask(10**200).to_dict(),
    # its level-2 rooted norm, (1 / 10^400)^(1/2), underflows to 0.0
    "tiny_mask": lambda: {"arity": 3, "offset": 0, "coeffs": ["1e-200", "1e-200", "1e-200"]},
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
    # the cantor samples in other spellings of Python 3.11's rational grammar
    "underscore_samples": lambda: {"T": 2, "offset": -1, "values": ["1_0/2_0", "1", "5_0/1_00"]},
    "spaced_samples": lambda: {"T": 2, "offset": -1, "values": ["1 / 2", "1", "1/2"]},
    "letter_d_samples": lambda: {"T": 2, "offset": -1, "values": ["1.d", "1", "1/2"]},
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
    # the list of choices after it is worded differently across Python versions
    Case("unknown-command", "frobnicate", 2,
         Prefix("error: argument command: invalid choice: 'frobnicate'")),
    Case("option-before-command", "--symmetric corpus", 2, "error: unrecognized arguments: --symmetric"),
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
    # the total alone bounds the count, even where no float holds it
    *(_both_modes(f"total-10-to-{n}", f"--grid {10**n}", f"error: level 1 of a sweep of {10**n} points at 3"
                  f" levels would need {16 * 10**n} entries, more than 1000000") for n in (30, 309)),
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

# the digest of no output: a command that writes its answer to --out
NOTHING = Sha256(hashlib.sha256(b"").hexdigest())
SATISFIED = {"satisfied": True, "residual": []}

# one rational grammar, Python 3.11's with its "d*" typo corrected, on every
# Python: 3.10's Fraction refused underscores, 3.12's read "1 / 2", and 3.11's
# read a literal d after the point and then failed in int()
GRAMMAR = [
    Case("verify-underscore-samples", "verify --mask {cantor} --samples {underscore_samples}", 0, SATISFIED),
    Case("verify-spaced-samples", "verify --mask {cantor} --samples {spaced_samples}", 2,
         "error: bad sample file {spaced_samples}: Invalid literal for Fraction: '1 / 2'"),
    Case("verify-letter-d-samples", "verify --mask {cantor} --samples {letter_d_samples}", 2,
         "error: bad sample file {letter_d_samples}: Invalid literal for Fraction: '1.d'"),
]

# the commands of README.md's "Command line" block, in its order, with its
# mask.json as {ternary_mask} and its family.json as {readme_family}; its
# infeasible derive is the case InfeasibleProblem and its corpus the case corpus
README = [
    Case("readme-derive-mask",
         "derive --arity 3 --smoothing 4 --kstar 7 --samples dd4 --symmetric --out {out_dir}/mask.json", 0,
         NOTHING),
    Case("readme-verify", "verify --mask {ternary_mask} --samples dd4", 0, SATISFIED),
    Case("readme-eval", "eval --mask {ternary_mask} --samples dd4 --depth 4 --out {out_dir}/values.csv", 0,
         NOTHING),
    Case("readme-regularity", "regularity --mask {ternary_mask} --order 2 --levels 3", 0,
         Sha256("2762eb7786b51107624b96ecf7f80f6502823bcb2a18fd6ea5b65375dfeea12a")),
    Case("readme-derive-family",
         "derive --arity 5 --smoothing 3 --kstar 10 --samples dd4 --symmetric --out {out_dir}/family.json", 0,
         NOTHING),
    Case("readme-sweep", "sweep --family {readme_family} --order 0 --levels 3 --range=-2:2 --grid 65", 0,
         Sha256("83e53e192397e03f7d8f7386c141b931c494ec8fe1d970499f93af8f28a14912")),
    Case("readme-bisect", "sweep --family {readme_family} --order 0 --levels 3 --range=-2:2 --bisect", 0,
         Sha256("161b2c36a92841e5aeba74aae961bc94ba288da5bebd8e2cf7a99548dd1124bb")),
    Case("readme-reproduce", "reproduce --mask {ternary_mask} --samples dd4 --maxdeg 5 --depth 4", 0,
         {"degree": 3}),
    Case("readme-curve",
         "curve --mask {ternary_mask} --points {square} --steps 4 --closed --out {out_dir}/curve.csv", 0,
         NOTHING),
]

# the elimination's estimate counts the bits of the system's entries: on a
# 2-CPU machine the two mix:W refusals ran 6 s and 95 s before, and the
# smoothing-order one 69 s
DIGIT_BUDGET = [
    Case("derive-mix-1e100", "derive --arity 11 --smoothing 1 --kstar 45 --samples mix:1e100", 0,
         Sha256("bc97390c419dea0e8f36c0982043db3f83bb12b4bbd98dfc744c9cee4df06e50"), wall=1),
    Case("derive-mix-1e1000", "derive --arity 11 --smoothing 1 --kstar 45 --samples mix:1e1000", 2,
         "error: a system of 29 rows and 80 unknowns of 3327-bit entries would need 2412800"
         " elimination steps, more than 1000000", wall=1),
    Case("derive-mix-1e4300", "derive --arity 11 --smoothing 1 --kstar 45 --samples mix:1e4300", 2,
         "error: a system of 29 rows and 80 unknowns of 14289-bit entries would need 10393600"
         " elimination steps, more than 1000000", wall=1),
    Case("derive-smoothing-8000", "derive --arity 3 --smoothing 8000 --kstar 8001 --samples dd:2", 2,
         "error: a system of 16005 rows and 2 unknowns of 16003-bit entries would need 4033260"
         " elimination steps, more than 1000000", wall=1),
]

# the two largest solves of the table, each under a 0.5 s wall bound: the
# elimination updates only the rows below each pivot that have an entry in its
# column, so in process on a 2-CPU machine these derives take 11 ms and 7 ms,
# against 78 ms and 36 ms with dense Gauss-Jordan; the second is the largest k*
# within the budget for its shape
LARGE_SOLVES = [
    Case("derive-m3-d4-k50-dd4", "derive --arity 3 --smoothing 4 --kstar 50 --samples dd4", 0,
         Sha256("739c3d106bd7142cb1180166d0823044f16f55a30247c6bb1efb5d66b27c1cc9"), wall=0.5),
    Case("derive-m3-d1-k79-dd2-symmetric", "derive --arity 3 --smoothing 1 --kstar 79 --samples dd:2 --symmetric",
         0, Sha256("2345acf3ee6b43bd2afabf47e69861f239354dcb8d3d46084f46ac5538eaf769"), wall=0.5),
]

# the deepest lattice of the table, under a 0.5 s wall bound: 255,879 points on
# Z/39366, whose combs are summed on one period of 39,366 points.  In process
# on a 2-CPU machine it took 0.19-0.24 s, against 1.05-1.10 s with the combs
# summed at every point, so the bound is about twice the one and half the other
LARGE_LATTICES = [
    Case("reproduce-ternary-depth-9", "reproduce --mask {ternary_mask} --samples dd4 --maxdeg 5 --depth 9",
         0, {"degree": 3}, wall=0.5),
]

# the calls of single tests in tests/test_cli.py, which checked less of their
# answers; each runs there under its test's name
SINGLE_CALLS = [
    Case("bad-shorthand", "derive --arity 3 --smoothing 1 --kstar 4 --samples dd:5", 2,
         "error: bad sample shorthand 'dd:5': dd:N requires an even point count N >= 2"),
    Case("bad-range", "sweep --family {line} --order 0 --levels 2 --range oops", 2,
         "error: bad range 'oops', expected a:b"),
    Case("verify-satisfied", "verify --mask {cantor} --samples {cantor_samples}", 0, SATISFIED),
    Case("verify-violation", "verify --mask {cantor} --samples {bad_seed}", 3,
         {"satisfied": False, "residual": [[0, "-1/200"], [3, "1/200"]]}),
    Case("reproduce", "reproduce --mask {cantor} --samples {cantor_samples} --maxdeg 3 --depth 3", 0,
         {"degree": 0}),
    Case("regularity-json", "regularity --mask {cantor} --order 0 --levels 3", 0,
         {"order": 0, "levels": 3, "bounds": [0.5, 0.5, 0.5], "contractive": True,
          "holder_lower_bound": 0.6309297535714574}),
    Case("regularity-underflowing-bound", "regularity --mask {tiny_mask} --levels 2", 0,
         {"order": 0, "levels": 2, "bounds": [1e-200, 0.0], "contractive": True,
          "holder_lower_bound": 419.1806548578769}),
    Case("sweep-grid", "sweep --family {line} --order 0 --levels 2 --range=-1:1 --grid 5", 0,
         Sha256("68f6b1746eec9bab41e20cdc9f8074fd22249bf83792da3c047ceb638ffec333")),
    Case("sweep-bisect", "sweep --family {line} --order 2 --levels 3 --range=-2.5:0 --bisect", 0,
         {"order": 2, "levels": 3, "low": -1.6176792979240417, "high": -0.9999999403953552}),
]

# The pinned answers.  Their floats must not depend on the interpreter, so
# each sha256, recorded on CPython 3.11, holds on every supported Python.

# the sha256 of reproduce's answer {"degree": N}, by N
REPRODUCED = {
    0: "ab2affbf55099248e5e1436154128f73751820cdf23d4b124e5dfe2dd77140d2",
    2: "3ccd0e825a8b7da72f19dfdf9ffae9cd1d496e36e6a07111225bdf9ba7ff2d5f",
    3: "24cac1ba5cb0ef9f6d9a7eab1db6b5ccc23243790fcf041e659dfb92d0056b8b",
    4: "d2d79602949da3221e2d9b405589dcf7afa614507ae37a663c181dd0a3b07ab9",
}

# catalog mask -> (its input, samples, the depth of eval and reproduce and the
# steps of curve, the levels of regularity, the degree that reproduce finds)
CATALOG = {
    "cantor": ("cantor", "dd:2", 3, 6, 0),
    "ternary": ("ternary_mask", "dd4", 3, 6, 3),
    "quinary_w0": ("quinary_w0", "dd4", 2, 4, 2),
    "quinary_w-7_5": ("quinary_w_minus_7_5", "dd4", 2, 4, 2),
    "quinary_w10": ("quinary_w10", "dd4", 2, 4, 2),
    "quartic": ("quartic", "dd6", 2, 4, 4),
    "quaternary_cubic": ("quaternary_cubic", "mix:1/2", 2, 4, 3),
}


def _catalog_args(name, command):
    mask, samples, depth, levels, _ = CATALOG[name]
    mask = f"--mask {{{mask}}}"
    if command.startswith("regularity-o"):
        return f"regularity {mask} --order {command[-1]} --levels {levels}"
    return {
        "eval": f"eval {mask} --samples {samples} --depth {depth}",
        "reproduce": f"reproduce {mask} --samples {samples} --maxdeg 5 --depth {depth}",
        "curve-open": f"curve {mask} --points {{polygon}} --steps {depth}",
        "curve-closed": f"curve {mask} --points {{polygon}} --steps {depth} --closed",
        # one step around 2 points wraps the product in three or more blocks
        # on every mask but Cantor's: a float sum there prints other last
        # digits from Python 3.12 on, where sum is compensated
        "curve-closed-2pt": f"curve {mask} --points {{segment}} --steps 1 --closed",
    }[command]


# '<mask>/<command>' -> the sha256 of its answer; regularity runs the orders
# of the difference schemes that each mask admits
CATALOG_ANSWERS = {
    "cantor/eval": "ecf88b2414f29f50ca13f74d121f33e09276a1c6980e10f87928658d41872306",
    "cantor/curve-open": "8776c454a5ebb8a14ef0e7ac0f307cc564ebcc27660106fbe085036806426f63",
    "cantor/curve-closed": "d31fc334c4d13ab85f2b7a7ab7cdd4413e129f2c77cd16f16916a27ee29f2342",
    "cantor/curve-closed-2pt": "0571e162689efc41dd1fb138247014c7463e7ace403b68282cdad71569fe14e6",
    "cantor/regularity-o0": "027efa9ebe71e14ecc599e8f8570a890a9d5cac7fa40b5d012f17a9819ef5f31",
    "ternary/eval": "738e55a3cde6e84417e145882967a01d1b6c2b49710ebc3cae0ddaa578370a3e",
    "ternary/curve-open": "4ebab718b7b82056d301fcde060060c11023a4b5078b04c1c488bf50f5727ec4",
    "ternary/curve-closed": "c6f2183ebe3ecab9086c91601889c0ac39182010d709d666812fef6f6c3f60ab",
    "ternary/curve-closed-2pt": "64573731ca9b90e5d88fef244ce70941318e608cc642fe7ccdd2afb4c6aebfc8",
    "ternary/regularity-o0": "038b9023041cbfcf3317dc59884c4ef70ea73b8be3aa9a5761b39d5fd8481ec3",
    "ternary/regularity-o1": "93e0e2ca2059e2ab1b49053a6c7f090c81e3e8d343b19d2a7a385aff5073b1ca",
    "ternary/regularity-o2": "56b03614bdcda88e04eca1468d9a8df233220e185051277cd59e58ae9572234f",
    "quinary_w0/eval": "62d4dc3051f85ba1a05e1b128ac46fd8e9b4267e6d560b56ee4370db2feb5848",
    "quinary_w0/curve-open": "38566df890452364ed1cb9276bcd6330d635aad9c549cd752e43d90c071e0f42",
    "quinary_w0/curve-closed": "b9d4c9f8a03b6df58126560f9abf63dcd29456eecee89c04735b97833862100a",
    "quinary_w0/curve-closed-2pt": "211fed96179507123440daf34591096db6d9565eef733b97782d98e6aaf72d1f",
    "quinary_w0/regularity-o0": "a847a8d82b2e8a60d67bd3cf4d430020fff279fe764c512f61118439835085cf",
    "quinary_w0/regularity-o1": "0ac5725730498655f8d79a8b8d6f5580b08b6de141a95906b24e293bdd965a8c",
    "quinary_w0/regularity-o2": "1c7588f4f1345b0040d5119a92bdc3891308ae6c5b5ebfa49d62cac5375df8e9",
    "quinary_w-7_5/eval": "0b6f114847cb78041d280a04a1a189164496be9d14fa4feefb4fac62a41e0a56",
    "quinary_w-7_5/curve-open": "c98c2c8f7737530df1cf764e79c331a692953505a8fb86cf1d67a40eb62ccbd8",
    "quinary_w-7_5/curve-closed": "f493eeaea7ff1a585c02de89d19876bd360303d9d2319375c7eb68456b763d15",
    "quinary_w-7_5/curve-closed-2pt": "305ad3957ed37fe2ef2e00dc5a86e5873df50dce2163e4c96a7a98b4695d6170",
    "quinary_w-7_5/regularity-o0": "a45dbf43d8d0486d53259481df405ba4b44fff781e6185f0285b9d338a2766f6",
    "quinary_w-7_5/regularity-o1": "c34a5dbac9577c68ba7adc43430f19049cd52dfb404f92cde14790ebb90b985b",
    "quinary_w-7_5/regularity-o2": "3c898845ea6b004e3f3136524d2148622f745d695d8975b763c27532879454e9",
    "quinary_w10/eval": "fc77ce9c53b0fd119cf8bd40c73087c834f2724b19e5de656b8d96ba7968da5a",
    "quinary_w10/curve-open": "ad576ac0427931a5f0c9aa7823e07bf31a4f9c10d8c6ba5e68676c1028a0dc03",
    "quinary_w10/curve-closed": "447af1d619aa4fde72f2cc1034ff1c658db98c9aebd869d1d67659265a80da1a",
    "quinary_w10/curve-closed-2pt": "b9db02ddaa80261559a23446fbf42b2bab1aadbdb10dc5a693972ab126101e5b",
    "quinary_w10/regularity-o0": "8cafc987dba4bfbabf7687b067f4c372a9af5ddc9a923aa7dff92807f1be7c7a",
    "quinary_w10/regularity-o1": "14dfc90db10218bd6904b6f5910908b3e5bbe3c23a20a1f2d216371549d74d19",
    "quinary_w10/regularity-o2": "d553c8dab11590917251dcfc82fb3545c0d86600c7e6933a797fe787a7bbf02d",
    "quartic/eval": "24dc4a79227ec1a2d5c4664a9121d58122b6b395565421c48da37946ea435453",
    "quartic/curve-open": "859e0d2229db16f337ef91705f10cfb041d03871b9e4f50281eb79572fa084e3",
    "quartic/curve-closed": "9a76f8ce864cab4c5e0f9b680fb3223973d998605df2c57e5769a249094b8154",
    "quartic/curve-closed-2pt": "c3efe6875d7f24e183e7e6ea9d22fa29c7f1c9d62a100fb47c6f9e5d0da0b3d1",
    "quartic/regularity-o0": "7cfe09e80f32e3df59463547004f92fa4268ee2b4e9abe6c1332905a79f863c8",
    "quartic/regularity-o1": "36d9b1951fa5d0a19dd3c996d96e8c487b98d12193f53c302097a55a21596706",
    "quartic/regularity-o2": "3eef9a8ab0787a28642ca801f9a1f2e0f3e43f284ca356b9fe21544363173133",
    "quaternary_cubic/eval": "5260f1365035216343ad9f89652b0f21535b0b89c664c4b60b4ee374176516bf",
    "quaternary_cubic/curve-open": "af3bcfce37899c655bc51c641eac5e8880201533c40a627d79f5525edc07d3cf",
    "quaternary_cubic/curve-closed": "62c4afed27937764131baefbf46f22086cd5068e4742b52a88b69e51b4bfdb0d",
    "quaternary_cubic/curve-closed-2pt": "656416d9d42fabf54bba4489606d237beee753ca74421701449fbd63deb0bb8c",
    "quaternary_cubic/regularity-o0": "03d8a68ef0893c06ccec16d78fe5eaca5c91d3f36f9e394e255bef85edb8c66b",
    "quaternary_cubic/regularity-o1": "3cf85b3fb36d9b6df6abac028e1671feb6b517c5f3b25c2c4b31dd60590313f1",
    "quaternary_cubic/regularity-o2": "cc166e1233b9f3100897dd5c375f78da2989a2560ed7ea7f73ac88484d6a7f26",
}

ASYMMETRIC_ANSWERS = [
    Case("asymmetric/eval-depth2", "eval --mask {asymmetric} --samples dd:2 --depth 2", 0,
         Sha256("b657f56c1c2861c9021afcf8e1ceaaf96c9dd38ca5586fef5e95b6eddee239a1")),
    Case("asymmetric/eval-depth4", "eval --mask {asymmetric} --samples dd:2 --depth 4", 0,
         Sha256("4e9daea21a4dc1f1633d35104b8d8c1110600cf1a9741622a3d8d4bfb1d43b98")),
    Case("asymmetric/curve-open", "curve --mask {asymmetric} --points {polygon} --steps 3", 0,
         Sha256("2a800c895fbbc4a5ca4cfe5889e9a92a79b4000028b5e65335753ff5d73c76d0")),
    Case("asymmetric/curve-closed", "curve --mask {asymmetric} --points {polygon} --steps 3 --closed", 0,
         Sha256("6404c7599fe8fd5add38ece0076a098caf47af518772d7753c5a5f1fb3465cfc")),
]

# a slice of the design grid: name -> (the arguments of derive, the sha256 of
# its answer, other samples, the sha256 of the residual on them).  verify
# checks the derived mask (a family's particular member) in the dual and the
# refinability form: on the derive's samples it is satisfied, and on the
# other samples both forms print the one residual with exit 3
DERIVE_CHAINS = {
    "m11-d6-k45-dd8": ((11, 6, 45, "dd:8", True),
                       "931a6409f267fc2ba5e36b4912744c0560c379c9d259d9cf85ed9269c78b35e5",
                       "dd:6", "1f2d9b36c41df123ecfb4364c14cc473893afdf333b3008dc516fab95981a222"),
    "m3-d1-k4-dd2-asymmetric": ((3, 1, 4, "dd:2", False),
                                "a6cc4eef600657ead0e0110c7b43d1ec9e39fe9a274e87ba7f0632ee9477ae50",
                                "dd4", "4bb9b376dd4a7dd02a80b6779737ba13ee4bd549d611fd4e756157fce7f72183"),
    "m4-d3-k11-mix": ((4, 3, 11, "mix:1/2", True),
                      "73044f4ce4bc479f62d203a88f5c3cc3c33b3e24b8e8a6e581b8a3572bd5be36",
                      "dd6", "f5ece0e5d8d170ee36aa61403e4bd5ba5cbea0172ef788254ae623ffa4089f82"),
    "m5-d3-k10-dd4": ((5, 3, 10, "dd4", True),
                      "3602c707745af82956f97fb1543f9441da5a3bd389b2b326998260b47c3b21b7",
                      "dd6", "a0028d1309bed849e14b9dbadc0246ede6f2ae1fbbd2a64aa1ce9d9ef5516f25"),
}
# the digest of verify's {"satisfied": true, "residual": []}
SATISFIED_DIGEST = "78dc1cc282e9c9a74c49268bcaf17cb8fe824d0ebbbf6825564cfae088238a46"


def _derived_mask(name):
    return _derived(*DERIVE_CHAINS[name][0]).particular.to_dict()


INPUTS.update({name.replace("-", "_"): functools.partial(_derived_mask, name) for name in DERIVE_CHAINS})

# family -> (its input, {order: (its range, the sha256 of sweep --grid 33 at 3
# levels, that of --bisect, and the two at 4 levels)}).  The quinary reference
# family runs the family-scan benchmark's ranges.  On the derived m = 6 line
# each range meets the contractive parameters of orders 0 and 1 (bisected at
# one end or both); none is contractive at order 2, so that --bisect exits 2.
# On the derived m = 5 line, orders 1 and 2 bisect to inner endpoints.  The
# non-symmetric ternary line runs the iterate without its mirror.  The
# README's derived quinary family runs at order 2.
NONE_CONTRACTIVE = "error: no contractive parameter among 33 samples in [0.0, 4.0]"
SWEEPS = {
    "quinary": ("line", {
        0: ("-20:16", "b61db4066b699c78fb95be31c9c92a8ff91f85dff3c280f4e07d39f9f55c7b96",
            "49f3471f0192ac67af7f09ca2a18ef02facd3fddcf4e95485064979f4b9c8657",
            "bbe0045cb432c0ba0dfd5a70f768a526ad72a9021b2041d15c9b895515fadc4d",
            "26111c780c2654b36111aeb18f151ff42ad1e0ba1e6c5def17a08eb37e38b096"),
        1: ("-8:4", "981aa5356d1c9aeab22c74c83343a028be528725028813e9a6e37f10fac7ed10",
            "bc7834faa0ae6a5023366eb4216bb5a041b4075e8617ea64c67a51179cbaa4c4",
            "5fff43d74cd9fc88454ea51be3eaf443439d19de3eda7caa18677e4a0f9f1a6c",
            "b9244c3703338761c189baa4c790d58c0d9880abb35351a756ee865ed385f457"),
        2: ("-2.5:0", "fa6d679ecd1ee3297bbda638be7b14f67e656449e1490205a61f650a086d9412",
            "3abb2eb64a581cb853eea9ce8e1d80d7f1e097c335873e58523dfb735c8753db",
            "c0f6e3ae8988fa3f4a7a76fdf39ba9e744fdb0391872e94bae0fea842f62bc5f",
            "5aa002531c6199ae3056480453cd0e26006b33dc88a8f46f5d184b91facf8d94"),
    }),
    "derived_m6": ("derived_m6", {
        0: ("-4:4", "709cf6ee01fb6b32e2eb4402b18c9c8a021bcc0f95ff3930c759bced8afad019",
            "707a5f7cf13a6dbbc6a22f6f7aa5abade0ac4a75f27af361aef73dc718fc8b22",
            "c2518850099c70d5e6b49b1336dc40cb1d7e62d9de35c4fb84ae7992d20d94d3",
            "a2149f313b63dde0cb07b01ef27f67d80bf93e7a922924d2095af6982d01c175"),
        1: ("0:4", "9c76ccdd90ec4a96e4f36a427fd72be76fdcc1ba7b01e8c5b5de437b7d39d72b",
            "21dda47594ede78573911e92cf750752fc607e7dc5261ca9443baebbb10a4d52",
            "b93c5dbb7be68c1761ddb6d9b70689ae9c0954886ca1a9c41d913021d12301a5",
            "578354b9a5f8be604a4e317749478c731ba82dc16043458520453f2142e540e8"),
        2: ("0:4", "795dba03a3a01e8c23864c8d4fbae3f7c2ad28eb10f3364017b6ffef269b3596", NONE_CONTRACTIVE,
            "225aa1ec2d37e56216a8ef9039434b07a9ebfdacb8bc17fa68ab6ebc4cf71d39", NONE_CONTRACTIVE),
    }),
    "derived_m5": ("derived_m5", {
        0: ("-4:4", "5bb55dd2f8628496da182ec0bd619e0db8d9825706574e4879fc540119bfe8f9",
            "2497f9cb5b799c6a4adec13abddfae96106fd2884c97bb6be16775a27bda7cc7",
            "19f1bcc9d2410ada8e0a88053630798dfab31be7c9760646926eaad98da23372",
            "e8f39325cb4a39757c6d15001993ff1b4c7842122b185ff32195a012d1ad922e"),
        1: ("-4:4", "20ff3afc69a870f03420c38abc86864aa027602b109023fc8fc86ac153cb416a",
            "20f50462e513828e6cecdf9ddc9467dbcb3e03aa6e5f8308386aa59e4ec45654",
            "6b5336bef00d530b3d5d183bd0907af0353cb5a0eae63d37d530742106e0a7c9",
            "82cfbbe10a46b86671691250dd0e4c7fd408f6f507bd3f31a10b78aee5045c35"),
        2: ("-4:4", "76614db93e506ab65bbe2c4032ffa4aa3aadca0b3787a289fdfa48095dc1c414",
            "5228882cf8efc399652e55c07421d191541648c27b587ddcfcf3c4a269faa14e",
            "ec6cf6c89393e7faf2102923527a3b91d7bad57493b26396cb8f51648f077426",
            "0f595c282ee70e4e5125e4ade48d175b51c0ffda397f721aefa30321596cdf32"),
    }),
    "nonsymmetric_m3": ("nonsymmetric_m3", {
        0: ("-2:2", "36868caac503438ee8698377756f0c6368fda38aca0d43ba1827138b92349b06",
            "b3198a3f811dc93a2d685f41cdf4f8f64e33aee36c32e7b640683c1809761c69",
            "dc75d76d73ecd7cb0ef470802743f3595bb15f64c27de7604d1f50090f004c0c",
            "c7e3bac383c96dfd9beea31378f4f3b9bbf7e1daf3dad04dff3d6c660b9ead8c"),
        1: ("-2:2", "7f6165353cdd02bba9645a6563ee34fd0497c77330a31ada8409ad911833e6a5",
            "8e79bbdad16620088e1acf3b8e64ee3d840ac37076be4476953c8cd1e80092d1",
            "91c447c3d6f53f55bec8b07a93d6c9b9ccb344b6cb47b94d758e7c4cb52cab90",
            "cc660b4e75c7d3134176ea93da8baaabe521cc71b00078fd8f03ce939504bb67"),
        2: ("-2:2", "e1976dbe38bb808de2e55d456211e5a2a783c23ea266c401ea778cda0e8eb98c",
            "c6382d2bc06a644b36c2d7a25eeb0fc642060ca33c128e9b4d9b381401174eef",
            "3b489d924ec33b33bd07c2d6688fe3d7392264e6c0b608dbd6eea46a39fc9250",
            "b7f56a7630090ff75a2fb9c29dbf4575687adeba1861eb1d82f7d5da2bb1868c"),
    }),
    "readme_quinary": ("readme_family", {
        2: ("-2.5:0", "64f385218f6c1e70cc18b5cc6045501d36851d6d8e41208816ef73a5b3a51004",
            "d03523ced780b50a6881cb8aea35a03c81e18f83a2dca3c989b97c0e8e9318cf",
            "3772d6f70796444da0990bc947e5f8fd3a5eb790509f7d2453dc01cc8732110f",
            "ff543027b6cfce8546f75b1294b40ae232fa7a91e6a6091c0bb4769fcbd604b4"),
    }),
}


def _answer(id, args, want, code=0):
    """A case whose answer is ``want``: a sha256, or an ``error:`` line."""
    if want.startswith("error: "):
        return Case(id, args, 2, want)
    return Case(id, args, code, Sha256(want))


def _generated():
    """group -> the cases of the pinned answers of one catalog mask, the
    asymmetric mask, one derive chain or one sweep family."""
    groups = {name: [_answer(f"{name}/reproduce", _catalog_args(name, "reproduce"), REPRODUCED[degree])]
              for name, (*_, degree) in CATALOG.items()}
    for key, digest in CATALOG_ANSWERS.items():
        name, command = key.split("/")
        groups[name].append(_answer(key, _catalog_args(name, command), digest))
    groups["asymmetric"] = list(ASYMMETRIC_ANSWERS)
    for name, ((m, d, k_star, samples, symmetric), digest, other, residual) in DERIVE_CHAINS.items():
        derive_args = f"--arity {m} --smoothing {d} --kstar {k_star} --samples {samples}"
        groups[name] = [_answer(f"{name}/derive", f"derive {derive_args}{' --symmetric' * symmetric}", digest)]
        for form in ("dual", "refinability"):
            verify = f"verify --mask {{{name.replace('-', '_')}}} --form {form} --samples"
            groups[name] += [_answer(f"{name}/verify-{form}", f"{verify} {samples}", SATISFIED_DIGEST),
                             _answer(f"{name}/verify-{form}-{other}", f"{verify} {other}", residual, 3)]
    for name, (family, ranges) in SWEEPS.items():
        groups[name] = []
        for order, (interval, *digests) in ranges.items():
            for i, digest in enumerate(digests):
                levels, bisect = 3 + i // 2, i % 2
                args = f"sweep --family {{{family}}} --order {order} --levels {levels} --range={interval}"
                groups[name].append(_answer(f"{name}/o{order}-l{levels}" + "-bisect" * bisect,
                                            f"{args} --grid 33" + " --bisect" * bisect, digest))
    return groups


_GENERATED = _generated()

# generated answers that run in the section ANSWERS under the ids of its
# older cases, so that those test ids stay
ANSWER_IDS = {
    "m5-d3-k10-dd4/derive": "derive-readme-quinary",
    # the float family line at order 2 and level 4, sampled and bisected
    "readme_quinary/o2-l4": "sweep-readme-quinary",
    "readme_quinary/o2-l4-bisect": "bisect-readme-quinary",
    # its iterates are palindromes, so this runs the mirrored integer product
    "cantor/regularity-o0": "regularity-cantor-levels-6",
    # 81 lattice points on [-3/4, 3/4] over 54: a palindrome, printed as mirrored columns
    "cantor/eval": "eval-cantor-depth-3",
    # the largest design-grid shape: its family's masks are d = 6 passes of
    # running sums over b, where the smoothing factor has 61 terms
    "m11-d6-k45-dd8/derive": "derive-m11",
    "m11-d6-k45-dd8/verify-dual": "verify-m11",
}

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
    Case("verify-perturbed-mask", "verify --mask {perturbed} --samples dd:2", 3,
         {"satisfied": False, "residual": [[-3, "-1/200"], [0, "1/200"], [3, "-1/200"]]}),
    *(replace(case, id=ANSWER_IDS[case.id])
      for group in _GENERATED.values() for case in group if case.id in ANSWER_IDS),
]
# group -> its other generated answers, which tests/test_golden_bytes.py runs
GOLDEN = {name: [case for case in group if case.id not in ANSWER_IDS] for name, group in _GENERATED.items()}

CASES = [*BAD_INPUT, *RUNAWAY, *FAR_IDENTITY, *DIGIT_LIMIT, *PHI_OF_ZERO, *DEGREE_LOOP, *GRAMMAR, *USAGE,
         *(case for pair in SWEEP_MODES for case in pair), *EXCEPTIONS, *ANSWERS, *README, *DIGIT_BUDGET,
         *LARGE_SOLVES, *LARGE_LATTICES, *SINGLE_CALLS, *(case for group in GOLDEN.values() for case in group)]

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
