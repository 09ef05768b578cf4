"""Command line front end.

Exact objects (masks, sample sets, families) travel as JSON with rational
entries serialized as "p/q" strings; point clouds and polylines travel as CSV.

Exit codes: 0 success, 1 infeasible construction, 2 input/format errors,
3 identity violation reported by ``verify``.  The commands only parse, call
the library and print; ``main`` maps the library's exceptions to exit codes.
An argv that starts with a command name is parsed by that command's own
subparser (``parse_args``), and the JSON answers are written by ``_dumps``,
which gives the bytes of ``json.dumps(payload, indent=2)`` without building
an encoder per call.
Every numeral read (an integer option, a JSON integer, a rational string,
``dd:N``) passes ``exactalg.refuse_digits``, and ``main`` lifts the
interpreter's digit limit while it runs, so that every exact answer prints
whatever limit the interpreter keeps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import stat
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter, truediv

from . import catalog
from .analyze import (
    GridOverflow,
    ParameterGrid,
    contractivity_bound,
    contractivity_profile,
    contractivity_range,
    lattice_window,
    refine_values,
    reproduction_degree,
    subdivide_curve,
)
from .charax import verify_dual_interpolatory, verify_lemma_form, verify_refinability
from .construct import ConstructionProblem, InfeasibleProblem, SolutionFamily, derive
from .exactalg import integer, refuse_digits
from .samples import SampleSet, samples_from_shorthand
from .scheme import Mask, limit_support

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3


class CliError(Exception):
    """Input or format problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise CliError, so that they exit
    2 with one ``error:`` line like every other input error."""

    def error(self, message):
        raise CliError(message)


def _integer(text: str) -> int:
    """An integer option: int(text), after ``refuse_digits``."""
    try:
        refuse_digits(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None
    return int(text)


_integer.__name__ = "int"  # argparse names the type in "invalid int value"


def _load_json(path: str, kind: str, cls):
    """``cls.from_dict`` of the JSON file at ``path``, a ``kind`` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=integer)
    # a ValueError is malformed JSON, text that is not UTF-8 or a refused
    # numeral, and a RecursionError JSON nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return cls.from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise CliError(f"bad {kind} file {path}: {detail}") from exc


def _resolve_samples(text: str) -> SampleSet:
    try:
        shorthand = samples_from_shorthand(text)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad sample shorthand {text!r}: {exc}") from exc
    if shorthand is not None:
        return shorthand
    return _load_json(text, "sample", SampleSet)


def _print(text: str) -> None:
    """Print the text to stdout; a failed write is an input error (exit 2).

    After a failed write to the process's own stdout, its descriptor points
    at /dev/null for the rest of the process.
    """
    try:
        print(text, flush=True)
    except OSError as exc:
        if sys.stdout is sys.__stdout__:
            # the flush at exit would fail again on the unwritten rest
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise CliError(f"cannot write standard output: {exc}") from exc


def _dumps(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, allow_nan=False)``.

    For str dict keys and None, bool, int, float, str, list and dict values;
    ``indent`` is the line break and indentation before a closing bracket.
    A non-finite float raises the pure-Python encoder's ValueError, which
    names the value.  Only ``sweep`` can meet one: ``derive`` and ``verify``
    write no float, and ``regularity``'s bounds are finite or
    ``contractivity_bound`` raises OverflowError.  Before Python 3.13,
    ``json.dumps`` with an indent runs the pure-Python encoder, whose
    closures leave a reference cycle per call; this writer leaves none.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(key) + ": " + _dumps(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(isinstance(item, str) for item in value):
            items = map(_quote, value)  # a coefficient list
        else:
            items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(text: str, out: str | None) -> None:
    """Print the text, or write it with a final newline to the file ``out``.

    An existing file is overwritten in place: it is opened without O_TRUNC
    and, when it is a regular file longer than the new text, its tail is cut
    after the write.  Truncating to zero first would make ext4
    (auto_da_alloc) start writeback of the file on close.  Outputs are never
    fsynced, so a crash just after a command may leave the old, the new or
    mixed bytes (truncating first could leave it empty); after a write error
    the content is unspecified.  Pipes and devices such as /dev/null are
    written without the cut; symlinks are followed, and the mode and owner
    of an existing file are kept.
    """
    if out is None:
        _print(text)
        return
    try:
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
            old = os.fstat(fh.fileno())
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
            if stat.S_ISREG(old.st_mode) and fh.tell() < old.st_size:
                fh.truncate()  # cuts the old file's tail after the new text
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def cmd_derive(args) -> int:
    samples = _resolve_samples(args.samples)
    problem = ConstructionProblem(
        args.arity, args.smoothing, args.kstar, samples, args.symmetric
    )
    family = derive(problem)
    if family.dimension == 0:
        payload = family.particular.to_dict()
    else:
        payload = family.to_dict()
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    mask = _load_json(args.mask, "mask", Mask)
    samples = _resolve_samples(args.samples)
    if args.form == "refinability":
        result = verify_refinability(mask, samples)
    elif args.form == "lemma":
        result = verify_lemma_form(mask, samples)
    else:
        result = verify_dual_interpolatory(mask, samples)
    payload = {
        "satisfied": result.satisfied,
        "residual": [[e, str(c)] for e, c in result.nonzero_terms()],
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK if result.satisfied else EXIT_VIOLATION


def _signed_reprs(lo: int, hi: int, den: int):
    """repr(p / den) for p = lo, ..., hi; a division rounds sign-symmetrically,
    so each |p| is formatted once and a negative p takes a "-" prefix."""
    least = max(lo, -hi, 0)
    at = list(map(repr, map(truediv, range(least, max(-lo, hi) + 1), repeat(den)))).__getitem__
    # indices |p| - least: the rows p < 0 run from |lo| down to max(-hi, 1)
    negative = map(at, range(-lo - least, max(-hi - 1, 0) - least, -1))
    return chain(map("-".__add__, negative), map(at, range(max(lo, 0) - least, hi + 1 - least)))


def cmd_eval(args) -> int:
    mask = _load_json(args.mask, "mask", Mask)
    samples = _resolve_samples(args.samples)
    lattice = refine_values(mask, samples, args.depth)
    # one row per point of the window, the zeros the lattice trims included
    den, poly = lattice.T, lattice.poly
    lo, n = lattice_window(limit_support(mask), den)
    nums = [0] * n
    start = poly.offset - lo
    nums[start : start + len(poly.numerators)] = poly.numerators
    # each x and value is one int division, formatted by column: one repr per
    # |p| and, on a palindromic lattice, the first half of the values mirrored
    half = (n + 1) // 2 if nums == nums[::-1] else n
    values = list(map(repr, map(truediv, islice(nums, half), repeat(poly.denominator))))
    rows = zip(map(str, range(lo, lo + n)), repeat(str(den)), _signed_reprs(lo, lo + n - 1, den),
               chain(values, reversed(values[: n - half])))
    _emit("\n".join(chain(["numerator,denominator,x,value"], map(",".join, rows))), args.out)
    return EXIT_OK


def cmd_regularity(args) -> int:
    mask = _load_json(args.mask, "mask", Mask)
    report = contractivity_bound(mask, args.order, args.levels)
    payload = {
        "order": report.order,
        "levels": report.levels,
        "bounds": list(report.bounds),
        "contractive": report.contractive,
        "holder_lower_bound": report.holder_lower_bound,
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise CliError(f"bad range {text!r}, expected a:b") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"bad range {text!r}: bounds must be finite")
    if not lo < hi:
        raise CliError(f"bad range {text!r}: lower bound must be below upper")
    if not math.isfinite(hi - lo):
        raise CliError(f"bad range {text!r}: width must be finite")
    return lo, hi


def cmd_sweep(args) -> int:
    family = _load_json(args.family, "family", SolutionFamily)
    lo, hi = _parse_range(args.range)
    try:
        grid = ParameterGrid(lo, hi, args.grid)
    except GridOverflow as exc:
        raise CliError(f"bad range {args.range!r}: {exc}") from exc
    if args.bisect:
        left, right = contractivity_range(family, args.order, args.levels, grid)
        payload = {"order": args.order, "levels": args.levels, "low": left, "high": right}
    else:
        payload = [
            {"t": t, "bound": bound, "contractive": bound < 1.0}
            for t, bound in contractivity_profile(family, args.order, args.levels, grid)
        ]
    try:
        text = _dumps(payload)
    except ValueError as exc:
        raise CliError(f"a bound on range {args.range!r} is not finite: {exc}") from exc
    _emit(text, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    mask = _load_json(args.mask, "mask", Mask)
    samples = _resolve_samples(args.samples)
    degree = reproduction_degree(mask, samples, args.maxdeg, args.depth)
    _emit(json.dumps({"degree": degree}), args.out)
    return EXIT_OK


def _read_points(path: str) -> list[tuple[float, float]]:
    points = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                try:
                    x, y = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    if not points:
                        continue  # tolerate a header line
                    raise CliError(f"bad point row {row!r} in {path}")
                points.append((x, y))
    except OSError as exc:
        raise CliError(f"cannot read points from {path}: {exc}") from exc
    if len(points) < 2:
        raise CliError(f"{path} holds fewer than two points")
    return points


def cmd_curve(args) -> int:
    mask = _load_json(args.mask, "mask", Mask)
    control = _read_points(args.points)
    line = subdivide_curve(mask, control, args.steps, closed=args.closed)
    xs, ys = (map(repr, map(itemgetter(i), line.points)) for i in (0, 1))
    rows = zip(map(repr, line.parameters), xs, ys)
    _emit("\n".join(chain(["t,x,y"], map(",".join, rows))), args.out)
    return EXIT_OK


def cmd_corpus(args) -> int:
    all_ok = True
    for reference in catalog.reference_corpus():
        try:
            ok, detail = reference.check()
        except Exception as exc:  # a crash is a failed check, not a CLI crash
            ok, detail = False, f"error: {exc}"
        _print(f"{'PASS' if ok else 'FAIL'} {reference.name}: {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="dualsubdiv",
        description="Construct, verify and analyze dual interpolatory subdivision schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # command name -> its subparser, for ``parse_args``

    def command(name, help, fn):
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    samples_help = (
        "sample values on Z/2: dd4, dd6, dd:N (N-point), mix:W (4/6-point blend"
        " with rational weight W), or a JSON file"
    )

    p = command("derive", "solve the construction system for a mask or family", cmd_derive)
    p.add_argument("--arity", type=_integer, required=True)
    p.add_argument("--smoothing", type=_integer, required=True, help="smoothing factor order d")
    p.add_argument("--kstar", type=_integer, required=True, help="mask support is {1-k*, ..., k*}")
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--out")

    p = command("verify", "check a characterization identity exactly", cmd_verify)
    p.add_argument("--mask", required=True)
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--form", choices=["dual", "lemma", "refinability"], default="dual")
    p.add_argument("--out")

    p = command("eval", "evaluate the limit function on a refined lattice", cmd_eval)
    p.add_argument("--mask", required=True)
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--depth", type=_integer, default=4)
    p.add_argument("--out")

    p = command("regularity", "difference-scheme contraction bounds", cmd_regularity)
    p.add_argument("--mask", required=True)
    p.add_argument("--order", type=_integer, default=0, help="certify C^order")
    p.add_argument("--levels", type=_integer, default=3)
    p.add_argument("--out")

    p = command("sweep", "contraction bounds along a one-parameter family", cmd_sweep)
    p.add_argument("--family", required=True, help="family JSON from derive")
    p.add_argument("--order", type=_integer, default=0)
    p.add_argument("--levels", type=_integer, default=3)
    p.add_argument("--range", required=True, help="parameter interval a:b")
    p.add_argument("--bisect", action="store_true", help="bisect the contractive interval")
    p.add_argument("--grid", type=_integer, default=129)
    p.add_argument("--out")

    p = command("reproduce", "polynomial reproduction degree", cmd_reproduce)
    p.add_argument("--mask", required=True)
    p.add_argument("--samples", required=True, help=samples_help)
    p.add_argument("--maxdeg", type=_integer, default=6)
    p.add_argument("--depth", type=_integer, default=4)
    p.add_argument("--out")

    p = command("curve", "subdivide a control polygon", cmd_curve)
    p.add_argument("--mask", required=True)
    p.add_argument("--points", required=True, help="CSV of x,y control points")
    p.add_argument("--steps", type=_integer, default=4)
    p.add_argument("--closed", action="store_true")
    p.add_argument("--out")

    command("corpus", "re-derive the reference schemes and report", cmd_corpus)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """The Namespace of ``build_parser().parse_args(argv)``, which may lack
    its ``command``.

    An argv that starts with a command name is parsed by that command's
    subparser alone, which reads the rest as the top-level parser would hand
    it on, with one parser level less; any other argv (empty, ``--help``, an
    option before the command, an unknown command) by the top-level parser.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    return command.parse_args(argv[1:]) if command else parser.parse_args(argv)


def main(argv=None) -> int:
    # releases before Python 3.10.7 keep no digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CliError, ValueError) as exc:  # the library rejects input with ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError as exc:  # an exact value that no float can hold
        print(f"error: a value is beyond the float range: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
