import errno
import functools
import gc
import importlib
import io
import json
import math
import os
import pkgutil
import stat
import sys
import time
from fractions import Fraction as F

import pytest

import cli_cases
import dualsubdiv
from dualsubdiv import catalog
from dualsubdiv.analyze import contractivity_profile, lattice_window, refine_values
from dualsubdiv.cli import CliError, build_parser, main, parse_args
from dualsubdiv.construct import InfeasibleProblem, SolutionFamily, derive
from dualsubdiv.exactalg import InfeasibleSystem
from dualsubdiv.samples import samples_from_shorthand
from dualsubdiv.scheme import Mask, limit_support, shift_parameter


# exit code, stdout and stderr of ``python -m dualsubdiv.cli`` in a new interpreter
_fresh_process = functools.partial(cli_cases.fresh_process, cli_cases.MODULE, timeout=120)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def cantor_mask_file(tmp_path):
    return write_json(tmp_path / "cantor.json", catalog.cantor_mask().to_dict())


@pytest.fixture
def cantor_samples_file(tmp_path):
    return write_json(tmp_path / "cantor_samples.json", catalog.cantor_samples().to_dict())


def test_derive_ternary_round_trip(tmp_path, capsys):
    out = tmp_path / "mask.json"
    code = main([
        "derive", "--arity", "3", "--smoothing", "4", "--kstar", "7",
        "--samples", "dd4", "--symmetric", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert Mask.from_dict(data) == catalog.ternary_cubic_mask()
    # string-exact rational serialization
    assert data["coeffs"][0] == "13/1296"
    assert data["coeffs"][6] == "137/144"


def test_derive_family_json(tmp_path):
    out = tmp_path / "family.json"
    code = main([
        "derive", "--arity", "5", "--smoothing", "3", "--kstar", "10",
        "--samples", "dd4", "--symmetric", "--out", str(out),
    ])
    assert code == 0
    family = SolutionFamily.from_dict(json.loads(out.read_text()))
    assert family.dimension == 1
    assert family.contains(catalog.quinary_family_mask(10))


def test_eval_csv(tmp_path, cantor_mask_file, cantor_samples_file):
    out = tmp_path / "values.csv"
    code = main([
        "eval", "--mask", cantor_mask_file, "--samples", cantor_samples_file,
        "--depth", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "numerator,denominator,x,value"
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
    assert float(rows[0][3]) == 1.0
    assert all(int(r[1]) == 18 for r in rows.values())
    assert len(rows) == 2 * 13 + 1  # numerators -13..13 on [-3/4, 3/4]


@pytest.mark.parametrize(
    "mask,spec,depth",
    [
        (catalog.cantor_mask(), "dd:2", 3),
        (catalog.quinary_family_mask(F(-7, 5)), "dd4", 2),
        (catalog.quaternary_quartic_mask(), "dd6", 2),
    ],
    ids=["cantor", "quinary", "quartic"],
)
def test_eval_values_are_the_lattice_fractions_rounded(tmp_path, mask, spec, depth):
    mask_file = write_json(tmp_path / "mask.json", mask.to_dict())
    out = tmp_path / "values.csv"
    code = main([
        "eval", "--mask", mask_file, "--samples", spec, "--depth", str(depth), "--out", str(out),
    ])
    assert code == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    lattice = refine_values(mask, samples_from_shorthand(spec), depth)
    # one row per point of the window, the zeros the lattice trims included
    first, n = lattice_window(limit_support(mask), lattice.T)
    points = range(first, first + n)
    assert [int(row[0]) for row in rows] == list(points)
    assert [row[3] for row in rows] == [repr(float(lattice.value_at_index(p))) for p in points]


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize(
    "mask", [catalog.cantor_mask(), catalog.quinary_family_mask(F(-7, 5))], ids=["cantor", "quinary"]
)
def test_curve_parameters_are_the_exact_parameters_rounded(tmp_path, mask, closed):
    points = tmp_path / "pentagon.csv"
    points.write_text("0,0\n2,0\n3,1.5\n1,2.5\n-1,1.5\n")
    out = tmp_path / "curve.csv"
    m, steps = mask.arity, 3
    code = main([
        "curve", "--mask", write_json(tmp_path / "mask.json", mask.to_dict()),
        "--points", str(points), "--steps", str(steps), "--out", str(out),
        *(["--closed"] if closed else []),
    ])
    assert code == 0
    column = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    # level j indices of an open polygon start at m * (its level j-1 start) + k_l
    first = 0
    for _ in range(steps if not closed else 0):
        first = m * first + mask.k_left
    drift = shift_parameter(mask) * (m**steps - 1) / (m - 1)
    assert drift.denominator == 2
    expected = [float((n - drift) / F(m) ** steps) for n in range(first, first + len(column))]
    assert column == [repr(t) for t in expected]


def test_sweep_grid_matches_pointwise_profile(tmp_path, capsys):
    family = catalog.quinary_reference_family()
    family_file = write_json(tmp_path / "family.json", family.to_dict())
    code = main([
        "sweep", "--family", family_file, "--order", "1", "--levels", "3",
        "--range=-8:4", "--grid", "9",
    ])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    expected = [contractivity_profile(family, 1, 3, [r["t"]])[0] for r in rows]
    assert [(r["t"], r["bound"]) for r in rows] == expected
    assert [r["contractive"] for r in rows] == [bound < 1.0 for _, bound in expected]


def test_reproduce_is_exact_by_default(tmp_path, capsys):
    # v raised by 10^-12 off the quartic point: the member reproduces degree 2
    # exactly, while degree 4 holds only within 1e-8
    w, v, u = catalog.QUARTIC_POINT
    member = catalog.quaternary_family_mask(w, v + F(1, 10**12), u)
    argv = ["reproduce", "--mask", write_json(tmp_path / "member.json", member.to_dict()),
            "--samples", "dd6"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"degree": 2}


def test_curve(tmp_path, cantor_mask_file):
    points = tmp_path / "square.csv"
    points.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    out = tmp_path / "curve.csv"
    code = main([
        "curve", "--mask", cantor_mask_file, "--points", str(points),
        "--steps", "2", "--closed", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 1 + 4 * 9  # four control points, two ternary steps


def run_in_process(case, tmp_path, capsys):
    """Run a case of the table through ``main``, check its answer and its
    wall bound, and return its input files; the one in-process runner of the
    table, which ``tests/test_golden_bytes.py`` runs too."""
    files = cli_cases.Files(tmp_path)
    argv = case.argv(files)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    cli_cases.check(case, files, code, *capsys.readouterr())
    assert case.wall is None or elapsed < case.wall
    return files


def _table_test(cases):
    """A test that runs each of ``cases`` in process."""

    @pytest.mark.parametrize("case", cases, ids=lambda case: case.id)
    def test(case, tmp_path, capsys):
        run_in_process(case, tmp_path, capsys)

    return test


# one test per section of tests/cli_cases.py
test_bad_input_exits_2_without_traceback = _table_test(cli_cases.BAD_INPUT)
test_runaway_inputs_exit_2_at_once = _table_test(cli_cases.RUNAWAY)
test_far_identity_inputs_exit_3_at_once = _table_test(cli_cases.FAR_IDENTITY)
test_answers_do_not_depend_on_the_digit_limit = _table_test(cli_cases.DIGIT_LIMIT)
test_derive_refuses_samples_without_phi_of_zero_one = _table_test(cli_cases.PHI_OF_ZERO)
test_reproduce_degree_loop_stops_at_once = _table_test(cli_cases.DEGREE_LOOP)
test_one_rational_grammar_on_every_python = _table_test(cli_cases.GRAMMAR)
test_main_maps_each_exception_to_its_exit_code = _table_test(cli_cases.EXCEPTIONS)
test_answers_match_their_pinned_bytes = _table_test(cli_cases.ANSWERS)
test_readme_commands_answer_as_documented = _table_test(cli_cases.README)
test_derive_budget_counts_the_entries_bits = _table_test(cli_cases.DIGIT_BUDGET)
test_large_solves_run_within_their_wall = _table_test(cli_cases.LARGE_SOLVES)
test_large_lattices_run_within_their_wall = _table_test(cli_cases.LARGE_LATTICES)


def _case_test(id):
    """A test that runs the case ``id`` of SINGLE_CALLS in process."""
    case, = (case for case in cli_cases.SINGLE_CALLS if case.id == id)

    def test(tmp_path, capsys):
        run_in_process(case, tmp_path, capsys)

    return test


# tests that made these calls and checked less of the answer, now each one case
test_bad_shorthand_is_input_error = _case_test("bad-shorthand")
test_bad_range_is_input_error = _case_test("bad-range")
test_verify_satisfied = _case_test("verify-satisfied")
test_verify_violation = _case_test("verify-violation")
test_reproduce = _case_test("reproduce")
test_regularity_json = _case_test("regularity-json")
test_sweep_grid = _case_test("sweep-grid")
test_sweep_bisect = _case_test("sweep-bisect")


@pytest.mark.parametrize("pair", cli_cases.SWEEP_MODES, ids=lambda pair: pair[0].id)
def test_both_sweep_modes_refuse_in_one_order(pair, tmp_path, capsys):
    for case in pair:
        run_in_process(case, tmp_path, capsys)


@pytest.mark.parametrize("case", cli_cases.USAGE, ids=lambda case: case.id)
def test_usage_errors_exit_2_with_one_error_line(case, tmp_path, capsys):
    files = run_in_process(case, tmp_path, capsys)
    cli_cases.check(case, files, *_fresh_process(case.argv(files), tmp_path))


def test_the_case_table_is_well_formed():
    ids = [case.id for case in cli_cases.CASES]
    assert len(set(ids)) == len(ids)
    for case in cli_cases.CASES:
        assert case.code in (0, 1, 2, 3)
        if case.code in (1, 2):
            # one infeasible: or error: line
            assert type(case.expect) in (str, cli_cases.Prefix), case.id
            assert case.expect.startswith("infeasible: " if case.code == 1 else "error: ")
            assert "\n" not in case.expect
    assert set(build_parser().commands) <= {case.args.split()[0] for case in cli_cases.CASES if case.args}


class _Names(dict):
    """Formats each ``{name}`` of a case's argv as ``name``."""

    def __missing__(self, name):
        return name


def _parsed(parse, argv):
    """The Namespace that ``parse(argv)`` gives without its ``command``, or
    the text of its CliError, or its exit code."""
    try:
        args = vars(parse(argv))
    except CliError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code
    args.pop("command", None)
    return "args", args


@pytest.mark.parametrize("columns", ["80", "200"])
def test_a_command_is_parsed_as_the_top_level_parser_parses_it(columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)  # help and usage lines wrap at the terminal width
    argvs = [case.argv(_Names()) for case in cli_cases.CASES] + [
        [], ["--help"], ["derive", "--help"], ["-h", "derive"], ["--symmetric", "corpus"],
        ["--arity", "3", "derive"], ["frobnicate"], ["corpus", "--"], ["--", "corpus"],
        ["derive", "--", "--arity"], ["verify", "--form=lemma", "--mask", "m", "--samples", "dd4"],
    ]
    for argv in argvs:
        dispatched = _parsed(parse_args, argv), capsys.readouterr()
        assert dispatched == (_parsed(build_parser().parse_args, argv), capsys.readouterr()), argv


@pytest.mark.parametrize("id", ["readme-derive-mask", "readme-derive-family", "readme-verify",
                                "verify-violation", "readme-regularity", "readme-sweep", "readme-bisect"])
def test_an_answer_leaves_no_reference_cycles(id, tmp_path, capsys):
    case, = (case for group in (cli_cases.README, cli_cases.SINGLE_CALLS) for case in group if case.id == id)
    files = run_in_process(case, tmp_path, capsys)  # a warm-up call fills the caches
    gc.collect()
    gc.disable()
    try:
        code = main(case.argv(files))
        assert gc.collect() == 0
    finally:
        gc.enable()
    cli_cases.check(case, files, code, *capsys.readouterr())


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: dualsubdiv reproduce")
    assert err == ""


def test_corpus_reports_a_failed_fact(monkeypatch, capsys):
    wrong = catalog.Reference(
        "quinary-plane", "dimension 2",
        derivations=((catalog.quinary_problem(), ()),), dimension=2,
    )
    solvable = catalog.Reference(
        "ternary-k7-infeasible", "k*=7 infeasible",
        derivations=((catalog.ternary_cubic_problem(), ()),), infeasible=True,
    )
    cantor = catalog.reference_corpus()[0]
    cantor_problem = cantor.derivations[0][0]
    off = Mask(3, -1, [F(1, 2), 1, 1, F(1, 2) + F(1, 100)])

    def derive_off(problem):
        """Derive, except that the Cantor problem yields the wrong mask."""
        if problem is cantor_problem:
            return SolutionFamily(problem, off, ())
        return derive(problem)

    monkeypatch.setattr(catalog, "derive", derive_off)
    monkeypatch.setattr(catalog, "reference_corpus", lambda: (wrong, solvable, cantor))
    assert main(["corpus"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL quinary-plane: problem 0: dimension 1 != 2",
        "FAIL ternary-k7-infeasible: k*=7 unexpectedly solvable",
        "FAIL cantor-derive: problem 0: derived mask differs",
    ]


def test_corpus_checks_the_derived_members(monkeypatch, capsys):
    def derive_off(problem):
        """Derive, except that a family's particular member is its first
        direction, whose residue classes sum to 0, not 1."""
        family = derive(problem)
        return SolutionFamily(problem, family.basis[0], family.basis) if family.basis else family

    monkeypatch.setattr(catalog, "derive", derive_off)
    assert main(["corpus"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL quinary-family: problem 0: a derived mask is not a member",
        "FAIL quaternary-families: problem 0: a derived mask is not a member",
    ]


def _package_exceptions():
    """Every exception class a dualsubdiv module defines."""
    found = set()
    for info in pkgutil.iter_modules(dualsubdiv.__path__):
        module = importlib.import_module(f"dualsubdiv.{info.name}")
        found.update(
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Exception)
            and value.__module__ == module.__name__
        )
    return found


def test_rejected_input_is_a_value_error_and_infeasibility_is_not():
    infeasible = {InfeasibleProblem, InfeasibleSystem}
    rejected = _package_exceptions() - infeasible - {CliError}
    assert {cls.__name__ for cls in rejected} == {
        "ArityTwoUnsupported", "GridOverflow", "InvalidWindow", "NoContractivePoint",
        "NotDivisible", "SeedInconsistent", "ShiftLatticeMismatch", "ShiftMismatch",
    }
    assert all(issubclass(cls, ValueError) for cls in rejected)
    assert not any(issubclass(cls, ValueError) for cls in infeasible)


class FailingStdout(io.TextIOBase):
    """A standard output whose every write fails with ``error``."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error


DERIVE_TERNARY = ["derive", "--arity", "3", "--smoothing", "4", "--kstar", "7", "--samples", "dd4", "--symmetric"]


@pytest.mark.parametrize("argv", [DERIVE_TERNARY, ["corpus"]], ids=["derive", "corpus"])
@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, "No space left on device"), BrokenPipeError(errno.EPIPE, "Broken pipe")],
    ids=["full", "broken-pipe"],
)
def test_stdout_write_error_exits_2(argv, error, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FailingStdout(error))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write standard output: {error}\n"


def test_failed_write_to_own_stdout_points_it_at_devnull_without_a_leak(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)

    class ClosedPipeStdout(FailingStdout):
        def fileno(self):
            return write_end

    stdout = ClosedPipeStdout(BrokenPipeError(errno.EPIPE, "Broken pipe"))
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "__stdout__", stdout)
    free = os.open(os.devnull, os.O_RDONLY)
    os.close(free)
    try:
        assert main(["corpus"]) == 2
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        # the lowest free descriptor is free again: the /dev/null one was closed
        again = os.open(os.devnull, os.O_RDONLY)
        os.close(again)
        assert again == free
    finally:
        os.close(write_end)
    assert capsys.readouterr().err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--arity", "3", "--smoothing", "4", "--kstar", "7", "--samples", "dd4", "--symmetric"],
        ["eval", "--mask", "{mask}", "--samples", "dd:2", "--depth", "2"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "2", "--closed"],
    ],
    ids=["derive", "eval", "curve"],
)
def test_out_is_overwritten_in_place(argv, tmp_path, cantor_mask_file, capsys):
    points = tmp_path / "square.csv"
    points.write_text("0,0\n1,0\n1,1\n0,1\n")
    argv = [a.format(mask=cantor_mask_file, points=points) for a in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()

    # an existing longer file ends up holding exactly the printed bytes, and
    # keeps its mode
    out = tmp_path / "out.txt"
    out.write_bytes(b"x" * (len(printed) + 4096))
    out.chmod(0o600)
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == printed
    assert stat.S_IMODE(out.stat().st_mode) == 0o600

    # a symlink is followed: its target is rewritten and the link kept
    target = tmp_path / "target.txt"
    target.write_bytes(b"y" * (len(printed) + 1))
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == printed

    # a device is written, not cut
    assert main([*argv, "--out", os.devnull]) == 0

    # a fresh path is created with mode 0o666 & ~umask
    fresh = tmp_path / "fresh.txt"
    umask = os.umask(0o027)
    try:
        assert main([*argv, "--out", str(fresh)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~0o027
    assert fresh.read_bytes() == printed
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_without_noise_at_exit(tmp_path):
    with open("/dev/full", "w") as full:
        code, _, err = _fresh_process(DERIVE_TERNARY, tmp_path, stdout=full)
    assert (code, err) == (2, "error: cannot write standard output: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv", [DERIVE_TERNARY, ["corpus"]], ids=["derive", "corpus"])
def test_closed_pipe_exits_2_without_noise_at_exit(argv, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = _fresh_process(argv, tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (2, "error: cannot write standard output: [Errno 32] Broken pipe\n")


def test_bisect_ends_on_an_overflowing_grid_point(tmp_path):
    family = write_json(tmp_path / "family.json", derive(catalog.quinary_problem()).to_dict())
    argv = ["sweep", "--family", family, "--range=-8e307:8e307", "--grid", "3", "--bisect"]
    code, out, err = _fresh_process(argv, tmp_path, timeout=60)
    assert (code, out) == (2, "")
    assert err == "error: bad range '-8e307:8e307': a grid point overflows\n"


def test_bisect_ends_where_a_float_step_is_wider_than_tol(tmp_path):
    # basis / 10^13 puts the crossings near 10^13, where floats are 2^-9 apart
    derived = derive(catalog.quinary_problem())
    direction = Mask.from_poly(5, derived.basis[0].poly * F(1, 10**13))
    family = SolutionFamily(derived.problem, derived.particular, (direction,))
    path = write_json(tmp_path / "family.json", family.to_dict())
    argv = ["sweep", "--family", path, "--range=-1e14:1e14", "--grid", "17", "--bisect"]
    code, out, err = _fresh_process(argv, tmp_path, timeout=60)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    for t in (payload["low"], payload["high"]):
        side = [t - 2 * math.ulp(t), t + 2 * math.ulp(t)]
        flags = [bound < 1.0 for _, bound in contractivity_profile(family, 0, 3, side)]
        assert flags[0] != flags[1]


def test_reused_parser_answers_as_a_fresh_process(tmp_path, cantor_mask_file, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    assert build_parser() is build_parser()
    calls = [
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2", "--symmetric"],
        ["derive", "--arity", "three", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2"],
        ["verify", "--mask", cantor_mask_file, "--samples", "dd:2", "--form", "lemma"],
        ["derive", "--arity", "3", "--smoothing", "4", "--kstar", "5", "--samples", "dd4", "--symmetric"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv, tmp_path)
