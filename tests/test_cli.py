import errno
import importlib
import io
import json
import math
import os
import pkgutil
import stat
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import dualsubdiv
from dualsubdiv import catalog
from dualsubdiv.analyze import contractivity_profile, refine_values
from dualsubdiv.cli import CliError, main
from dualsubdiv.construct import InfeasibleProblem, SolutionFamily, derive
from dualsubdiv.exactalg import InfeasibleSystem
from dualsubdiv.samples import samples_from_shorthand
from dualsubdiv.scheme import Mask, shift_parameter
from oracle import perturbed


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


def test_derive_infeasible_exit_code(capsys):
    code = main([
        "derive", "--arity", "3", "--smoothing", "4", "--kstar", "5",
        "--samples", "dd4", "--symmetric",
    ])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


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


def test_verify_satisfied(cantor_mask_file, cantor_samples_file, capsys):
    code = main(["verify", "--mask", cantor_mask_file, "--samples", cantor_samples_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"satisfied": True, "residual": []}


def test_verify_violation(tmp_path, cantor_mask_file, capsys):
    bad = perturbed(catalog.cantor_samples(), 1, F(1, 100))
    samples_file = write_json(tmp_path / "bad.json", bad.to_dict())
    code = main(["verify", "--mask", cantor_mask_file, "--samples", samples_file])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfied"] is False
    assert payload["residual"]


def test_verify_refinability_form(cantor_mask_file, cantor_samples_file, capsys):
    code = main([
        "verify", "--mask", cantor_mask_file, "--samples", cantor_samples_file,
        "--form", "refinability",
    ])
    assert code == 0


def test_verify_arity_two_is_input_error(tmp_path, capsys):
    mask_file = write_json(tmp_path / "m2.json", Mask(2, 0, [1, 1]).to_dict())
    code = main(["verify", "--mask", mask_file, "--samples", "dd4"])
    assert code == 2
    assert "arity 2" in capsys.readouterr().err


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
    column = [row.split(",")[3] for row in out.read_text().splitlines()[1:]]
    lattice = refine_values(mask, samples_from_shorthand(spec), depth)
    assert column == [repr(float(v)) for v in lattice.values]


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


def test_regularity_json(cantor_mask_file, capsys):
    code = main(["regularity", "--mask", cantor_mask_file, "--order", "0", "--levels", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contractive"] is True
    assert math.isclose(payload["holder_lower_bound"], math.log(2) / math.log(3), rel_tol=1e-9)
    assert payload["bounds"] == [0.5, 0.5, 0.5]


def test_sweep_bisect(tmp_path, capsys):
    family_file = write_json(
        tmp_path / "family.json", catalog.quinary_reference_family().to_dict()
    )
    code = main([
        "sweep", "--family", family_file, "--order", "2", "--levels", "3",
        "--range=-2.5:0", "--bisect",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isclose(payload["low"], -1.6177, abs_tol=2e-3)
    assert math.isclose(payload["high"], -1.0, abs_tol=2e-3)


def test_sweep_grid(tmp_path, capsys):
    family_file = write_json(
        tmp_path / "family.json", catalog.quinary_reference_family().to_dict()
    )
    code = main([
        "sweep", "--family", family_file, "--order", "0", "--levels", "2",
        "--range=-1:1", "--grid", "5",
    ])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["t"] for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(r["contractive"] for r in rows)


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


def test_reproduce(cantor_mask_file, cantor_samples_file, capsys):
    code = main([
        "reproduce", "--mask", cantor_mask_file, "--samples", cantor_samples_file,
        "--maxdeg", "3", "--depth", "3",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"degree": 0}


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


def test_corpus_all_pass(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 10
    assert all(line.startswith("PASS") for line in out)


def test_missing_file_is_input_error(capsys):
    code = main(["verify", "--mask", "no/such/file.json", "--samples", "dd4"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_shorthand_is_input_error(capsys):
    code = main([
        "derive", "--arity", "3", "--smoothing", "1", "--kstar", "4",
        "--samples", "dd:5",
    ])
    assert code == 2


def test_bad_range_is_input_error(tmp_path, capsys):
    family_file = write_json(
        tmp_path / "family.json", catalog.quinary_reference_family().to_dict()
    )
    code = main([
        "sweep", "--family", family_file, "--order", "0", "--levels", "2",
        "--range", "oops",
    ])
    assert code == 2


# a JSON field of the wrong type is rejected, never converted
WRONG_TYPE_MESSAGES = {
    "string_coeffs_mask": "bad mask file {}: 'coeffs' must be of type list, got '1221'",
    "float_offset_mask": "bad mask file {}: 'offset' must be of type int, got -1.9",
    "float_arity_mask": "bad mask file {}: 'arity' must be of type int, got 3.0",
    "float_T_samples": "bad sample file {}: 'T' must be of type int, got 2.0",
    "string_values_samples": "bad sample file {}: 'values' must be of type list, got '121'",
    "string_symmetric_family": "bad family file {}: 'symmetric' must be of type bool, got 'false'",
    "float_kstar_family": "bad family file {}: 'kstar' must be of type int, got 10.0",
    "float_smoothing_family": "bad family file {}: 'smoothing' must be of type int, got 3.5",
    "bool_coeff_family": "bad family file {}: refusing to coerce bool True to an exact rational",
    "string_arity_family": "bad family file {}: 'arity' must be of type int, got 'x'",
}

# each direction and the particular member is a mask of the problem's arity
FAMILY_MESSAGES = {
    "arity_7_direction_family": "a mask of arity 7 in a family of arity 5",
    "arity_4_particular_family": "a mask of arity 4 in a family of arity 5",
    "no_arity_direction_family": "missing key 'arity'",
    "zero_direction_family": "mask must have at least one nonzero coefficient",
}


@pytest.fixture
def bad_input_files(tmp_path, cantor_mask_file):
    bad_seed = perturbed(catalog.cantor_samples(), 1, F(1, 100))
    zero_den_mask = catalog.cantor_mask().to_dict()
    zero_den_mask["coeffs"][1] = "1/0"
    zero_den_family = catalog.quinary_reference_family().to_dict()
    zero_den_family["basis"][0]["coeffs"][0] = "3/0"
    points = tmp_path / "points.csv"
    points.write_text("0,0\n1,0\n1,1\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    no_offset_mask = catalog.cantor_mask().to_dict()
    del no_offset_mask["offset"]
    no_smoothing_family = catalog.quinary_reference_family().to_dict()
    del no_smoothing_family["problem"]["smoothing"]
    no_T_samples = catalog.cantor_samples().to_dict()
    del no_T_samples["T"]
    family = catalog.quinary_reference_family().to_dict()
    wrong_types = {
        "string_coeffs_mask": dict(catalog.cantor_mask().to_dict(), coeffs="1221"),
        "float_offset_mask": dict(catalog.cantor_mask().to_dict(), offset=-1.9),
        "float_arity_mask": dict(catalog.cantor_mask().to_dict(), arity=3.0),
        "float_T_samples": dict(catalog.cantor_samples().to_dict(), T=2.0),
        "string_values_samples": dict(catalog.cantor_samples().to_dict(), values="121"),
        "string_symmetric_family": dict(family, problem=dict(family["problem"], symmetric="false")),
        "float_kstar_family": dict(family, problem=dict(family["problem"], kstar=10.0)),
        "float_smoothing_family": dict(family, problem=dict(family["problem"], smoothing=3.5)),
        "bool_coeff_family": dict(family, basis=[dict(family["basis"][0], coeffs=[True])]),
        "string_arity_family": dict(family, basis=[dict(family["basis"][0], arity="x")]),
    }
    direction = family["basis"][0]
    bad_families = {
        "arity_7_direction_family": dict(family, basis=[dict(direction, arity=7)]),
        "arity_4_particular_family": dict(family, particular=dict(family["particular"], arity=4)),
        "no_arity_direction_family": dict(
            family, basis=[{key: v for key, v in direction.items() if key != "arity"}]
        ),
        "zero_direction_family": dict(
            family, basis=[dict(direction, coeffs=["0"] * len(direction["coeffs"]))]
        ),
    }
    return {
        **{key: write_json(tmp_path / f"{key}.json", data) for key, data in wrong_types.items()},
        **{key: write_json(tmp_path / f"{key}.json", data) for key, data in bad_families.items()},
        "huge_mask": write_json(
            tmp_path / "huge_mask.json", catalog.quinary_family_mask(10**200).to_dict()
        ),
        "huger_mask": write_json(
            tmp_path / "huger_mask.json", catalog.quinary_family_mask(10**400).to_dict()
        ),
        "point_mask": write_json(
            tmp_path / "point_mask.json", {"arity": 2, "offset": 0, "coeffs": ["1"]}
        ),
        "point_samples": write_json(
            tmp_path / "point_samples.json", {"T": 1, "offset": 0, "values": ["1"]}
        ),
        "ternary_mask": write_json(
            tmp_path / "ternary_mask.json", catalog.ternary_cubic_mask().to_dict()
        ),
        "dense_samples": write_json(
            tmp_path / "dense_samples.json", {"T": 200000, "offset": 0, "values": ["1"]}
        ),
        "points": str(points),
        "deep": str(deep),
        "no_offset_mask": write_json(tmp_path / "no_offset_mask.json", no_offset_mask),
        "no_smoothing_family": write_json(
            tmp_path / "no_smoothing_family.json", no_smoothing_family
        ),
        "no_T_samples": write_json(tmp_path / "no_T_samples.json", no_T_samples),
        "zero_den_mask": write_json(tmp_path / "zero_den_mask.json", zero_den_mask),
        "zero_den_family": write_json(tmp_path / "zero_den_family.json", zero_den_family),
        "mask": cantor_mask_file,
        "bad_seed": write_json(tmp_path / "bad_seed.json", bad_seed.to_dict()),
        "line": write_json(
            tmp_path / "line.json", catalog.quinary_reference_family().to_dict()
        ),
        "plane": write_json(
            tmp_path / "plane.json", derive(catalog.quaternary_problem(0)).to_dict()
        ),
        "missing_dir": str(tmp_path / "no_such_dir"),
        "out_dir": str(tmp_path),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--mask", "{mask}", "--samples", "dd:2", "--depth", "-1"],
        ["eval", "--mask", "{mask}", "--samples", "{bad_seed}", "--depth", "2"],
        ["regularity", "--mask", "{mask}", "--order", "9"],
        ["regularity", "--mask", "{mask}", "--levels", "0"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--grid", "1"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--grid", "1", "--bisect"],
        ["sweep", "--family", "{plane}", "--range=-1:1", "--grid", "5"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--levels", "0"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--levels", "0", "--bisect"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--depth", "-2"],
        ["eval", "--mask", "{mask}", "--samples", "mix:1/0"],
        ["eval", "--mask", "{zero_den_mask}", "--samples", "dd:2"],
        ["sweep", "--family", "{zero_den_family}", "--range=-1:1"],
        ["regularity", "--mask", "{mask}", "--order", "-1"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--order", "-1"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--order", "-1", "--bisect"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "-1"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--maxdeg", "-1"],
        ["sweep", "--family", "{line}", "--range=0:inf", "--grid", "2"],
        ["sweep", "--family", "{line}", "--range=nan:1", "--grid", "2"],
        ["sweep", "--family", "{line}", "--range=-1e308:1e308", "--grid", "3"],
        ["sweep", "--family", "{line}", "--range=-1e308:1e308", "--grid", "3", "--bisect"],
        ["derive", "--arity", "1", "--smoothing", "1", "--kstar", "2", "--samples", "dd4"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "0", "--samples", "dd4"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:0"],
        ["verify", "--mask", "{no_offset_mask}", "--samples", "dd:2"],
        ["regularity", "--mask", "{no_offset_mask}"],
        ["sweep", "--family", "{no_smoothing_family}", "--range=-1:1"],
        ["eval", "--mask", "{mask}", "--samples", "{no_T_samples}"],
        ["sweep", "--family", "{line}", "--range=-1.7e308:0", "--grid", "3"],
        ["sweep", "--family", "{line}", "--range=1e307:1.7e308", "--grid", "2", "--order", "2"],
        ["regularity", "--mask", "{mask}", "--out", "{missing_dir}/x.json"],
        ["regularity", "--mask", "{mask}", "--out", "{out_dir}"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2",
         "--symmetric", "--out", "{missing_dir}/x.json"],
        ["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "dd:2",
         "--symmetric", "--out", "{out_dir}"],
        ["verify", "--mask", "{string_coeffs_mask}", "--samples", "dd:2"],
        ["regularity", "--mask", "{float_offset_mask}"],
        ["regularity", "--mask", "{float_arity_mask}"],
        ["eval", "--mask", "{mask}", "--samples", "{float_T_samples}"],
        ["verify", "--mask", "{mask}", "--samples", "{string_values_samples}"],
        ["sweep", "--family", "{string_symmetric_family}", "--range=-1:1"],
        ["sweep", "--family", "{float_kstar_family}", "--range=-1:1"],
        ["sweep", "--family", "{float_smoothing_family}", "--range=-1:1"],
        ["sweep", "--family", "{bool_coeff_family}", "--range=-1:1"],
        ["sweep", "--family", "{string_arity_family}", "--range=-1:1"],
        ["sweep", "--family", "{arity_7_direction_family}", "--range=-1:1"],
        ["sweep", "--family", "{arity_4_particular_family}", "--range=-1:1"],
        ["sweep", "--family", "{no_arity_direction_family}", "--range=-1:1"],
        ["sweep", "--family", "{zero_direction_family}", "--range=-1:1"],
        ["regularity", "--mask", "{huge_mask}", "--levels=2"],
        ["eval", "--mask", "{huge_mask}", "--samples", "dd4", "--depth", "2"],
        ["curve", "--mask", "{huger_mask}", "--points", "{points}", "--steps", "1"],
        ["eval", "--mask", "{mask}", "--samples", "dd:2", "--depth", "40"],
        ["reproduce", "--mask", "{mask}", "--samples", "dd:2", "--depth", "40"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "40"],
        ["curve", "--mask", "{mask}", "--points", "{points}", "--steps", "40", "--closed"],
        ["eval", "--mask", "{point_mask}", "--samples", "{point_samples}", "--depth", "15000"],
        ["eval", "--mask", "{point_mask}", "--samples", "{point_samples}", "--depth", "1000000"],
        ["reproduce", "--mask", "{point_mask}", "--samples", "{point_samples}", "--depth", "1000000"],
        ["verify", "--mask", "{ternary_mask}", "--samples", "{dense_samples}", "--form", "refinability"],
        ["eval", "--mask", "{ternary_mask}", "--samples", "{dense_samples}", "--depth", "0"],
        ["reproduce", "--mask", "{ternary_mask}", "--samples", "{dense_samples}", "--depth", "0"],
        ["regularity", "--mask", "{mask}", "--levels=40"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--levels=40"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--levels=40", "--bisect"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--grid", "1000001"],
        ["sweep", "--family", "{line}", "--range=-1:1", "--grid", "1000001", "--bisect"],
        ["verify", "--mask", "{deep}", "--samples", "dd4"],
        ["verify", "--mask", "{mask}", "--samples", "{deep}"],
        ["sweep", "--family", "{deep}", "--range=-1:1"],
    ],
    ids=[
        "eval-negative-depth",
        "eval-inconsistent-seed",
        "regularity-order-too-high",
        "regularity-zero-levels",
        "sweep-grid-1",
        "bisect-grid-1",
        "sweep-plane-family",
        "sweep-zero-levels",
        "bisect-zero-levels",
        "reproduce-negative-depth",
        "eval-zero-denominator-samples",
        "eval-zero-denominator-mask",
        "sweep-zero-denominator-family",
        "regularity-negative-order",
        "sweep-negative-order",
        "bisect-negative-order",
        "curve-negative-steps",
        "reproduce-negative-maxdeg",
        "sweep-infinite-range",
        "sweep-nan-range",
        "sweep-overflowing-range",
        "bisect-overflowing-range",
        "derive-arity-1",
        "derive-kstar-0",
        "derive-zero-point-samples",
        "verify-mask-without-offset",
        "regularity-mask-without-offset",
        "sweep-family-without-smoothing",
        "eval-samples-without-T",
        "sweep-overflowing-grid",
        "sweep-overflowing-bound",
        "regularity-out-missing-dir",
        "regularity-out-directory",
        "derive-out-missing-dir",
        "derive-out-directory",
        "verify-mask-string-coeffs",
        "regularity-mask-float-offset",
        "regularity-mask-float-arity",
        "eval-samples-float-T",
        "verify-samples-string-values",
        "sweep-family-string-symmetric",
        "sweep-family-float-kstar",
        "sweep-family-float-smoothing",
        "sweep-family-bool-coefficient",
        "sweep-family-string-direction-arity",
        "sweep-family-direction-arity-7",
        "sweep-family-particular-arity-4",
        "sweep-family-direction-without-arity",
        "sweep-family-zero-direction",
        "regularity-norm-overflow",
        "eval-value-overflow",
        "curve-weight-overflow",
        "eval-runaway-depth",
        "reproduce-runaway-depth",
        "curve-runaway-steps",
        "curve-closed-runaway-steps",
        "eval-one-point-support-depth-15000",
        "eval-one-point-support-depth-1000000",
        "reproduce-one-point-support-depth-1000000",
        "verify-refinability-dense-lattice",
        "eval-dense-seed-depth-0",
        "reproduce-dense-seed-depth-0",
        "regularity-runaway-levels",
        "sweep-runaway-levels",
        "bisect-runaway-levels",
        "sweep-grid-above-cap",
        "bisect-grid-above-cap",
        "verify-deeply-nested-mask",
        "verify-deeply-nested-samples",
        "sweep-deeply-nested-family",
    ],
)
def test_bad_input_exits_2_without_traceback(argv, bad_input_files, capsys):
    code = main([a.format(**bad_input_files) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if "--levels" in argv:
        assert "at least one level, got 0" in err
    if "/0" in " ".join(argv) or "zero_den" in " ".join(argv):
        assert "zero denominator" in err
    if any(a.startswith("--range=") and ("inf" in a or "nan" in a) for a in argv):
        assert "bounds must be finite" in err
    if "--range=-1e308:1e308" in argv:
        assert "bad range" in err and "width must be finite" in err
    if "{no_offset_mask}" in argv:
        assert "bad mask file" in err and "missing key 'offset'" in err
    if "{no_smoothing_family}" in argv:
        assert "bad family file" in err and "missing key 'smoothing'" in err
    if "{no_T_samples}" in argv:
        assert "bad sample file" in err and "missing key 'T'" in err
    if "--range=-1.7e308:0" in argv:
        assert "bad range" in err and "a grid point overflows" in err
    if "--range=1e307:1.7e308" in argv:
        assert err == ("error: a bound on range '1e307:1.7e308' is not finite: Out of range float"
                       " values are not JSON compliant: inf\n")
    if "40" in argv:
        assert "would hold more than 1000000 points" in err
    if "{point_mask}" in argv:
        assert f"a lattice of depth {argv[-1]} would be finer than Z/1000001" in err
    if "{dense_samples}" in argv:
        assert "A(z^200000) V(z) would hold 2600001 entries, more than 1000000" in err
    if "--levels=40" in argv:
        assert "an iterate of 40 levels would hold more than 1000000 entries" in err
    if "--out" in argv:
        out = argv[argv.index("--out") + 1].format(**bad_input_files)
        assert err.startswith(f"error: cannot write {out}: ")
    for key, message in WRONG_TYPE_MESSAGES.items():
        if "{%s}" % key in argv:
            assert err == f"error: {message.format(bad_input_files[key])}\n"
    for key, message in FAMILY_MESSAGES.items():
        if "{%s}" % key in argv:
            assert err == f"error: bad family file {bad_input_files[key]}: {message}\n"
    if "{huge_mask}" in argv or "{huger_mask}" in argv:
        assert "beyond the float range" in err
    if "1000001" in argv:
        assert "a grid needs 2 to 1000000 points, got 1000001" in err
    if "{deep}" in argv:
        # json.load's RecursionError, whose text varies across Python versions
        assert err.startswith(f"error: cannot read JSON from {bad_input_files['deep']}: ")
        assert "recursion" in err


FAR = 10**12


@pytest.mark.parametrize(
    "argv,message",
    [
        (["derive", "--arity", "3", "--smoothing", "1", "--kstar", "300", "--samples", "dd:2"],
         "a system of 603 rows and 598 unknowns would take more than 1000000 elimination steps"),
        (["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", "mix:1e10000000"],
         "bad sample shorthand 'mix:1e10000000': exponent 10000000 exceeds 4300 in magnitude"),
        (["regularity", "--mask", "{exponent_mask}"],
         "bad mask file {exponent_mask}: exponent 10000000 exceeds 4300 in magnitude"),
    ],
    ids=["derive-kstar-300", "derive-mix-exponent", "regularity-coefficient-exponent"],
)
def test_runaway_inputs_exit_2_at_once(argv, message, tmp_path, capsys):
    # each ran 10-15 s before it was refused in closed form
    files = {
        "exponent_mask": write_json(
            tmp_path / "exponent_mask.json", {"arity": 3, "offset": -1, "coeffs": ["1e10000000", "1", "1"]}
        ),
    }
    start = time.perf_counter()
    code = main([a.format(**files) for a in argv])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"
    assert elapsed < 0.05


@pytest.mark.parametrize(
    "argv,residual",
    [
        (["--mask", "{cantor}", "--samples", "{far}", "--form", "refinability"],
         [[FAR - 1, "-1/2"], [3 * FAR, "1/2"]]),
        (["--mask", "{cantor}", "--samples", "{far_odd}"],
         [[-3, "-1/4"], [0, "1/2"], [3, "-1/4"], [FAR + 2, "-1/2"], [3 * FAR + 3, "1/2"]]),
        (["--mask", "{wide}", "--samples", "dd4", "--form", "refinability"],
         [[-3 * FAR, "-1/32"], [-FAR, "9/32"], [0, f"{1 - FAR}/2"], [FAR, "9/32"],
          [3 * FAR, "-1/32"]]),
    ],
    ids=["refinability-far-samples", "dual-far-odd-samples", "refinability-huge-arity"],
)
def test_far_identity_inputs_exit_3_at_once(argv, residual, tmp_path, cantor_mask_file, capsys):
    # the residual is summed window by window, so a sample 10^12 lattice steps
    # from the mask, or an arity of 10^12, costs no more than a near one
    files = {
        "cantor": cantor_mask_file,
        "far": write_json(tmp_path / "far.json", {"T": 2, "offset": FAR, "values": ["1"]}),
        "far_odd": write_json(tmp_path / "far_odd.json", {"T": 2, "offset": FAR + 1, "values": ["1"]}),
        "wide": write_json(tmp_path / "wide.json", {"arity": FAR, "offset": 0, "coeffs": [str(FAR)]}),
    }
    start = time.perf_counter()
    code = main(["verify", *(a.format(**files) for a in argv)])
    elapsed = time.perf_counter() - start
    assert code == 3
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"satisfied": False, "residual": residual}
    assert elapsed < 0.05


@pytest.mark.parametrize(
    "samples",
    [{"T": 2, "offset": 0, "values": []}, {"T": 2, "offset": 1, "values": ["1/2"]},
     {"T": 2, "offset": -1, "values": ["1/2", "0", "1/2"]}],
    ids=["no-values", "zero-outside-the-window", "zero-stored-as-0"],
)
def test_derive_refuses_samples_without_phi_of_zero_one(samples, tmp_path, capsys):
    # the first printed the Cantor mask with exit 0 and the second exited 1 as
    # infeasible: phi(0) = 1 was checked only where 0 was stored
    path = write_json(tmp_path / "samples.json", samples)
    code = main(["derive", "--arity", "3", "--smoothing", "1", "--kstar", "2", "--samples", path])
    assert code == 2
    assert capsys.readouterr() == ("", "error: samples must take delta values at the integers\n")


HAT = {"arity": 2, "offset": -1, "coeffs": ["1/2", "1", "1/2"]}
DELTA = {"T": 1, "offset": 0, "values": ["1"]}


@pytest.mark.parametrize(
    "argv,degree",
    [
        (["--mask", "{hat}", "--samples", "{delta}", "--depth", "0", "--maxdeg", "1000000"], 1000000),
        (["--mask", "{cantor}", "--samples", "dd:2", "--depth", "6", "--maxdeg", "400"], 0),
    ],
    ids=["hat-delta-every-degree", "cantor-depth-6"],
)
def test_reproduce_degree_loop_stops_at_once(argv, degree, tmp_path, cantor_mask_file, capsys):
    # the hat lattice at depth 0 reproduces every degree; each call took
    # seconds while the loop ran up to --maxdeg
    files = {"hat": write_json(tmp_path / "hat.json", HAT),
             "delta": write_json(tmp_path / "delta.json", DELTA), "cantor": cantor_mask_file}
    start = time.perf_counter()
    code = main(["reproduce", *(a.format(**files) for a in argv)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"degree": degree}
    assert elapsed < 0.05


def test_reproduce_takes_no_tolerance(tmp_path, capsys):
    argv = ["reproduce", "--mask", write_json(tmp_path / "hat.json", HAT),
            "--samples", write_json(tmp_path / "delta.json", DELTA), "--tol", "1e-8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: unrecognized arguments: --tol 1e-8\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reproduce", "--maxdeg", "x"], "argument --maxdeg: invalid int value: 'x'"),
        (["reproduce", "--mask", "m.json", "--samples", "dd4", "--tol", "1e-8"],
         "unrecognized arguments: --tol 1e-8"),
        ([], "the following arguments are required: command"),
    ],
    ids=["malformed", "unknown", "no-command"],
)
def test_usage_errors_exit_2_with_one_error_line(argv, message, tmp_path, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert _fresh_process(argv, tmp_path) == (2, "", f"error: {message}\n")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: dualsubdiv reproduce")
    assert err == ""


@pytest.mark.parametrize(
    "faults",
    [
        ["--grid", "1", "--levels", "0"],
        ["--grid", "1000001", "--order", "-1"],
        ["--range=-1.7e308:0", "--grid", "3", "--levels", "0"],
        ["--family", "{plane}", "--order", "-1"],
        ["--order", "-1", "--levels", "0"],
        ["--levels", "0", "--grid", "1000000"],
        ["--levels", "40", "--grid", "1000000"],
    ],
    ids=["count-levels", "count-order", "overflow-levels", "dimension-order", "order-levels",
         "levels-total", "iterate-total"],
)
def test_both_sweep_modes_refuse_in_one_order(faults, bad_input_files, capsys):
    # grid count, grid overflow, dimension, order, levels, iterate, sweep total
    argv = ["sweep", "--family", "{line}", "--range=-1:1", *faults]
    errors = []
    for mode in ([], ["--bisect"]):
        assert main([a.format(**bad_input_files) for a in argv + mode]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1


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


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["derive", "--arity", "3", "--smoothing", "4", "--kstar", "1", "--samples", "dd4"],
         2, "error: no unknowns: 2k* - d(m-1) = -6 < 1"),
        (["verify", "--mask", "{primal_mask}", "--samples", "dd:2"],
         2, "error: dual forms require tau = 1/2, got 0"),
        (["verify", "--mask", "{mask}", "--samples", "{z1_samples}", "--form", "refinability"],
         2, "error: tau*T = 1/2 is not an integer"),
        (["verify", "--mask", "{binary_mask}", "--samples", "dd4"],
         2, "error: arity 2 admits no convergent dual interpolatory scheme"),
        (["eval", "--mask", "{mask}", "--samples", "{bad_seed}"],
         2, "error: refinement equation fails at"),
        (["sweep", "--family", "{line}", "--order", "2", "--range=5:6", "--bisect"],
         2, "error: no contractive parameter among 129 samples in [5.0, 6.0]"),
        (["regularity", "--mask", "{mask}", "--order", "9"],
         2, "error: no factorization of order 10 for arity 3"),
        (["sweep", "--family", "{line}", "--range=-8e307:8e307", "--grid", "3"],
         2, "error: bad range '-8e307:8e307': a grid point overflows"),
        (["derive", "--arity", "3", "--smoothing", "4", "--kstar", "5", "--samples", "dd4", "--symmetric"],
         1, "infeasible: no dual interpolatory mask with arity 3"),
        (["verify", "--mask", "no/such/file.json", "--samples", "dd4"],
         2, "error: cannot read JSON from no/such/file.json"),
        (["regularity", "--mask", "{huge_mask}", "--levels=2"],
         2, "error: a value is beyond the float range"),
    ],
    ids=[
        "InvalidWindow", "ShiftMismatch", "ShiftLatticeMismatch", "ArityTwoUnsupported",
        "SeedInconsistent", "NoContractivePoint", "NotDivisible", "GridOverflow",
        "InfeasibleProblem",
        "CliError", "OverflowError",
    ],
)
def test_main_maps_each_exception_to_its_exit_code(argv, code, message, tmp_path, bad_input_files, capsys):
    files = dict(
        bad_input_files,
        primal_mask=write_json(tmp_path / "primal.json", {"arity": 3, "offset": -1, "coeffs": ["1", "1", "1"]}),
        z1_samples=write_json(tmp_path / "z1.json", {"T": 1, "offset": 0, "values": ["1"]}),
        binary_mask=write_json(tmp_path / "m2.json", Mask(2, 0, [1, 1]).to_dict()),
    )
    assert main([a.format(**files) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


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


def _fresh_process(argv, cwd, stdout=subprocess.PIPE, timeout=120):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualsubdiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dualsubdiv.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=cwd, env=env, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


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
    from dualsubdiv.cli import build_parser

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
