"""Pinned output bytes of ``eval``, ``curve``, ``reproduce`` and ``regularity``
on the catalog, of ``eval`` and ``curve`` on one asymmetric mask, of
``derive`` and ``verify`` on a slice of the design grid, and of ``sweep`` and
``sweep --bisect`` along three one-parameter families.

Each case runs the CLI on a catalog mask and compares the sha256 of its
standard output with a digest recorded on CPython 3.11.  The floats a
command prints must not depend on the interpreter, so the same digests
hold on every supported Python.  ``curve-closed-2pt`` wraps the product of
one step around a 2-point polygon in three or more blocks on every mask but
Cantor's: a float ``sum`` there prints different last digits from Python
3.12 on, where ``sum`` is compensated.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

from dualsubdiv import catalog
from dualsubdiv.cli import main
from dualsubdiv.construct import ConstructionProblem, derive
from dualsubdiv.samples import samples_from_shorthand
from test_contractivity_kernel import LINE_SHAPES, QUINARY_SEARCH, derived_line

# name -> (mask, sample shorthand, eval depth, reproduce depth, curve steps)
MASKS = {
    "cantor": (catalog.cantor_mask, "dd:2", 3, 3, 3),
    "ternary": (catalog.ternary_cubic_mask, "dd4", 3, 3, 3),
    "quinary_w0": (lambda: catalog.quinary_family_mask(F(0)), "dd4", 2, 2, 2),
    "quinary_w-7_5": (lambda: catalog.quinary_family_mask(F(-7, 5)), "dd4", 2, 2, 2),
    "quinary_w10": (lambda: catalog.quinary_family_mask(F(10)), "dd4", 2, 2, 2),
    "quartic": (catalog.quaternary_quartic_mask, "dd6", 2, 2, 2),
    "quaternary_cubic": (
        lambda: catalog.quaternary_family_mask(F(1, 2), *catalog.quaternary_cubic_params(F(1, 2))),
        "mix:1/2",
        2,
        2,
        2,
    ),
}

# the difference-scheme orders each mask admits, at the levels per arity
# that the family-scan benchmark runs them
REGULARITY_ORDERS = {name: (0,) if name == "cantor" else (0, 1, 2) for name in MASKS}
REGULARITY_LEVELS = {3: 6, 4: 4, 5: 4}

# zero, negative and inexact coordinates
POLYGON = "x,y\n0,0\n1.5,-0.25\n2.1,1.3\n0.7,2.2\n-0.9,1.1\n"
SEGMENT = "x,y\n0.3,-1.7\n2.9,0.4\n"


def _commands(paths, name):
    factory, spec, eval_depth, repro_depth, steps = MASKS[name]
    mask = ["--mask", paths["mask"]]
    levels = str(REGULARITY_LEVELS[factory().arity])
    regularity = {
        f"regularity-o{order}": ["regularity", *mask, "--order", str(order), "--levels", levels]
        for order in REGULARITY_ORDERS[name]
    }
    return {
        "eval": ["eval", *mask, "--samples", spec, "--depth", str(eval_depth)],
        "reproduce": ["reproduce", *mask, "--samples", spec, "--maxdeg", "5",
                      "--depth", str(repro_depth)],
        "curve-open": ["curve", *mask, "--points", paths["polygon"], "--steps", str(steps)],
        "curve-closed": ["curve", *mask, "--points", paths["polygon"], "--steps", str(steps),
                         "--closed"],
        "curve-closed-2pt": ["curve", *mask, "--points", paths["segment"], "--steps", "1",
                             "--closed"],
        **regularity,
    }


def _write_inputs(directory, name):
    paths = {
        "mask": directory / f"{name}.json",
        "polygon": directory / "polygon.csv",
        "segment": directory / "segment.csv",
    }
    paths["mask"].write_text(json.dumps(MASKS[name][0]().to_dict()))
    paths["polygon"].write_text(POLYGON)
    paths["segment"].write_text(SEGMENT)
    return {key: str(path) for key, path in paths.items()}


def stdout_digest(argv):
    """(exit code, sha256 of the standard output) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def digests(directory, name):
    """'<mask>/<command>' -> stdout sha256 of every case of one mask."""
    paths = _write_inputs(directory, name)
    result = {}
    for command, argv in _commands(paths, name).items():
        code, digest = stdout_digest(argv)
        assert code == 0, argv
        result[f"{name}/{command}"] = digest
    return result


GOLDEN = {
    "cantor/eval": "ecf88b2414f29f50ca13f74d121f33e09276a1c6980e10f87928658d41872306",
    "cantor/reproduce": "ab2affbf55099248e5e1436154128f73751820cdf23d4b124e5dfe2dd77140d2",
    "cantor/curve-open": "8776c454a5ebb8a14ef0e7ac0f307cc564ebcc27660106fbe085036806426f63",
    "cantor/curve-closed": "d31fc334c4d13ab85f2b7a7ab7cdd4413e129f2c77cd16f16916a27ee29f2342",
    "cantor/curve-closed-2pt": "0571e162689efc41dd1fb138247014c7463e7ace403b68282cdad71569fe14e6",
    "cantor/regularity-o0": "027efa9ebe71e14ecc599e8f8570a890a9d5cac7fa40b5d012f17a9819ef5f31",
    "ternary/eval": "738e55a3cde6e84417e145882967a01d1b6c2b49710ebc3cae0ddaa578370a3e",
    "ternary/reproduce": "24cac1ba5cb0ef9f6d9a7eab1db6b5ccc23243790fcf041e659dfb92d0056b8b",
    "ternary/curve-open": "4ebab718b7b82056d301fcde060060c11023a4b5078b04c1c488bf50f5727ec4",
    "ternary/curve-closed": "c6f2183ebe3ecab9086c91601889c0ac39182010d709d666812fef6f6c3f60ab",
    "ternary/curve-closed-2pt": "64573731ca9b90e5d88fef244ce70941318e608cc642fe7ccdd2afb4c6aebfc8",
    "ternary/regularity-o0": "038b9023041cbfcf3317dc59884c4ef70ea73b8be3aa9a5761b39d5fd8481ec3",
    "ternary/regularity-o1": "93e0e2ca2059e2ab1b49053a6c7f090c81e3e8d343b19d2a7a385aff5073b1ca",
    "ternary/regularity-o2": "56b03614bdcda88e04eca1468d9a8df233220e185051277cd59e58ae9572234f",
    "quinary_w0/eval": "62d4dc3051f85ba1a05e1b128ac46fd8e9b4267e6d560b56ee4370db2feb5848",
    "quinary_w0/reproduce": "3ccd0e825a8b7da72f19dfdf9ffae9cd1d496e36e6a07111225bdf9ba7ff2d5f",
    "quinary_w0/curve-open": "38566df890452364ed1cb9276bcd6330d635aad9c549cd752e43d90c071e0f42",
    "quinary_w0/curve-closed": "b9d4c9f8a03b6df58126560f9abf63dcd29456eecee89c04735b97833862100a",
    "quinary_w0/curve-closed-2pt": "211fed96179507123440daf34591096db6d9565eef733b97782d98e6aaf72d1f",
    "quinary_w0/regularity-o0": "a847a8d82b2e8a60d67bd3cf4d430020fff279fe764c512f61118439835085cf",
    "quinary_w0/regularity-o1": "0ac5725730498655f8d79a8b8d6f5580b08b6de141a95906b24e293bdd965a8c",
    "quinary_w0/regularity-o2": "1c7588f4f1345b0040d5119a92bdc3891308ae6c5b5ebfa49d62cac5375df8e9",
    "quinary_w-7_5/eval": "0b6f114847cb78041d280a04a1a189164496be9d14fa4feefb4fac62a41e0a56",
    "quinary_w-7_5/reproduce": "3ccd0e825a8b7da72f19dfdf9ffae9cd1d496e36e6a07111225bdf9ba7ff2d5f",
    "quinary_w-7_5/curve-open": "c98c2c8f7737530df1cf764e79c331a692953505a8fb86cf1d67a40eb62ccbd8",
    "quinary_w-7_5/curve-closed": "f493eeaea7ff1a585c02de89d19876bd360303d9d2319375c7eb68456b763d15",
    "quinary_w-7_5/curve-closed-2pt": "305ad3957ed37fe2ef2e00dc5a86e5873df50dce2163e4c96a7a98b4695d6170",
    "quinary_w-7_5/regularity-o0": "a45dbf43d8d0486d53259481df405ba4b44fff781e6185f0285b9d338a2766f6",
    "quinary_w-7_5/regularity-o1": "c34a5dbac9577c68ba7adc43430f19049cd52dfb404f92cde14790ebb90b985b",
    "quinary_w-7_5/regularity-o2": "3c898845ea6b004e3f3136524d2148622f745d695d8975b763c27532879454e9",
    "quinary_w10/eval": "fc77ce9c53b0fd119cf8bd40c73087c834f2724b19e5de656b8d96ba7968da5a",
    "quinary_w10/reproduce": "3ccd0e825a8b7da72f19dfdf9ffae9cd1d496e36e6a07111225bdf9ba7ff2d5f",
    "quinary_w10/curve-open": "ad576ac0427931a5f0c9aa7823e07bf31a4f9c10d8c6ba5e68676c1028a0dc03",
    "quinary_w10/curve-closed": "447af1d619aa4fde72f2cc1034ff1c658db98c9aebd869d1d67659265a80da1a",
    "quinary_w10/curve-closed-2pt": "b9db02ddaa80261559a23446fbf42b2bab1aadbdb10dc5a693972ab126101e5b",
    "quinary_w10/regularity-o0": "8cafc987dba4bfbabf7687b067f4c372a9af5ddc9a923aa7dff92807f1be7c7a",
    "quinary_w10/regularity-o1": "14dfc90db10218bd6904b6f5910908b3e5bbe3c23a20a1f2d216371549d74d19",
    "quinary_w10/regularity-o2": "d553c8dab11590917251dcfc82fb3545c0d86600c7e6933a797fe787a7bbf02d",
    "quartic/eval": "24dc4a79227ec1a2d5c4664a9121d58122b6b395565421c48da37946ea435453",
    "quartic/reproduce": "d2d79602949da3221e2d9b405589dcf7afa614507ae37a663c181dd0a3b07ab9",
    "quartic/curve-open": "859e0d2229db16f337ef91705f10cfb041d03871b9e4f50281eb79572fa084e3",
    "quartic/curve-closed": "9a76f8ce864cab4c5e0f9b680fb3223973d998605df2c57e5769a249094b8154",
    "quartic/curve-closed-2pt": "c3efe6875d7f24e183e7e6ea9d22fa29c7f1c9d62a100fb47c6f9e5d0da0b3d1",
    "quartic/regularity-o0": "7cfe09e80f32e3df59463547004f92fa4268ee2b4e9abe6c1332905a79f863c8",
    "quartic/regularity-o1": "36d9b1951fa5d0a19dd3c996d96e8c487b98d12193f53c302097a55a21596706",
    "quartic/regularity-o2": "3eef9a8ab0787a28642ca801f9a1f2e0f3e43f284ca356b9fe21544363173133",
    "quaternary_cubic/eval": "5260f1365035216343ad9f89652b0f21535b0b89c664c4b60b4ee374176516bf",
    "quaternary_cubic/reproduce": "24cac1ba5cb0ef9f6d9a7eab1db6b5ccc23243790fcf041e659dfb92d0056b8b",
    "quaternary_cubic/curve-open": "af3bcfce37899c655bc51c641eac5e8880201533c40a627d79f5525edc07d3cf",
    "quaternary_cubic/curve-closed": "62c4afed27937764131baefbf46f22086cd5068e4742b52a88b69e51b4bfdb0d",
    "quaternary_cubic/curve-closed-2pt": "656416d9d42fabf54bba4489606d237beee753ca74421701449fbd63deb0bb8c",
    "quaternary_cubic/regularity-o0": "03d8a68ef0893c06ccec16d78fe5eaca5c91d3f36f9e394e255bef85edb8c66b",
    "quaternary_cubic/regularity-o1": "3cf85b3fb36d9b6df6abac028e1671feb6b517c5f3b25c2c4b31dd60590313f1",
    "quaternary_cubic/regularity-o2": "cc166e1233b9f3100897dd5c375f78da2989a2560ed7ea7f73ac88484d6a7f26",
}


@pytest.mark.parametrize("name", MASKS)
def test_outputs_match_the_recorded_bytes(tmp_path, name):
    wanted = {key: v for key, v in GOLDEN.items() if key.startswith(f"{name}/")}
    assert digests(tmp_path, name) == wanted


# a member of `derive --arity 3 --smoothing 1 --kstar 4 --samples dd:2` that is
# not symmetric: its dd:2 lattice at depth 2 runs from -31 to 13 over 18, so
# neither its values nor its x magnitudes mirror
ASYMMETRIC = {"arity": 3, "offset": -3, "coeffs": ["1/2", "-1/2", "1/2", "1/2", "3/2", "1/2"]}

ASYMMETRIC_GOLDEN = {
    "eval-depth2": "b657f56c1c2861c9021afcf8e1ceaaf96c9dd38ca5586fef5e95b6eddee239a1",
    "eval-depth4": "4e9daea21a4dc1f1633d35104b8d8c1110600cf1a9741622a3d8d4bfb1d43b98",
    "curve-open": "2a800c895fbbc4a5ca4cfe5889e9a92a79b4000028b5e65335753ff5d73c76d0",
    "curve-closed": "6404c7599fe8fd5add38ece0076a098caf47af518772d7753c5a5f1fb3465cfc",
}


def test_asymmetric_outputs_match_the_recorded_bytes(tmp_path):
    mask = tmp_path / "asymmetric.json"
    mask.write_text(json.dumps(ASYMMETRIC))
    polygon = tmp_path / "polygon.csv"
    polygon.write_text(POLYGON)
    evaluate = ["eval", "--mask", str(mask), "--samples", "dd:2", "--depth"]
    curve = ["curve", "--mask", str(mask), "--points", str(polygon), "--steps", "3"]
    commands = {
        "eval-depth2": [*evaluate, "2"],
        "eval-depth4": [*evaluate, "4"],
        "curve-open": curve,
        "curve-closed": [*curve, "--closed"],
    }
    got = {name: stdout_digest(argv) for name, argv in commands.items()}
    assert got == {name: (0, digest) for name, digest in ASYMMETRIC_GOLDEN.items()}


# a slice of the design grid: name -> (derive arguments, the other samples the
# derived mask is verified on, where the identity fails and its residual prints)
DERIVE_CASES = {
    "m11-d6-k45-dd8": (["--arity", "11", "--smoothing", "6", "--kstar", "45", "--samples", "dd:8",
                        "--symmetric"], "dd:6"),
    "m3-d1-k4-dd2-asymmetric": (["--arity", "3", "--smoothing", "1", "--kstar", "4", "--samples",
                                 "dd:2"], "dd4"),
    "m4-d3-k11-mix": (["--arity", "4", "--smoothing", "3", "--kstar", "11", "--samples", "mix:1/2",
                       "--symmetric"], "dd6"),
    "m5-d3-k10-dd4": (["--arity", "5", "--smoothing", "3", "--kstar", "10", "--samples", "dd4",
                       "--symmetric"], "dd6"),
}


def derive_digests(directory, name):
    """'<case>/<command>' -> (exit code, stdout sha256) of one derive and of
    verify, in the dual and the refinability form, on its mask (a family's
    particular member)."""
    argv, other = DERIVE_CASES[name]
    samples = argv[argv.index("--samples") + 1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["derive", *argv])
    assert code == 0, argv
    result = {f"{name}/derive": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    derived = json.loads(out.getvalue())
    path = directory / f"{name}.json"
    path.write_text(json.dumps(derived.get("particular", derived)))
    for form in ("dual", "refinability"):
        verify = ["verify", "--mask", str(path), "--form", form]
        result[f"{name}/verify-{form}"] = stdout_digest([*verify, "--samples", samples])
        result[f"{name}/verify-{form}-{other}"] = stdout_digest([*verify, "--samples", other])
    return result


# the digest of {"satisfied": true, "residual": []}
SATISFIED = "78dc1cc282e9c9a74c49268bcaf17cb8fe824d0ebbbf6825564cfae088238a46"
DERIVE_GOLDEN = {
    "m11-d6-k45-dd8/derive": "931a6409f267fc2ba5e36b4912744c0560c379c9d259d9cf85ed9269c78b35e5",
    "m11-d6-k45-dd8/verify-dual": (0, SATISFIED),
    "m11-d6-k45-dd8/verify-dual-dd:6": (3, "1f2d9b36c41df123ecfb4364c14cc473893afdf333b3008dc516fab95981a222"),
    "m11-d6-k45-dd8/verify-refinability": (0, SATISFIED),
    "m11-d6-k45-dd8/verify-refinability-dd:6": (3, "1f2d9b36c41df123ecfb4364c14cc473893afdf333b3008dc516fab95981a222"),
    "m3-d1-k4-dd2-asymmetric/derive": "a6cc4eef600657ead0e0110c7b43d1ec9e39fe9a274e87ba7f0632ee9477ae50",
    "m3-d1-k4-dd2-asymmetric/verify-dual": (0, SATISFIED),
    "m3-d1-k4-dd2-asymmetric/verify-dual-dd4": (3, "4bb9b376dd4a7dd02a80b6779737ba13ee4bd549d611fd4e756157fce7f72183"),
    "m3-d1-k4-dd2-asymmetric/verify-refinability": (0, SATISFIED),
    "m3-d1-k4-dd2-asymmetric/verify-refinability-dd4": (3, "4bb9b376dd4a7dd02a80b6779737ba13ee4bd549d611fd4e756157fce7f72183"),
    "m4-d3-k11-mix/derive": "73044f4ce4bc479f62d203a88f5c3cc3c33b3e24b8e8a6e581b8a3572bd5be36",
    "m4-d3-k11-mix/verify-dual": (0, SATISFIED),
    "m4-d3-k11-mix/verify-dual-dd6": (3, "f5ece0e5d8d170ee36aa61403e4bd5ba5cbea0172ef788254ae623ffa4089f82"),
    "m4-d3-k11-mix/verify-refinability": (0, SATISFIED),
    "m4-d3-k11-mix/verify-refinability-dd6": (3, "f5ece0e5d8d170ee36aa61403e4bd5ba5cbea0172ef788254ae623ffa4089f82"),
    "m5-d3-k10-dd4/derive": "3602c707745af82956f97fb1543f9441da5a3bd389b2b326998260b47c3b21b7",
    "m5-d3-k10-dd4/verify-dual": (0, SATISFIED),
    "m5-d3-k10-dd4/verify-dual-dd6": (3, "a0028d1309bed849e14b9dbadc0246ede6f2ae1fbbd2a64aa1ce9d9ef5516f25"),
    "m5-d3-k10-dd4/verify-refinability": (0, SATISFIED),
    "m5-d3-k10-dd4/verify-refinability-dd6": (3, "a0028d1309bed849e14b9dbadc0246ede6f2ae1fbbd2a64aa1ce9d9ef5516f25"),
}


@pytest.mark.parametrize("name", DERIVE_CASES)
def test_derive_and_verify_match_the_recorded_bytes(tmp_path, name):
    wanted = {key: v for key, v in DERIVE_GOLDEN.items() if key.startswith(f"{name}/")}
    assert derive_digests(tmp_path, name) == wanted


def test_infeasible_derive_prints_its_one_line(capsys):
    argv = ["derive", "--arity", "3", "--smoothing", "4", "--kstar", "5", "--samples", "dd4",
            "--symmetric"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "infeasible: no dual interpolatory mask with arity 3,"
                                   " smoothing order 4, k* = 5 and symmetry for these samples\n")


# family -> (the family, its sweep range per order).  The quinary reference
# family runs the family-scan benchmark's ranges.  On the derived m = 6 line
# each range meets the contractive parameters of orders 0 and 1 (bisected at
# one end or both); none is contractive at order 2, so that --bisect exits 2.  The README's derived
# quinary family runs the ``sweep`` of the CI's installed-script step.
SWEEP_FAMILIES = {
    "quinary": (catalog.quinary_reference_family, QUINARY_SEARCH),
    "derived_m6": (
        lambda: derived_line(*next(s for s in LINE_SHAPES if s[0] == 6)),
        {0: (-4, 4), 1: (0, 4), 2: (0, 4)},
    ),
    "readme_quinary": (
        lambda: derive(ConstructionProblem(5, 3, 10, samples_from_shorthand("dd4"), True)),
        {2: (-2.5, 0)},
    ),
}


def sweep_digests(directory, name):
    """'<family>/o<order>-l<levels>[-bisect]' -> (exit code, stdout sha256) of
    ``sweep --grid 33`` with and without ``--bisect`` at levels 3 and 4."""
    factory, ranges = SWEEP_FAMILIES[name]
    path = directory / f"{name}.json"
    path.write_text(json.dumps(factory().to_dict()))
    result = {}
    for order, (lo, hi) in ranges.items():
        for levels in (3, 4):
            argv = ["sweep", "--family", str(path), "--order", str(order), "--levels",
                    str(levels), f"--range={lo}:{hi}", "--grid", "33"]
            result[f"{name}/o{order}-l{levels}"] = stdout_digest(argv)
            result[f"{name}/o{order}-l{levels}-bisect"] = stdout_digest([*argv, "--bisect"])
    return result


# the digest of no output
EMPTY = hashlib.sha256(b"").hexdigest()
SWEEP_GOLDEN = {
    "quinary/o0-l3": (0, "b61db4066b699c78fb95be31c9c92a8ff91f85dff3c280f4e07d39f9f55c7b96"),
    "quinary/o0-l3-bisect": (0, "49f3471f0192ac67af7f09ca2a18ef02facd3fddcf4e95485064979f4b9c8657"),
    "quinary/o0-l4": (0, "bbe0045cb432c0ba0dfd5a70f768a526ad72a9021b2041d15c9b895515fadc4d"),
    "quinary/o0-l4-bisect": (0, "26111c780c2654b36111aeb18f151ff42ad1e0ba1e6c5def17a08eb37e38b096"),
    "quinary/o1-l3": (0, "981aa5356d1c9aeab22c74c83343a028be528725028813e9a6e37f10fac7ed10"),
    "quinary/o1-l3-bisect": (0, "bc7834faa0ae6a5023366eb4216bb5a041b4075e8617ea64c67a51179cbaa4c4"),
    "quinary/o1-l4": (0, "5fff43d74cd9fc88454ea51be3eaf443439d19de3eda7caa18677e4a0f9f1a6c"),
    "quinary/o1-l4-bisect": (0, "b9244c3703338761c189baa4c790d58c0d9880abb35351a756ee865ed385f457"),
    "quinary/o2-l3": (0, "fa6d679ecd1ee3297bbda638be7b14f67e656449e1490205a61f650a086d9412"),
    "quinary/o2-l3-bisect": (0, "3abb2eb64a581cb853eea9ce8e1d80d7f1e097c335873e58523dfb735c8753db"),
    "quinary/o2-l4": (0, "c0f6e3ae8988fa3f4a7a76fdf39ba9e744fdb0391872e94bae0fea842f62bc5f"),
    "quinary/o2-l4-bisect": (0, "5aa002531c6199ae3056480453cd0e26006b33dc88a8f46f5d184b91facf8d94"),
    "derived_m6/o0-l3": (0, "709cf6ee01fb6b32e2eb4402b18c9c8a021bcc0f95ff3930c759bced8afad019"),
    "derived_m6/o0-l3-bisect": (0, "707a5f7cf13a6dbbc6a22f6f7aa5abade0ac4a75f27af361aef73dc718fc8b22"),
    "derived_m6/o0-l4": (0, "c2518850099c70d5e6b49b1336dc40cb1d7e62d9de35c4fb84ae7992d20d94d3"),
    "derived_m6/o0-l4-bisect": (0, "a2149f313b63dde0cb07b01ef27f67d80bf93e7a922924d2095af6982d01c175"),
    "derived_m6/o1-l3": (0, "9c76ccdd90ec4a96e4f36a427fd72be76fdcc1ba7b01e8c5b5de437b7d39d72b"),
    "derived_m6/o1-l3-bisect": (0, "21dda47594ede78573911e92cf750752fc607e7dc5261ca9443baebbb10a4d52"),
    "derived_m6/o1-l4": (0, "b93c5dbb7be68c1761ddb6d9b70689ae9c0954886ca1a9c41d913021d12301a5"),
    "derived_m6/o1-l4-bisect": (0, "578354b9a5f8be604a4e317749478c731ba82dc16043458520453f2142e540e8"),
    "derived_m6/o2-l3": (0, "795dba03a3a01e8c23864c8d4fbae3f7c2ad28eb10f3364017b6ffef269b3596"),
    "derived_m6/o2-l3-bisect": (2, EMPTY),
    "derived_m6/o2-l4": (0, "225aa1ec2d37e56216a8ef9039434b07a9ebfdacb8bc17fa68ab6ebc4cf71d39"),
    "derived_m6/o2-l4-bisect": (2, EMPTY),
    "readme_quinary/o2-l3": (0, "64f385218f6c1e70cc18b5cc6045501d36851d6d8e41208816ef73a5b3a51004"),
    "readme_quinary/o2-l3-bisect": (0, "d03523ced780b50a6881cb8aea35a03c81e18f83a2dca3c989b97c0e8e9318cf"),
    "readme_quinary/o2-l4": (0, "3772d6f70796444da0990bc947e5f8fd3a5eb790509f7d2453dc01cc8732110f"),
    "readme_quinary/o2-l4-bisect": (0, "ff543027b6cfce8546f75b1294b40ae232fa7a91e6a6091c0bb4769fcbd604b4"),
}


@pytest.mark.parametrize("name", SWEEP_FAMILIES)
def test_sweeps_match_the_recorded_bytes(tmp_path, name):
    wanted = {key: v for key, v in SWEEP_GOLDEN.items() if key.startswith(f"{name}/")}
    assert sweep_digests(tmp_path, name) == wanted
