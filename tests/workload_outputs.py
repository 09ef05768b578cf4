"""sha256 digests of everything the benchmark's workloads make the CLI say.

For each workload of ``perfbench/workloads.py`` and each seed in ``DIGESTS``,
every op of ``workloads.generate`` runs in process through
``workloads.execute``, in a temporary directory that holds the workload's
input files.  One digest per workload and seed covers, for every CLI call,
its argv, exit code, standard output and standard error, and for every op
the outputs that ``execute`` returns, or the ``OpFailed`` that it raises.
So any change to an answer, a message or an exit code of those ops shows.
The ops the benchmark holds out run too.  ``perfbench/`` is only read::

    python tests/workload_outputs.py           # check DIGESTS; exit 1 on a mismatch
    python tests/workload_outputs.py --print   # print the digests

Run it in an interpreter of its own: it puts ``perfbench/`` first on
``sys.path``, and ``perfbench/oracle.py`` would shadow ``tests/oracle.py``.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dualsubdiv import cli  # noqa: E402

# (workload, seed) -> sha256 of the outputs of all its ops
DIGESTS = {
    ("design-grid", 1): "1e96a356c490b0c15b6814b3d07c80c40ce736b09124a9b1dc26115e8e544f2d",
    ("design-grid", 2): "023cafb95341b2370b40b05dab34df62a8ecab589efae260b18822597324d967",
    ("design-grid", 3): "be9e5867a33c950699089414d5bd007e3d10e92fca95fb7d228dd589128ca9fa",
    ("limit-eval", 1): "c603105e18419b24646e6cb964edd15132f0f1161d7a2bbc17be6a5b556746dc",
    ("limit-eval", 2): "71a5439e7dff02692ddceba1c67fd953acbacb932f31fff84066025c7440ac7f",
    ("limit-eval", 3): "d5f1592e0a846ccb39134dc1aeea9119f8e6510113b5637b2a9b5316368afd43",
    ("family-scan", 1): "ba0695ec05b1a2dbe75e801fcb1d4438712f26624402405b396a1ec7841b2e51",
    ("family-scan", 2): "8529fa894e1b0624708aa61f02aeee81ac69fc78628a63dba619b00105e01e95",
    ("family-scan", 3): "eedc06def8a612f31dd84bd4ae20b7bf94ddb07d13a54f0e19e7883eb76f4554",
}


def digest(workload: str, seed: int) -> str:
    """The sha256 of the calls and outputs of every op of one workload and seed."""
    ops, files = workloads.generate(workload, seed)
    sha = hashlib.sha256()

    def call(argv) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        sha.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        return code

    origin = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for rel, text in files.items():
            path = Path(work, rel)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        Path(work, "out").mkdir()
        os.chdir(work)
        try:
            for op in ops:
                try:
                    outputs = workloads.execute(op, call)
                except workloads.OpFailed as exc:
                    outputs = f"OpFailed: {exc}"
                sha.update(repr(outputs).encode())
        finally:
            os.chdir(origin)
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    digests = {key: digest(*key) for key in DIGESTS}
    if argv == ["--print"]:
        for (workload, seed), value in digests.items():
            print(f'    ("{workload}", {seed}): "{value}",')
        return 0
    wrong = [key for key, value in digests.items() if value != DIGESTS[key]]
    for workload, seed in wrong:
        print(f"{workload} seed {seed}: outputs changed", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
