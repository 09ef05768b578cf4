"""Quick self-check of the benchmark.

    python3 perfbench/check.py

Confirms that the generator is deterministic, that every per-layer count
repeats exactly across two traced runs, that the smallest configuration
(``--seconds 1``) prints every metric named in BENCHMARK.json with no failed
op, and the layer facts the workloads were chosen for.  It also runs the ops
that the runs hold out as known defects (``workloads.known_defect``) and
fails while the program still gets any of them wrong.  Runs every check,
prints PASS or FAIL for each, and exits 1 when any failed, 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 1
FAILED: list[str] = []


def bench(workload: str, trace: int, seed: int = SEED) -> dict:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def require(ok: bool, message: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {message}")
    if not ok:
        FAILED.append(message)


def known_defects(workloads) -> None:
    """Run the held-out ops through the CLI and check them like timed ones."""
    ops, _ = workloads.generate("design-grid", SEED)
    held = [op for op in ops if workloads.known_defect(op)]
    workdir = run.WORK / f"{os.getpid()}-check"
    run.write_inputs(workdir, {})
    origin = os.getcwd()
    os.chdir(workdir)
    try:
        client = run.Client()
        for index, op in enumerate(held):
            client.run_op(index, op, workloads)
    finally:
        os.chdir(origin)
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in client.failures:
        print(f"  known defect: {' '.join(failure['argv'])}: {failure['error']}")
    require(not client.failures,
            f"design-grid: the {len(held)} held-out ops are right ({len(client.failures)} wrong)")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    run.import_package()
    import workloads

    for name in run.WORKLOADS:
        first = json.dumps(workloads.generate(name, SEED), sort_keys=True)
        again = json.dumps(workloads.generate(name, SEED), sort_keys=True)
        other = json.dumps(workloads.generate(name, SEED + 1), sort_keys=True)
        require(first == again and first != other, f"{name}: same seed, same argv and files")
    known_defects(workloads)

    for name in run.WORKLOADS:
        plain = bench(name, 0)
        require(plain["correct"] and plain["failed"] == 0, f"{name}: every op correct")
        require(set(plain["metrics"]) == e2e_names, f"{name}: prints every end-to-end metric")
        traced = [bench(name, 1) for _ in range(2)]
        require(set(traced[0]["metrics"]) == layer_names, f"{name}: prints every per-layer metric")
        counts = [
            {k: m["value"] for k, m in t["metrics"].items() if m["unit"] in ("count", "bits")}
            for t in traced
        ]
        require(counts[0] == counts[1], f"{name}: per-layer counts repeat exactly")
        c = counts[0]
        if name == "design-grid":
            require(c["construct.smoothing_coeffs.calls"] > c["construct.derive.calls"],
                    "design-grid: smoothing_coeffs is recomputed within derives")
            require(c["analyze.refine_values.calls"] == 0, "design-grid: analyze.refine_values idle")
            require(c["charax.residual_terms"] == 0, "design-grid: zero verify residuals")
        if name == "limit-eval":
            require(c["construct.assemble.calls"] == 0, "limit-eval: construct.assemble idle")
            require(c["analyze.float_fallbacks"] == 0, "limit-eval: every lattice exact")
    if FAILED:
        print(f"{len(FAILED)} check(s) failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
