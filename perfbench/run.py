"""The dualsubdiv benchmark runner.

    python3 perfbench/run.py --workload design-grid --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One client in one process sends one op at a time to
``dualsubdiv.cli.main`` (a closed loop with no extra threads) and checks every
output against the references in ``workloads.py``/``oracle.py``.  The op list
of a workload is one cycle; the run repeats whole cycles until ``--seconds``
have passed and at least MIN_OPS ops were timed.

After each timed op the run also times ``reference_kernel``.  Op latencies
are reported at the host speed where that kernel takes REF_SECONDS: each one
is scaled by REF_SECONDS over the median of the kernel times just before,
just after and one after that op (see ``host_speed``).  That divides the
shared host's speed drift out of the end-to-end times.  The set-up time is
scaled the same way by bare interpreter starts.  The uncorrected wall-clock figures are printed as well
and kept in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced cycle with a traced one and prints the per-layer metrics, per traced
cycle, plus the tracing overhead.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a record with the
environment, the inputs and every failing op goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
RESULTS = BENCH_DIR / "results"

WORKLOADS = ("design-grid", "limit-eval", "family-scan")
MIN_OPS = 100
SETUP_REPEATS = 11

# Median time of reference_kernel on the 2-CPU Xeon machine where the
# benchmark was defined.  Timed op latencies are reported at this host speed.
REF_SECONDS = 0.004
# Median wall time of a bare interpreter start (``--bare``) on that machine.
# The set-up time is reported at this host speed.
REF_STARTUP_SECONDS = 0.065


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: only generate and write the workload's files, for setup_s
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    # internal: start, parse the arguments and exit, the reference for setup_s
    parser.add_argument("--bare", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import dualsubdiv from this checkout's src/, never from elsewhere."""
    if not (SRC / "dualsubdiv" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'dualsubdiv'}")
    sys.path.insert(0, str(SRC))
    import dualsubdiv

    if Path(dualsubdiv.__file__).resolve().parent != SRC / "dualsubdiv":
        raise SystemExit(f"error: dualsubdiv imported from {dualsubdiv.__file__}")


def write_inputs(directory: Path, files: dict) -> None:
    for rel, text in files.items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (directory / "out").mkdir(parents=True, exist_ok=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and generate
    and write the workload's inputs, and of bare interpreter starts, taken
    in turn.

    A bare start runs this file with ``--bare``: the same interpreter start-up
    and standard-library imports, without the package.  The host's speed for
    starting processes drifts, and the two drift together."""
    times, bare = [], []
    this = str(Path(__file__).resolve())
    common = ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    for i in range(SETUP_REPEATS):
        target = WORK / f"{os.getpid()}-setup{i}"
        for cmd, out in (([sys.executable, this, *common, "--setup-into", str(target)], times),
                         ([sys.executable, this, *common, "--bare"], bare)):
            start = time.perf_counter()
            # no timeout: with one, Popen.wait polls and rounds the time up by
            # as much as 50 ms
            subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
            out.append(time.perf_counter() - start)
        shutil.rmtree(target, ignore_errors=True)
    return times, bare


class Client:
    """Sends ops to the CLI in process and times each CLI call."""

    def __init__(self, tracer=None):
        import dualsubdiv.cli as cli

        self.cli = cli
        self.tracer = tracer
        self.trace_on = False
        self.elapsed = 0.0
        self.verified: set = set()
        self.failures: list[dict] = []
        self.attempted = 0
        # what the last CLI call printed, quoted when an op fails
        self.last_output = ""

    def call(self, argv) -> int:
        sink = io.StringIO()
        if self.trace_on:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    return self.cli.main(list(argv))
                except SystemExit as exc:
                    return exc.code
        finally:
            self.elapsed += time.perf_counter() - start
            if self.trace_on:
                self.tracer.active = False
            self.last_output = sink.getvalue()

    def run_op(self, index: int, op: dict, workloads) -> float:
        """Run and check one op; return the time spent in the CLI."""
        self.attempted += 1
        self.elapsed = 0.0
        if self.tracer is not None:
            self.tracer.op = index
        try:
            outputs = workloads.execute(op, self.call)
            key = (index, hashlib.sha256(repr(outputs).encode()).hexdigest())
            if key not in self.verified:
                workloads.check(op, outputs)
                self.verified.add(key)
        except workloads.OpFailed as exc:
            said = self.last_output.strip().split("\n")[-1][:200]
            self.failures.append({"op": index, "argv": op["argv"], "error": f"{exc} ({said})"})
        except workloads.OracleMismatch as exc:
            self.failures.append({"op": index, "argv": op["argv"], "error": str(exc)})
        except Exception as exc:  # a crash is a failed op, reported with its input
            self.failures.append({"op": index, "argv": op["argv"], "error": f"{type(exc).__name__}: {exc}"})
        return self.elapsed


def reference_kernel():
    """A fixed slice of exact rational and dict work, independent of the
    package.  Shared hosts drift in speed by 15-35% over tens of seconds to
    minutes.  Timing this kernel after every op tracks that drift, so the
    drift can be divided out of the op latencies."""
    xs = [Fraction(i + 1, 3 * i + 7) for i in range(40)]
    acc = Fraction(0)
    for x in xs:
        for y in xs[:16]:
            acc += x * y
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return acc, counts


def host_speed(kernel: list[float], i: int) -> float:
    """The host's speed around timed op i, relative to the reference machine:
    REF_SECONDS over the median of the kernel times taken after ops i-1, i
    and i+1.

    The host switches between a slow and a fast state within seconds, often
    inside one cycle, so the speed is taken next to each op.  The median of
    three drops a kernel time that one interruption inflated.  On the same
    6-10 runs of each workload, the run-to-run spread (IQR / median) of the
    timing metrics was 0.02-0.07 with this, and up to 0.09 with one factor
    per cycle.
    """
    return REF_SECONDS / statistics.median(kernel[max(0, i - 1): i + 2])


def run_cycle(client, ops, workloads, reference: list | None = None) -> list[float]:
    """Latencies of one pass over the ops; with ``reference``, also append
    the reference kernel's time after each op to it."""
    latencies = []
    for i, op in enumerate(ops):
        latencies.append(client.run_op(i, op, workloads))
        if reference is not None:
            start = time.perf_counter()
            reference_kernel()
            reference.append(time.perf_counter() - start)
    return latencies


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD when this checkout is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(workload, seed, ops) -> dict:
    mix: dict[str, int] = {}
    for op in ops:
        mix[op["kind"]] = mix.get(op["kind"], 0) + 1
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "ops_per_cycle": len(ops),
        "op_mix": mix,
        "inputs": [" ".join(op["argv"]) for op in ops],
    }


TIMED = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    return {
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, cycles: int, traced_rate: float, plain_rate: float) -> dict:
    from tracing import FACT_NAMES

    def per_cycle(total):
        # whole numbers when every traced cycle did the same work
        return total // cycles if total % cycles == 0 else total / cycles

    out = {}
    for name, agg in tracer.summary().items():
        out[f"{name}.calls"] = metric(per_cycle(agg["calls"]), "count")
        out[f"{name}.self_s"] = metric(agg["self_s"] / cycles, "s")
    for fact in FACT_NAMES:
        total = tracer.facts.get(fact, 0)
        if fact == "analyze.lattice_max_bits":
            out[fact] = metric(total, "bits")
        else:
            out[fact] = metric(per_cycle(total), "count")
    out["trace.overhead_ratio"] = metric(traced_rate / plain_rate, "ratio")
    return out


def run_workload(args) -> tuple[dict, list]:
    import workloads

    ops, files = workloads.generate(args.workload, args.seed)
    # ops the program is known to get wrong are listed, not run
    held_out, timed = [], []
    for op in ops:
        why = workloads.known_defect(op)
        if why:
            held_out.append({"argv": op["argv"], "known_defect": why})
        else:
            timed.append(op)
    ops = timed
    setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    workdir = WORK / str(os.getpid())
    write_inputs(workdir, files)
    origin = os.getcwd()
    os.chdir(workdir)
    try:
        record, spans = measure(args, ops, setup, workloads)
        record["held_out"] = held_out
        return record, spans
    finally:
        os.chdir(origin)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def measure(args, ops, setup, workloads) -> tuple[dict, list]:
    """The run's record, and the spans of its traced cycles."""
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    client = Client(tracer)
    run_cycle(client, ops, workloads)  # warm-up: first imports, reference checks
    plain: list[float] = []
    traced: list[float] = []
    # reference_kernel time after each plain op
    kernel: list[float] = []
    start = time.perf_counter()
    cycles = 0
    while True:
        if tracer is None:
            reference: list[float] = []
            plain.extend(run_cycle(client, ops, workloads, reference))
            kernel.extend(reference)
        else:
            plain.extend(run_cycle(client, ops, workloads))
            tracer.install()
            client.trace_on = True
            try:
                traced.extend(run_cycle(client, ops, workloads))
            finally:
                client.trace_on = False
                tracer.uninstall()
        cycles += 1
        enough = tracer is not None or len(plain) >= MIN_OPS
        if time.perf_counter() - start >= args.seconds and enough:
            break
    record = {
        "environment": environment(args.workload, args.seed, ops),
        "cycles": cycles,
        "timed_ops": len(plain),
        "attempted": client.attempted,
        "failed": len(client.failures),
        "failures": client.failures,
    }
    if tracer is None:
        at_ref = [lat * host_speed(kernel, i) for i, lat in enumerate(plain)]
        times, bare = setup
        setup_s = statistics.median(times) / statistics.median(bare) * REF_STARTUP_SECONDS
        record["metrics"] = end_to_end(at_ref, setup_s)
        record["latencies_s"] = plain
        record["kernel_s"] = kernel
        record["wall_clock"] = {
            name: m for name, m in end_to_end(plain, statistics.median(times)).items() if name in TIMED
        }
        record["setup_runs_s"] = times
        record["bare_starts_s"] = bare
        return record, []
    record["metrics"] = per_layer(
        tracer, cycles, len(traced) / sum(traced), len(plain) / sum(plain)
    )
    return record, tracer.spans


def save(record: dict, spans: list, args) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        with open(path.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return path


def summarize(record: dict, args, path: Path) -> None:
    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {record['timed_ops']} timed ops "
          f"({record['cycles']} cycles x {env['ops_per_cycle']} ops), "
          f"{record['failed']} failed of {record['attempted']} attempted")
    if not args.trace:
        rate = record["failed"] / record["attempted"]
        print(f"  error_rate {rate:.4g} ({record['failed']}/{record['attempted']})")
    for name, m in record["metrics"].items():
        samples = f" (n={record['timed_ops']})" if name.startswith("latency") else ""
        print(f"  {name} {m['value']:.6g} {m['unit']}{samples}")
    if "wall_clock" in record:
        raw = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in record["wall_clock"].items())
        speed = REF_SECONDS / statistics.median(record["kernel_s"])
        print(f"  uncorrected wall clock: {raw}; median host speed {speed:.3f} of reference")
    # each failing input once, with the number of cycles it failed in
    failed: dict[tuple, int] = {}
    for failure in record["failures"]:
        key = (failure["op"], " ".join(failure["argv"]), failure["error"])
        failed[key] = failed.get(key, 0) + 1
    for (index, argv, error), times in failed.items():
        print(f"  FAILED op {index} ({times}x): {argv}: {error}")
    for held in record["held_out"]:
        print(f"  HELD OUT, not run: {' '.join(held['argv'])}: known defect: {held['known_defect']}")
    print(f"  environment: commit {env['commit']}, source {env['source_sha256'][:12]}, "
          f"python {env['python']}, nproc {env['nproc']}, cpu {env['cpu_model']}, op mix {env['op_mix']}")
    print(f"  record: {path.relative_to(ROOT)}")


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, stdin=subprocess.DEVNULL)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("DUALSUBDIV_THREADS", None)
    if args.bare:
        return 0
    if args.workload == "all":
        return run_all(args)
    import_package()
    if args.setup_into:
        import workloads

        write_inputs(Path(args.setup_into), workloads.generate(args.workload, args.seed)[1])
        return 0
    record, spans = run_workload(args)
    path = save(record, spans, args)
    summarize(record, args, path)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
