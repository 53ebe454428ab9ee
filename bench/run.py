#!/usr/bin/env python3
"""Benchmark of mirroratoms through its public command line, run in-process.

Usage, from the repository root:

    python3 bench/run.py --workload {rate_grid,tau_series,cmax_scan} \
        --seed N --seconds S --trace {0,1}

A closed loop in one single-threaded process: a pass runs the workload's
`mirroratoms.cli.main([...])` invocations one after another (workloads.py),
and passes repeat until --seconds is spent. Each invocation runs under a
wall deadline (SIGALRM); one that misses it loses its rows and costs the
deadline. After every pass, outside its timed region, the outputs are
checked (checks.py). The first pass is a warm-up: its outputs are checked
and its rows counted, but its time is not reported.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(spans.py). Every metric is printed by name and unit; the last line of
stdout is one JSON object with `correct`, `attempted` and `failed` rows and
the metrics. The run record and the spans go to .bench_out/. Exit status is
0 when every output check passed and 1 otherwise.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # pinned before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

# Per-invocation wall deadline. The slowest invocation that completes takes
# about 1.6 s on a 2-core machine (figure 10 at 3 points); the cmax query at
# omega*z = 3e-4 never returns on the seed commit.
DEADLINE_S = 4.0
SETUP_REPEATS = 3
NUMERICAL_ERROR = 3  # the CLI's exit status for a numerical-domain error


def _import_program():
    package = SRC / "mirroratoms"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no mirroratoms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mirroratoms
    if Path(mirroratoms.__file__).resolve().parent != package:
        sys.exit(f"error: imported mirroratoms from {mirroratoms.__file__}, not {package}")
    return mirroratoms


mirroratoms = _import_program()

import numpy  # noqa: E402
import scipy  # noqa: E402
from mirroratoms import cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class DeadlineExceeded(BaseException):
    """Raised in the main thread when an invocation outlives its deadline.
    A BaseException, so that no `except Exception` in the program swallows
    it; args[0] holds the layers with an open span when it fired."""


@contextlib.contextmanager
def deadline(seconds: float, tracer):
    def on_alarm(signum, frame):
        raise DeadlineExceeded(tracer.open_layers() if tracer else set())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    # keeps firing every 0.5 s, in case the program swallows the first one
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.5)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def invoke(inv, tracer) -> int | None:
    """Run one command line; its exit status, or None if the deadline hit."""
    sink = io.StringIO()  # paths the CLI prints, warnings, error messages
    argv = list(inv.argv)
    try:
        with deadline(DEADLINE_S, tracer), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if tracer is None:
                return cli.main(argv)
            return tracer.call(f"cli.{inv.label}", cli.main, argv)
    except DeadlineExceeded as exc:
        if tracer is not None:
            for layer in exc.args[0]:
                tracer.counts[f"{layer}.deadline_hits"] += 1
        return None
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code


@dataclass
class Pass:
    wall_s: float
    traced: bool
    attempted: int
    failed: int
    emitted: int
    deadline_hits: int
    layer: dict | None


@dataclass
class Verifier:
    """Checks each pass's outputs; keeps the first completed copy of every
    invocation's outputs under `keep` to compare later passes against."""

    invocations: list
    out: Path
    keep: Path
    reference: checks.Reference
    checked: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def verify(self, codes) -> tuple:
        """Return (failed rows, emitted rows) of a pass."""
        failed = emitted = 0
        for i, (inv, code) in enumerate(zip(self.invocations, codes)):
            if code != 0:
                # a deadline or a numerical error (exit 3) fails the rows;
                # any other status means a valid command line was refused
                failed += inv.rows
                if code not in (None, NUMERICAL_ERROR):
                    self.problems.append(f"{inv.label}: exit status {code}")
                continue
            out, keep = self.out / inv.out, self.keep / inv.out
            if i in self.checked:
                if not checks.same_bytes(out, keep):
                    self.problems.append(f"{inv.out}: outputs differ from the first pass")
            else:
                self.checked[i] = checks.check_outputs(inv, out, self.reference)
                self.problems.extend(self.checked[i].problems)
                keep.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(str(out), str(keep))
            failed += self.checked[i].error_rows
            emitted += inv.rows
        return failed, emitted

    def probe_errors(self) -> list:
        return [e for c in self.checked.values() for e in c.probe_errors]


def run_pass(verifier: Verifier, tracer) -> Pass:
    shutil.rmtree(verifier.out, ignore_errors=True)
    for inv in verifier.invocations:
        (verifier.out / inv.out).mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    codes = []
    t0 = perf_counter()
    try:
        for inv in verifier.invocations:
            codes.append(invoke(inv, tracer))
    finally:
        wall = perf_counter() - t0
        layer = tracer.uninstall() if tracer is not None else None
    failed, emitted = verifier.verify(codes)
    attempted = sum(inv.rows for inv in verifier.invocations)
    return Pass(wall, tracer is not None, attempted, failed, emitted,
                sum(code is None for code in codes), layer)


def measure_setup(args) -> list:
    """Wall time of a fresh interpreter that imports mirroratoms and writes
    the seeded inputs, SETUP_REPEATS times."""
    times = []
    for i in range(SETUP_REPEATS):
        target = WORK / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(target)]
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        shutil.rmtree(target, ignore_errors=True)
    return times


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unavailable"


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "deadline_s": DEADLINE_S,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mirroratoms": mirroratoms.__version__,
        "git_commit": _git_commit(), "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, metavar="DIR",
                    help="only write the seeded inputs under DIR (times set-up)")
    args = ap.parse_args(argv)

    if args.setup_only is not None:
        workloads.build(args.workload, args.seed, args.setup_only / "out",
                        args.setup_only / "inputs")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        invocations = workloads.build(args.workload, args.seed, work / "out", work / "inputs")
        verifier = Verifier(invocations, work / "out", work / "first",
                            checks.Reference(BENCH / "cmax_reference.json"))
        setup = measure_setup(args) if args.trace == 0 else []
        tracer = spans.Tracer() if args.trace else None

        passes = []
        start = perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(verifier, tracer if traced else None))
            spent = perf_counter() - start
            enough = len(passes) >= (3 if tracer else 2)
            if enough and spent * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # pass 0 warms caches and lazy imports: checked and counted, not timed
    plain = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]
    probe_errors = verifier.probe_errors()
    values = {
        "wall_s": _median([p.wall_s for p in plain]),
        "rows_per_s": _median([p.emitted / p.wall_s for p in plain]),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        for m in spec["per_layer"]:
            values[m["name"]] = _median([p.layer.get(m["name"], 0.0) for p in traced])
        values["tracing_overhead_s"] = (_median([p.wall_s for p in traced])
                                        - values["wall_s"])
        values["concurrence.cmax_abs_err"] = max(probe_errors, default=0.0)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not verifier.problems
    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in shown}

    record = run_record(args)
    record.update({
        "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
        "pass_traced": [p.traced for p in passes], "setup_runs_s": setup,
        "attempted_rows": attempted, "failed_rows": failed,
        "deadline_hits": sum(p.deadline_hits for p in passes),
        "probe_rows": len(probe_errors), "reference_rows": len(verifier.reference),
        "cmax_abs_err": max(probe_errors, default=None),
        "problems": verifier.problems, "metrics": metrics,
    })
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(WORK / f"{args.workload}-seed{args.seed}-spans.csv.gz")

    walls = [p.wall_s for p in plain]
    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes "
          f"({len(traced)} traced); untraced timed passes: wall_s min/median/max "
          f"{min(walls):.4f}/{values['wall_s']:.4f}/{max(walls):.4f} s, "
          f"rows_per_s {values['rows_per_s']:.6g} 1/s")
    print(f"# failed_rows {failed}/{attempted} = {failed / attempted:.6g} "
          f"(deadline hits {record['deadline_hits']}); cmax_abs_err "
          f"{record['cmax_abs_err']} over {len(probe_errors)} probe rows")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in verifier.problems:
        print(f"# CHECK FAILED: {problem}")
    print(f"# run record: {(WORK / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
