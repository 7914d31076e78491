#!/usr/bin/env python3
"""spectile benchmark: one workload, timed in whole rounds.

    python3 perfbench/run.py --workload analyze-catalog --seed 1 --seconds 20 --trace 0

Run from the repository root.  spectile is imported from ./src.  The run
sets up several times (import, then input files) and reports the median
set-up time, then repeats rounds of the workload's operations until
--seconds have passed, at least one round.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics --
the end-to-end ones with --trace 0, the per-layer ones (spans recorded
around spectile's public functions) with --trace 1.  The full result, with
the environment and every round, goes to perfbench/results/.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import process_time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CliRun, Raised  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 30
SPECTILE_MODULES = ("cli", "catalog", "geometry", "oracle", "spectrum", "symmetry", "errors")


def _purge_pure_python(baseline):
    """Forget the pure-Python packages imported since the baseline, so the
    next import runs their module code again.  Packages holding a native
    extension (numpy, gmpy2) cannot be imported twice and stay."""
    new = [name for name in sys.modules if name not in baseline]
    native = {
        name.split(".")[0]
        for name in new
        if str(getattr(sys.modules[name], "__file__", None) or "").endswith((".so", ".pyd"))
    }
    for name in new:
        if name.split(".")[0] not in native:
            del sys.modules[name]


def _import_spectile():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        spectile = importlib.import_module("spectile")
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import spectile from {SRC}: {exc}")
    if SRC not in Path(spectile.__file__).resolve().parents:
        raise SystemExit(f"spectile was imported from {spectile.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"spectile.{name}") for name in SPECTILE_MODULES}
    return SimpleNamespace(package=spectile, rational=spectile.rational, **mods)


def setup(workload, seed, workdir, baseline, first):
    """Import spectile and write the workload's inputs; returns the plan."""
    if not first:
        _purge_pure_python(baseline)
    sp = _import_spectile()
    workdir.mkdir(parents=True, exist_ok=True)
    return sp, WORKLOADS[workload](sp, seed, workdir)


def _fingerprint(value) -> str:
    if isinstance(value, CliRun):
        text = value.text
        if text is not None and text.startswith("{"):
            data = json.loads(text)
            data.pop("timings", None)
            text = json.dumps(data, sort_keys=True)
        value = (value.rc, value.stdout, value.stderr, text)
    return hashlib.sha256(repr(value).encode()).hexdigest()


class Runner:
    """Times each operation and judges its output.

    The first round runs every check; later rounds compare a fingerprint
    of each output with the first round's and inherit its verdict, so each
    round counts the same failures.  An operation that raised or exited
    non-zero counts as failed; one whose output is wrong counts as failed
    and makes the run incorrect.
    """

    def __init__(self, tracer, tracing):
        self.tracer = tracer
        self.tracing = tracing
        self.first = []  # per operation: (fingerprint, problems, errored)
        self.round_no = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def start_round(self):
        self.round_no += 1
        self.index = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.op_s = []
        self.tracer.reset()

    def op(self, call, check, collect=None):
        self.attempted += 1
        self.tracer.enabled = self.tracing
        c0, t0 = process_time(), perf_counter()
        try:
            raw = call()
        except Exception as exc:  # an operation that raises is a failed operation, not a crash
            raw = Raised(exc)
        t1, c1 = perf_counter(), process_time()
        self.tracer.enabled = False
        self.wall += t1 - t0
        self.cpu += c1 - c0
        self.op_s.append(t1 - t0)

        value = raw if collect is None or isinstance(raw, Raised) else collect(raw)
        fp = _fingerprint(value)
        if self.round_no == 1:
            try:
                problems = check(value)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            errored = isinstance(value, Raised) or (isinstance(value, CliRun) and value.rc != 0)
            self.first.append((fp, problems, errored))
        else:
            fp0, problems, errored = self.first[self.index]
            if fp != fp0:
                problems, errored = ["output differs from the first round"], False
        self.index += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and errored
            if len(self.problems) < 20:
                self.problems.append(f"round {self.round_no} op {self.index}: {'; '.join(problems)[:500]}")
        return value


def _git_commit():
    """HEAD from the .git directory, read as files; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(sp, seed):
    import mpmath

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "backend": sp.package.BACKEND,
        "precision_bits": sp.package.precision_bits(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _git_commit(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    workdir = HERE / "_work" / args.workload
    baseline = set(sys.modules)
    setups = []
    for i in range(SETUPS):
        t0 = T_START if i == 0 else perf_counter()
        sp, plan = setup(args.workload, args.seed, workdir, baseline, first=(i == 0))
        setups.append(perf_counter() - t0)
        # the previous set-up's modules hang in reference cycles; free them
        # untimed, so that peak RSS is the workload's, not one copy per set-up
        gc.collect()

    tracer = Tracer()
    if args.trace:
        tracer.install()
    runner = Runner(tracer, tracing=bool(args.trace))
    rounds = []
    t_run = perf_counter()
    while True:
        runner.start_round()
        plan.round(runner)
        row = {"wall_s": runner.wall, "cpu_s": runner.cpu, "op_s": runner.op_s}
        if args.trace:
            row["layers"] = tracer.layer_metrics([m["name"] for m in declared])
        rounds.append(row)
        if perf_counter() - t_run >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        values = {n: statistics.median(r["layers"][n] for r in rounds) for n in rounds[0]["layers"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(sp, args.seed),
        "setup_s": setups,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "problems": runner.problems,
        "result": result,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.problems:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
