"""Benchmark: time to a certified solve of the Fletcher-penalty library.

    python3 bench/run.py --workload fo-stiefel --seed 1 --seconds 25 --trace 0

Runs one workload (see README.md) as a closed loop: one client in this
process, each solve starting when the previous one has finished. The
workload's inputs (40 or 80) come from --seed alone; the loop cycles over them
until --seconds have passed and every input has been solved at least once.
Each solve is checked against a closed-form answer.

--trace 0 prints the end-to-end metrics. --trace 1 first repeats the
untraced loop, then solves each input once more with spans recorded around
the calls into every layer, and prints the per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The line before it describes the run (seed, machine, CLI summary).
"""

import argparse
import contextlib
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7


def hygiene():
    """Single-threaded BLAS (before numpy loads) and no seed override for the CLI."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FLETCHER_SEED", None)
    sys.path.insert(0, str(SRC))


def import_package():
    """A fresh import of fletcher_penalty and its CLI from this checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "fletcher_penalty"]:
        del sys.modules[name]
    pkg = importlib.import_module("fletcher_penalty")
    cli = importlib.import_module("fletcher_penalty.cli")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise SystemExit("fletcher_penalty was imported from %s, not from %s" % (pkg.__file__, SRC))
    return pkg, cli


def set_up(workload_cls, seed, count, out_dir, speed):
    """Import the package and build the workload's inputs, several times; median seconds."""
    timed = []
    for _ in range(SETUP_REPEATS):
        mark = speed.sample(every_s=0)
        t0 = perf_counter()
        pkg, cli = import_package()
        workload = workload_cls(pkg, cli, seed, count, out_dir)
        timed.append((perf_counter() - t0, mark))
    speed.sample(every_s=0)
    return pkg, workload, statistics.median(t * speed.scale(m) for t, m in timed)


@dataclass
class Loop:
    """One closed loop: solve times in nominal seconds, per input, and the outcomes."""

    times: list
    first: list  # the first outcome of each input
    attempted: int
    failed: int

    def percentiles(self):
        """Median and 75th percentile (nearest rank) of the per-input median times.

        With 40 or 80 inputs, 10 or 20 of them lie beyond the 75th percentile.
        """
        per_input = sorted(statistics.median(t) for t in self.times)
        return statistics.median(per_input), per_input[math.ceil(0.75 * len(per_input)) - 1]


def closed_loop(workload, count, seconds, speed, tracer=None):
    """Solve inputs 0..count-1 in turn, cycling, until `seconds` passed and each ran once.

    With a tracer, stops after exactly one pass. A solve that raises or
    fails its check is a failed solve and stays in the count. The host
    reference kernel runs between solves, never inside one.
    """
    timed = []  # (input, wall seconds, host-speed mark)
    first = [None] * count
    attempted = failed = 0
    start = perf_counter()
    while attempted < count or (tracer is None and perf_counter() - start < seconds):
        i = attempted % count
        mark = speed.sample()
        if tracer is not None:
            tracer.solve_id = attempted
        t0 = perf_counter()
        try:
            raw = workload.solve(i)
        except Exception as exc:  # noqa: BLE001 -- an error is a failed solve, not a crash
            raw = exc
        timed.append((i, perf_counter() - t0, mark))
        outcome = workload.checked(i, raw)
        attempted += 1
        failed += not outcome.ok
        if first[i] is None:
            first[i] = outcome
    speed.sample(every_s=0)
    times = [[] for _ in range(count)]
    for i, wall, mark in timed:
        times[i].append(wall * speed.scale(mark))
    return Loop(times, first, attempted, failed)


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy bundles, or None if not found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_s):
    p50, tail = loop.percentiles()
    return {
        "setup_s": metric(setup_s, "s"),
        "solve_s.p50": metric(p50, "s"),
        "solve_s.p75": metric(tail, "s"),
        "solves_per_s": metric(loop.attempted / sum(map(sum, loop.times)), "1/s"),
        "certified_frac": metric((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "iters_per_solve": metric(statistics.median(o.iters for o in loop.first), "count"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, loop, overhead_s, scale):
    """Per-solve means over one traced pass of every input; ratios over the whole pass.

    Span seconds are scaled to nominal seconds like the solve times.
    """
    first, count = loop.first, len(loop.first)
    totals = {name: (n, total * scale, own * scale) for name, (n, total, own) in tracer.totals().items()}

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / count

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / count

    def self_s(*prefixes):
        return sum(row[2] for name, row in totals.items() if name.startswith(prefixes)) / count

    accepted = sum(o.iters for o in first)
    # Each RK4 trial calls jac_h four times; the accepted trials are the steps.
    restore_trials = tracer.count_under("problems.jac_h", "solver.restore_feasibility") / 4
    restore_rejected = restore_trials - accepted if restore_trials else 0.0
    rejected = sum(o.rejected for o in first) + restore_rejected
    out = {
        "linalg.svd.calls": metric(calls("linalg.svd"), "count"),
        "linalg.svd.per_iter": metric(
            calls("linalg.svd") * count / accepted if accepted else 0.0, "count"),
        "linalg.svd.self_s": metric(self_s("linalg.svd"), "s"),
        "linalg.svd.out_bytes": metric(tracer.out_bytes["linalg.svd"] / count, "B"),
        "linalg.sym_eig_min.calls": metric(calls("linalg.sym_eig_min"), "count"),
        "linalg.sym_eig_min.self_s": metric(self_s("linalg.sym_eig_min"), "s"),
        "linalg.kernel_basis.calls": metric(calls("linalg.kernel_basis"), "count"),
    }
    for key in ("f", "grad_f", "hess_f", "h", "jac_h", "hess_h"):
        out["problems.%s.calls" % key] = metric(calls("problems." + key), "count")
    out.update({
        "problems.self_s": metric(self_s("problems."), "s"),
        "problems.hess_h.out_bytes": metric(tracer.out_bytes["problems.hess_h"] / count, "B"),
        "penalty.value.calls": metric(calls("penalty.value"), "count"),
        "penalty.grad.calls": metric(calls("penalty.grad"), "count"),
        "penalty.evaluate.self_s": metric(self_s("penalty.value", "penalty.grad"), "s"),
        "penalty.hess.calls": metric(calls("penalty.hess"), "count"),
        "penalty.hess.total_s": metric(total_s("penalty.hess"), "s"),
        "penalty.beta_thresholds.calls": metric(calls("penalty.beta_thresholds"), "count"),
        "penalty.beta_thresholds.total_s": metric(total_s("penalty.beta_thresholds"), "s"),
        "penalty.in_region.calls": metric(calls("penalty.in_region"), "count"),
        "criticality.certify.calls": metric(calls("criticality.certify"), "count"),
        "criticality.certify.total_s": metric(total_s("criticality.certify"), "s"),
        "criticality.layered_hess.calls": metric(calls("criticality.layered_hess"), "count"),
        "solver.iters.gradient": metric(statistics.fmean(o.gradient for o in first), "count"),
        "solver.iters.eigen": metric(statistics.fmean(o.eigen for o in first), "count"),
        "solver.backtracks": metric(statistics.fmean(o.rejected for o in first), "count"),
        "solver.trial_accept_ratio": metric(
            accepted / (accepted + rejected) if accepted else 0.0, "ratio"),
        "solver.self_s": metric(self_s("solver."), "s"),
        "solver.plateau.stages": metric(statistics.fmean(o.stages for o in first), "count"),
        "solver.restore.rejected_steps": metric(restore_rejected / count, "count"),
        "cli.main.total_s": metric(total_s("cli.main"), "s"),
        "cli.self_s": metric(self_s("cli."), "s"),
        "cli.output_bytes": metric(statistics.fmean(o.output_bytes for o in first), "B"),
        "trace.overhead_s": metric(overhead_s, "s"),
    })
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--solves", type=int,
                        help="distinct inputs per pass (default: the workload's own; the smoke test uses 2)")
    args = parser.parse_args(argv)
    if args.seconds < 0 or (args.solves is not None and args.solves < 1):
        parser.error("--seconds must be >= 0 and --solves >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    hygiene()
    import numpy as np  # only after hygiene() pinned the BLAS threads

    from hostspeed import HostSpeed
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    OUT.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    count = args.solves or workload_cls.inputs

    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        speed = HostSpeed()
        pkg, workload, setup_s = set_up(workload_cls, args.seed, count, out_dir, speed)
        # Warm-up (lazy imports, caches): neither timed nor counted; an error shows in the loop.
        with contextlib.suppress(Exception):
            workload.solve(0)
        loop = closed_loop(workload, count, args.seconds, speed)
        attempted, failed = loop.attempted, loop.failed
        info = {"workload": args.workload, "seed": args.seed, "solves_per_pass": count,
                "host_scale": speed.median_scale(), "machine": machine(np),
                "summary": loop.first[0].summary}
        if args.trace:
            tracer = Tracer()
            tracer.install(pkg)
            workload.wrap_problems(tracer.wrap_problem)
            traced_speed = HostSpeed()
            traced = closed_loop(workload, count, 0, traced_speed, tracer)
            tracer.uninstall()
            overhead = traced.percentiles()[0] - loop.percentiles()[0]
            metrics = per_layer(tracer, traced, overhead, traced_speed.median_scale())
            attempted += traced.attempted
            failed += traced.failed
            spans = OUT / ("spans-%s-%d.csv.gz" % (args.workload, args.seed))
            tracer.write(spans)
            info["spans"] = str(spans.relative_to(BENCH.parent))
        else:
            metrics = end_to_end(loop, setup_s)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
