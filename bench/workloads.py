"""The four benchmark workloads: seeded inputs, one solve, and its closed-form check.

Every input of a run comes from the workload seed alone. A workload object
is built once per set-up from the imported package, then `solve(i)` runs
solve i (the timed part) and `check(i, raw)` compares its result with a
closed-form answer (untimed). `inputs` is the number of distinct inputs
per pass. See README.md for why each workload exists.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Outcome:
    """What one finished solve produced, as read back by the benchmark."""

    ok: bool
    iters: int  # accepted iterations; accepted RK4 steps for restore-cli
    gradient: int = 0
    eigen: int = 0
    rejected: int = 0  # backtracking trials, or rejected RK4 steps
    stages: int = 0
    output_bytes: int = 0
    summary: str = ""


def _seeds(seed, tag, count):
    """`count` independent 31-bit seeds drawn from the workload seed."""
    state = np.random.SeedSequence([int(seed), tag]).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


def _stiefel_optimum(problem, n, p):
    """min <C, X> over X^T X = I is -||C||_* (nuclear norm of the cost matrix)."""
    c = np.asarray(problem.grad_f(np.zeros(n * p)), dtype=float).reshape(n, p)
    return -float(np.linalg.svd(c, compute_uv=False).sum())


def _trace_outcome(ok, records, **extra):
    """Outcome from a trace's records, as dicts in the JSON layout the CLI writes."""
    kinds = [r["kind"] for r in records]
    grad = kinds.count("gradient")
    eig = kinds.count("eigen")
    rejected = sum(r["backtracks"] for r in records)
    return Outcome(ok=ok, iters=grad + eig, gradient=grad, eigen=eig, rejected=rejected, **extra)


class _Workload:
    def checked(self, i, raw):
        """Outcome of solve i; an exception from the solve or from the check fails it."""
        if not isinstance(raw, Exception):
            try:
                return self.check(i, raw)
            except Exception as exc:  # noqa: BLE001 -- unreadable output fails the solve
                raw = exc
        return Outcome(ok=False, iters=0, summary=repr(raw))


class _Library(_Workload):
    """One library call of gradient_eigenstep per solve."""

    def __init__(self, fp, problems, starts, cfg, optima):
        self.fp = fp
        self.problems = self.plain = problems  # the checks use `plain`, never traced
        self.starts = starts
        self.cfg = cfg
        self.optima = optima

    def wrap_problems(self, wrap):
        self.problems = [wrap(p) for p in self.problems]

    def solve(self, i):
        return self.fp.gradient_eigenstep(self.problems[i], self.starts[i], self.cfg)

    def _value_ok(self, i, trace):
        gap = abs(float(self.plain[i].f(trace.final_x)) - self.optima[i])
        return gap <= 10.0 * self.cfg.eps1


class FoStiefel(_Library):
    """First-order solve of a seeded linear cost on the Stiefel manifold St(30, 3)."""

    n, p = 30, 3
    inputs = 40

    def __init__(self, fp, cli, seed, count, out_dir):
        seeds = _seeds(seed, 1, 2 * count)
        problems = [
            fp.builtin_problem("stiefel", n=self.n, p=self.p, seed=s) for s in seeds[:count]
        ]
        starts = [pr.init_point(s) for pr, s in zip(problems, seeds[count:])]
        optima = [_stiefel_optimum(pr, self.n, self.p) for pr in problems]
        super().__init__(fp, problems, starts, fp.SolverConfig(eps1=1e-4, beta=3.0), optima)

    def check(self, i, trace):
        ok = trace.termination == "converged" and self._value_ok(i, trace)
        return _trace_outcome(ok, [r.as_dict() for r in trace.records])


class SoSaddle(_Library):
    """Second-order solve of the Rayleigh quotient of diag(1..120) from a strict saddle e_k."""

    n = 120
    inputs = 80

    def __init__(self, fp, cli, seed, count, out_dir):
        # One saddle index from each of `count` equal strata of 1..n-1 (e_0 is the minimizer).
        # Iteration counts are heavy-tailed in k (k=1 takes ~400, most k 10-30), so
        # unstratified draws would make the per-run figures depend on the seed.
        jitter = np.random.default_rng(_seeds(seed, 2, 1)).random(count)
        ks = 1 + ((np.arange(count) + jitter) * (self.n - 1) / count).astype(int)
        problem = fp.make_rayleigh_sphere(np.diag(np.arange(1.0, self.n + 1.0)))
        starts = [np.eye(self.n)[k] for k in ks]
        cfg = fp.SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
        super().__init__(fp, [problem] * count, starts, cfg, [0.5] * count)

    def check(self, i, trace):
        cert = trace.final_certificate
        ok = (
            trace.termination == "converged"
            and cert is not None
            and cert.socp_pass
            and self._value_ok(i, trace)
        )
        return _trace_outcome(ok, [r.as_dict() for r in trace.records])


class _Cli(_Workload):
    """One in-process `cli.main(argv)` per solve, output written under out_dir."""

    def __init__(self, cli, argvs, out_paths):
        self.cli = cli
        self.argvs = argvs
        self.out_paths = out_paths

    def wrap_problems(self, wrap):
        """Nothing to do: the CLI builds its own problems through cli.builtin_problem."""

    def solve(self, i):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(self.argvs[i])
        return code, err.getvalue().strip()

    def check(self, i, raw):
        code, summary = raw
        if code != 0:
            return Outcome(ok=False, iters=0, summary=summary)
        with open(self.out_paths[i]) as fh:
            text = fh.read()
        return self._check_output(i, json.loads(text), len(text.encode()), summary)


def _cli_argv(mode, problem, n, p, seed, out_path, flags):
    return [mode, "--problem", problem, "--n", str(n), "--p", str(p), "--seed", str(seed),
            *flags, "--output-path", out_path]


class PlateauCli(_Cli):
    """`fletcher-penalty plateau` on St(8, 2) from beta0 = 1e-3, second-order targets."""

    n, p, eps1 = 8, 2, 1e-4
    inputs = 80
    flags = ["--eps1", "1e-4", "--eps2", "1e-3", "--beta0", "1e-3", "--lp0", "50"]

    def __init__(self, fp, cli, seed, count, out_dir):
        self.seeds = _seeds(seed, 3, count)
        self.problems = [fp.builtin_problem("stiefel", n=self.n, p=self.p, seed=s) for s in self.seeds]
        self.optima = [_stiefel_optimum(pr, self.n, self.p) for pr in self.problems]
        paths = [os.path.join(out_dir, "plateau-%d.json" % i) for i in range(count)]
        argvs = [_cli_argv("plateau", "stiefel", self.n, self.p, s, path, self.flags)
                 for s, path in zip(self.seeds, paths)]
        super().__init__(cli, argvs, paths)

    def _check_output(self, i, out, size, summary):
        x = np.asarray(out["final_x"], dtype=float)
        gap = abs(float(self.problems[i].f(x)) - self.optima[i])
        ok = out["termination"] == "converged" and gap <= 10.0 * self.eps1
        return _trace_outcome(ok, out["records"], stages=len(out["plateaus"]),
                              output_bytes=size, summary=summary)


class RestoreCli(_Cli):
    """`fletcher-penalty restore`: RK4 feasibility flow on St(8, 3) from a perturbed start."""

    n, p = 8, 3
    inputs = 40
    flags = ["--perturb", "0.4", "--step", "1e-2", "--t-end", "3"]

    def __init__(self, fp, cli, seed, count, out_dir):
        seeds = _seeds(seed, 4, count)
        region = fp.builtin_problem("stiefel", n=self.n, p=self.p).region
        self.rate = 2.0 * region.sigma_lb**2
        paths = [os.path.join(out_dir, "restore-%d.json" % i) for i in range(count)]
        argvs = [_cli_argv("restore", "stiefel", self.n, self.p, s, path, self.flags)
                 for s, path in zip(seeds, paths)]
        super().__init__(cli, argvs, paths)

    def _check_output(self, i, out, size, summary):
        log = out["decay_log"]
        phi0 = log[0][1]
        # Gronwall: d(phi)/dt = -||Dh^T h||^2 <= -2 sigma_lb^2 phi along the flow.
        monotone = all(b[1] <= a[1] for a, b in zip(log, log[1:]))
        enveloped = all(phi <= phi0 * math.exp(-self.rate * t) * (1 + 1e-9) for t, phi in log)
        accepted = len(log) - 1
        return Outcome(ok=monotone and enveloped, iters=accepted, output_bytes=size,
                       summary=summary)


WORKLOADS = {
    "fo-stiefel": FoStiefel,
    "so-saddle": SoSaddle,
    "plateau-cli": PlateauCli,
    "restore-cli": RestoreCli,
}
