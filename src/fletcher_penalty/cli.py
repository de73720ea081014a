"""Command-line front end: solves, plateau runs, restoration, derivative checks, sweeps.

All output is machine-first (JSON traces, CSV tables); the human summary is
a single stderr line. Exit codes: 0 converged, 2 tolerance not reached,
3 numerical failure, 64 usage error. The FLETCHER_SEED environment variable
overrides --seed when set.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .criticality import layered_hess
from .derivative_check import check_problem, reports_to_json
from .exceptions import FletcherPenaltyError, StepSizeError
from .problems import builtin_problem, random_point_in_region
from .solver import SolverConfig, gradient_eigenstep, plateau, restore_feasibility

__all__ = ["RunSpec", "main"]

EXIT_OK = 0
EXIT_NOT_REACHED = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

_TERMINATION_EXIT = {
    "converged": EXIT_OK,
    "max_iters": EXIT_NOT_REACHED,
    "rank_deficient": EXIT_NUMERICAL,
    "beta_too_small": EXIT_NUMERICAL,
    "max_plateaus": EXIT_NOT_REACHED,
}

_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
_INT_SOLVER_KEYS = ("max_iters", "max_backtracks")

_TEXT_KEYS = ("problem_id", "diag", "matrix", "output_path", "eps_list")

_DEFAULT_OUTPUT = {
    "solve": "solve.json",
    "plateau": "plateau.json",
    "restore": "restore.json",
    "check": "check.json",
    "sweep": "sweep.csv",
}


@dataclass
class RunSpec:
    """One fully resolved command invocation."""

    problem_id: str
    problem_params: dict
    solver: dict
    mode: str
    output_path: str
    extras: dict = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 here means "tolerance not reached"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(prog="fletcher-penalty", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p):
        p.add_argument("--spec", help="JSON file holding a RunSpec; flags override its values")
        p.add_argument("--problem", help="builtin problem id (sphere, rayleigh, stiefel, product:...)")
        p.add_argument("--n", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--radius", type=float, help="region radius R")
        p.add_argument("--seed", type=int)
        p.add_argument("--diag", help="rayleigh diagonal, e.g. 1..10 or 1,4,9")
        p.add_argument("--matrix", help="rayleigh matrix CSV path (dense, comma-separated rows)")
        p.add_argument("--output-path", help="where to write the JSON/CSV result")
        for key in _SOLVER_KEYS:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=int if key in _INT_SOLVER_KEYS else float)

    p_solve = sub.add_parser("solve", help="one gradient-eigenstep run")
    add_common(p_solve)

    p_plateau = sub.add_parser("plateau", help="penalty-parameter estimating scheme")
    add_common(p_plateau)
    p_plateau.add_argument("--gamma", type=float)
    p_plateau.add_argument("--beta0", type=float)
    p_plateau.add_argument("--lp0", type=float)
    p_plateau.add_argument("--max-plateaus", type=int)

    p_restore = sub.add_parser("restore", help="integrate the feasibility-restoration flow")
    add_common(p_restore)
    p_restore.add_argument("--step", type=float)
    p_restore.add_argument("--t-end", type=float)
    p_restore.add_argument("--perturb", type=float,
                           help="perturbation scale applied to the (feasible) initial point")

    p_check = sub.add_parser("check", help="finite-difference derivative reports")
    add_common(p_check)
    p_check.add_argument("--seeds", type=int, help="number of seeds (0..k-1)")

    p_sweep = sub.add_parser("sweep", help="one solve per tolerance, CSV summary")
    add_common(p_sweep)
    p_sweep.add_argument("--eps-list", help="comma-separated eps1 values")
    p_sweep.add_argument("--second-order", action="store_true", default=None,
                         help="set eps2 = eps (default: first-order, eps2 = inf)")
    return parser


def _resolve(args):
    """Merge spec-file values with flags (flags win) into a RunSpec."""
    file_spec = {}
    if args.spec:
        with open(args.spec) as fh:
            file_spec = json.load(fh)
        if not isinstance(file_spec, dict) or not all(
                isinstance(file_spec.get(key, {}), dict) for key in ("problem_params", "solver")):
            raise UsageError("spec file %s: the top level, problem_params and solver must be "
                             "JSON objects" % args.spec)

    def pick(flag_val, file_key, default=None, section=None):
        if flag_val is not None:
            return flag_val
        src = file_spec.get(section, {}) if section else file_spec
        val = src.get(file_key)
        if val is None:
            return default
        # File values must be what the flag would give: text, or a number
        # (numbers may be quoted); eps_list may also be a list of numbers.
        listed = file_key == "eps_list" and isinstance(val, list)
        kinds = str if file_key in _TEXT_KEYS and not listed else (str, int, float)
        if not all(isinstance(v, kinds) for v in (val if listed else [val])):
            raise UsageError("spec file %s: %r is not a valid %s" % (args.spec, val, file_key))
        return val

    problem_id = pick(args.problem, "problem_id")
    if problem_id is None:
        raise UsageError("no problem id given (--problem or spec file)")
    params = {}
    for key in ("n", "p", "radius", "seed", "diag", "matrix"):
        val = pick(getattr(args, key), key, section="problem_params")
        if val is not None:
            params[key] = val
    solver = {}
    for key in _SOLVER_KEYS:
        val = pick(getattr(args, key), key, section="solver")
        if val is not None:
            # spec-file values take the flag's own type, so "1e-4" reads as --eps1 1e-4
            try:
                solver[key] = _whole(val, key) if key in _INT_SOLVER_KEYS else float(val)
            except ValueError:
                raise UsageError("spec file %s: %r is not a valid %s"
                                 % (args.spec, val, key)) from None
    extras = {}
    for key in ("gamma", "beta0", "lp0", "max_plateaus", "step", "t_end",
                "perturb", "seeds", "eps_list", "second_order"):
        if hasattr(args, key):
            val = pick(getattr(args, key), key)
            if val is not None:
                extras[key] = val
    output_path = pick(args.output_path, "output_path", _DEFAULT_OUTPUT[args.mode])
    if "FLETCHER_SEED" in os.environ:
        params["seed"] = int(os.environ["FLETCHER_SEED"])
    return RunSpec(
        problem_id=problem_id,
        problem_params=params,
        solver=solver,
        mode=args.mode,
        output_path=output_path,
        extras=extras,
    )


class UsageError(Exception):
    pass


def _whole(value, key):
    """An integer parameter; a fractional or infinite value is a usage error, not truncated."""
    if not float(value).is_integer():
        raise UsageError("%s must be an integer, got %r" % (key, value))
    return int(value)


def _make_problem(spec):
    params = dict(spec.problem_params)
    seed = _whole(params.pop("seed", 0), "seed")
    n = params.pop("n", None)
    matrix = params.pop("matrix", None)
    if matrix is not None:
        matrix = np.loadtxt(matrix, delimiter=",", ndmin=2)
    try:
        problem = builtin_problem(
            spec.problem_id,
            n=None if n is None else _whole(n, "n"),
            p=_whole(params.get("p", 2), "p"),
            radius=float(params.get("radius", 0.5)),
            seed=seed,
            diag=params.get("diag"),
            matrix=matrix,
        )
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    return problem, seed


def _make_config(spec):
    cfg = replace(SolverConfig(), **spec.solver)
    cfg.validate()
    return cfg


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _fmt(value):
    return format(float(value), ".12g")


def _final_min_eig(problem, trace):
    """The certificate's measured min_eig; only first-order runs measure it here."""
    cert = trace.final_certificate
    if cert is not None and cert.min_eig is not None:
        return cert.min_eig
    try:
        return layered_hess(problem, trace.final_x).min_eig
    except FletcherPenaltyError:
        return float("nan")


def _summary(line):
    print(line, file=sys.stderr)


def cmd_solve(spec):
    problem, seed = _make_problem(spec)
    cfg = _make_config(spec)
    trace = gradient_eigenstep(problem, problem.init_point(seed), cfg)
    _write(spec.output_path, trace.to_json() + "\n")
    cert = trace.final_certificate
    iters = trace.iteration_counts()[0]
    min_eig = _final_min_eig(problem, trace)
    h_norm = float("nan") if cert is None else cert.eps0_measured
    grad_norm = float("nan") if cert is None else cert.eps1_measured
    _summary(
        "solve: termination=%s iters=%d h_norm=%.6e grad_M_norm=%.6e min_eig=%.6e"
        % (trace.termination, iters, h_norm, grad_norm, min_eig)
    )
    return _TERMINATION_EXIT[trace.termination]


def cmd_plateau(spec):
    problem, seed = _make_problem(spec)
    cfg = _make_config(spec)
    ex = spec.extras
    trace = plateau(
        problem,
        problem.init_point(seed),
        cfg,
        gamma=float(ex.get("gamma", 2.0)),
        beta0=float(ex.get("beta0", 1.0)),
        lp0=float(ex.get("lp0", 100)),
        max_plateaus=int(ex.get("max_plateaus", 60)),
    )
    _write(spec.output_path, trace.to_json() + "\n")
    cert = trace.final_certificate
    _summary(
        "plateau: termination=%s plateaus=%d final_beta=%.6e h_norm=%.6e grad_M_norm=%.6e"
        % (
            trace.termination,
            len(trace.plateaus),
            trace.config.beta,
            float("nan") if cert is None else cert.eps0_measured,
            float("nan") if cert is None else cert.eps1_measured,
        )
    )
    return _TERMINATION_EXIT[trace.termination]


def cmd_restore(spec):
    problem, seed = _make_problem(spec)
    ex = spec.extras
    perturb = float(ex.get("perturb", 0.0))
    if perturb > 0.0:
        x0 = random_point_in_region(problem, seed, scale=perturb, fraction=1.0)
    else:
        x0 = problem.init_point(seed)
    try:
        x_final, decay = restore_feasibility(
            problem, x0, step=float(ex.get("step", 1e-3)), t_end=float(ex.get("t_end", 3.0))
        )
    except StepSizeError as exc:
        _summary("restore: %s" % exc)
        return EXIT_NUMERICAL
    payload = {
        "final_x": [float(v) for v in x_final],
        "decay_log": [[float(t), float(phi)] for t, phi in decay],
    }
    _write(spec.output_path, json.dumps(payload) + "\n")
    _summary(
        "restore: steps=%d phi_start=%.6e phi_end=%.6e"
        % (len(decay) - 1, decay[0][1], decay[-1][1])
    )
    return EXIT_OK


def cmd_check(spec):
    problem, _ = _make_problem(spec)
    count = int(spec.extras.get("seeds", 10))
    reports = check_problem(problem, list(range(count)))
    _write(spec.output_path, reports_to_json(reports) + "\n")
    failed = [r.target for r in reports if not r.passed]
    _summary(
        "check: %d/%d targets pass%s"
        % (len(reports) - len(failed), len(reports), "" if not failed else " (failing: %s)" % ",".join(failed))
    )
    return EXIT_OK if not failed else EXIT_NOT_REACHED


def cmd_sweep(spec):
    problem, seed = _make_problem(spec)
    base_cfg = _make_config(spec)
    eps_raw = spec.extras.get("eps_list", "")
    if isinstance(eps_raw, str):
        eps_values = [float(v) for v in eps_raw.split(",") if v]
    else:
        eps_values = [float(v) for v in eps_raw]
    if not eps_values:
        raise UsageError("sweep needs a nonempty --eps-list")
    second_order = bool(spec.extras.get("second_order", False))
    eps_values = sorted(eps_values, reverse=True)

    lines = ["eps,iters_total,iters_grad,iters_eigen,final_h_norm,final_grad_norm,"
             "final_min_eig,g_final,termination"]
    x0 = problem.init_point(seed)
    all_converged = True
    for eps in eps_values:
        cfg = replace(base_cfg, eps1=eps, eps2=eps if second_order else math.inf)
        trace = gradient_eigenstep(problem, x0, cfg)
        total, grad_iters, eigen_iters = trace.iteration_counts()
        cert = trace.final_certificate
        min_eig = _final_min_eig(problem, trace)
        h_norm = float("nan") if cert is None else cert.eps0_measured
        grad_norm = float("nan") if cert is None else cert.eps1_measured
        g_final = trace.records[-1].g_after if trace.records else float("nan")
        flag = "" if trace.termination == "converged" else trace.termination
        all_converged = all_converged and trace.termination == "converged"
        lines.append(
            ",".join(
                [
                    _fmt(eps),
                    str(total),
                    str(grad_iters),
                    str(eigen_iters),
                    _fmt(h_norm),
                    _fmt(grad_norm),
                    _fmt(min_eig),
                    _fmt(g_final),
                    flag,
                ]
            )
        )
    _write(spec.output_path, "\r\n".join(lines) + "\r\n")
    _summary("sweep: %d runs, %s" % (len(eps_values), "all converged" if all_converged else "some did not converge"))
    return EXIT_OK if all_converged else EXIT_NOT_REACHED


_COMMANDS = {
    "solve": cmd_solve,
    "plateau": cmd_plateau,
    "restore": cmd_restore,
    "check": cmd_check,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _resolve(args)
        return _COMMANDS[spec.mode](spec)
    except (UsageError, ValueError, OSError) as exc:
        print("fletcher-penalty: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FletcherPenaltyError as exc:
        print("fletcher-penalty: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
