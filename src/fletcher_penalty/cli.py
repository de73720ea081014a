"""Command-line front end: solves, plateau runs, restoration, derivative checks, sweeps.

Every run parameter is one flag, taken only where it is used (plateau sets
beta from --beta0, sweep eps1 and eps2 from --eps-list; --p needs a stiefel
block, --diag and --matrix rayleigh), and a --spec JSON file is read as
flags too: each key is the flag of that name (problem_id is --problem), the
problem_params and solver sections only group keys, an eps_list list is
joined with commas, and true is a bare switch. The mode's parser reads the
file's flags first and then the command line's, so flags given on the
command line win. A key or flag the mode or problem does not take, a key
given twice, or a value the flag refuses is a usage error. Values not given
keep the defaults of the library functions they go to.

Each command returns (text, summary, exit code); main alone writes the
machine-first text (JSON trace, CSV table) to --output-path and prints the
summary as one stderr line. A failure writes no file: main prints one line
and maps it to its exit code. Exit codes: 0 converged, 2 tolerance not
reached, 3 numerical failure, 64 usage error (no usage block).
"""

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .exceptions import FletcherPenaltyError
from .problems import builtin_problem, random_point_in_region
from .solver import SolverConfig, gradient_eigenstep, plateau, restore_feasibility

__all__ = ["main"]

EXIT_OK = 0
EXIT_NOT_REACHED = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

_TERMINATION_EXIT = {
    "converged": EXIT_OK,
    "max_iters": EXIT_NOT_REACHED,
    "rank_deficient": EXIT_NUMERICAL,
    "beta_too_small": EXIT_NUMERICAL,
    "tolerance_unreachable": EXIT_NOT_REACHED,
    "max_plateaus": EXIT_NOT_REACHED,
    "trial_budget": EXIT_NUMERICAL,
}

_TEXT_FLAGS = ("--problem", "--diag", "--matrix", "--output-path", "--eps-list")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a word that starts with one "-" and names no flag is a value: --step -inf is --step=-inf
        self._negative_number_matcher = re.compile("-[^-]")

    # argparse exits 2 on bad usage; 2 here means "tolerance not reached"
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser():
    """The top-level parser, and the parser of each mode by name.

    Built on the first main call, not at import, and shared by the later
    calls of the process: parsing leaves a parser as it was, and building
    one (its formatters query the terminal) costs more than a parse.
    """
    parser = _Parser(prog="fletcher-penalty", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    modes = {}
    for mode, run, output, text in (
        ("solve", cmd_solve, "solve.json", "one gradient-eigenstep run"),
        ("plateau", cmd_plateau, "plateau.json", "penalty-parameter estimating scheme"),
        ("restore", cmd_restore, "restore.json", "integrate the feasibility-restoration flow"),
        ("check", cmd_check, "check.json", "finite-difference derivative reports"),
        ("sweep", cmd_sweep, "sweep.csv", "one solve per tolerance, CSV summary"),
    ):
        # no abbreviations: a spec key or flag is exactly the name of a flag
        p = modes[mode] = sub.add_parser(mode, help=text, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--spec", help="JSON file of flag values; flags given here override them")
        p.add_argument("--problem", help="builtin problem id (sphere, rayleigh, stiefel, product:...)")
        p.add_argument("--n", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--radius", type=float, help="region radius R")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--diag", help="rayleigh diagonal, e.g. 1..10 or 1,4,9")
        p.add_argument("--matrix", help="rayleigh matrix CSV path (dense, comma-separated rows)")
        p.add_argument("--output-path", default=output, help="where to write the JSON/CSV result")
    # the modes that run the solver, less the fields a mode sets itself
    for mode, own in (("solve", ()), ("plateau", ("beta",)), ("sweep", ("eps1", "eps2"))):
        for name in SolverConfig._fields:
            if name not in own:
                modes[mode].add_argument("--" + name.replace("_", "-"),
                                         type=SolverConfig.__annotations__[name])
    modes["plateau"].add_argument("--gamma", type=float)
    modes["plateau"].add_argument("--beta0", dest="beta", type=float)  # the first plateau's beta
    modes["plateau"].add_argument("--lp0", type=float)
    modes["plateau"].add_argument("--max-plateaus", type=int)
    modes["restore"].add_argument("--step", type=float, default=1e-3)
    modes["restore"].add_argument("--t-end", type=float, default=3.0)
    modes["restore"].add_argument("--perturb", type=float, default=0.0,
                                  help="perturbation scale applied to the (feasible) initial point")
    modes["check"].add_argument("--seeds", type=int, default=10, help="number of seeds (0..k-1)")
    modes["sweep"].add_argument("--eps-list", default="", help="comma-separated eps1 values")
    modes["sweep"].add_argument("--second-order", action="store_true",
                                help="set eps2 = eps (default: first-order, eps2 = inf)")
    return parser, modes


def _as_flag(value):
    """A spec-file value as flag text; a whole-number float reads as an integer (3.0 is 3)."""
    return str(int(value)) if isinstance(value, float) and value.is_integer() else str(value)


def _spec_flags(spec):
    """The flags a parsed --spec file stands for."""
    groups = [spec]
    if isinstance(spec, dict):
        top = dict(spec)
        groups = [top.pop("problem_params", {}), top.pop("solver", {}), top]
    if not all(isinstance(group, dict) for group in groups):
        raise UsageError("the top level, problem_params and solver must be JSON objects")
    items = [("--problem" if key == "problem_id" else "--" + key.replace("_", "-"), value)
             for group in groups for key, value in group.items()]
    names = [flag for flag, _ in items]
    twice = sorted({flag for flag in names if names.count(flag) > 1})
    if twice:
        raise UsageError("%s given more than once" % ", ".join(twice))
    flags = []
    for flag, value in items:
        if value is None or isinstance(value, bool):
            flags += [flag] if value else []  # null and false leave the key out
            continue
        if flag == "--eps-list" and isinstance(value, list):
            value = ",".join(map(_as_flag, value))
        elif not isinstance(value, str) and (flag in _TEXT_FLAGS or not isinstance(value, (int, float))):
            raise UsageError("%r is not a valid %s" % (value, flag))
        # --flag=value, so that a value such as -1e-3 is not read as a flag
        flags.append("%s=%s" % (flag, _as_flag(value)))
    return flags


def _parse(argv):
    """The run's arguments: a --spec file's flags first, then the command line's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, modes = _build_parser()
    args = parser.parse_args(argv)
    if args.spec is not None:
        mode, path = modes[args.mode], args.spec
        try:
            with open(path) as fh:
                args = mode.parse_args(_spec_flags(json.load(fh)))
            if args.spec is not None:
                raise UsageError("a spec file cannot name another one")
        except (UsageError, ValueError) as exc:
            raise UsageError("spec file %s: %s" % (path, exc)) from None
        args = mode.parse_args(argv[1:], namespace=args)  # argv[0] is the mode
    return args


def _given(args, *keys):
    """The values of `keys` the run set; the others keep the defaults of the callee."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _make_problem(args):
    if args.problem is None:
        raise UsageError("no problem id given (--problem or spec file)")
    matrix = None if args.matrix is None else np.loadtxt(args.matrix, delimiter=",", ndmin=2)
    return builtin_problem(args.problem, matrix=matrix,
                           **_given(args, "n", "p", "radius", "seed", "diag"))


def _make_config(args):
    return SolverConfig(**_given(args, *SolverConfig._fields))


def _fmt(value):
    return format(float(value), ".12g")


def _final_measures(trace):
    """The certificate's h_norm, grad_M_norm and min_eig; nan where it has none.

    A first-order run's certificate measures no curvature, so its min_eig is nan.
    """
    cert = trace.final_certificate
    if cert is None:
        return (math.nan,) * 3
    min_eig = math.nan if cert.min_eig is None else cert.min_eig
    return cert.eps0_measured, cert.eps1_measured, min_eig


def cmd_solve(args):
    problem = _make_problem(args)
    cfg = _make_config(args)
    trace = gradient_eigenstep(problem, problem.init_point(args.seed), cfg)
    iters = trace.iteration_counts()[0]
    h_norm, grad_norm, min_eig = _final_measures(trace)
    summary = (
        "solve: termination=%s iters=%d h_norm=%.6e grad_M_norm=%.6e min_eig=%.6e"
        % (trace.termination, iters, h_norm, grad_norm, min_eig)
    )
    return trace.to_json() + "\n", summary, _TERMINATION_EXIT[trace.termination]


def cmd_plateau(args):
    problem = _make_problem(args)
    cfg = _make_config(args)
    trace = plateau(problem, problem.init_point(args.seed), cfg,
                    **_given(args, "gamma", "lp0", "max_plateaus"))
    h_norm, grad_norm, _ = _final_measures(trace)
    summary = (
        "plateau: termination=%s plateaus=%d final_beta=%.6e h_norm=%.6e grad_M_norm=%.6e"
        % (trace.termination, len(trace.plateaus), trace.config.beta, h_norm, grad_norm)
    )
    return trace.to_json() + "\n", summary, _TERMINATION_EXIT[trace.termination]


def cmd_restore(args):
    problem = _make_problem(args)
    x0 = random_point_in_region(problem, args.seed, scale=args.perturb)
    x_final, decay = restore_feasibility(problem, x0, step=args.step, t_end=args.t_end)
    payload = {
        "final_x": [float(v) for v in x_final],
        "decay_log": [[float(t), float(phi)] for t, phi in decay],
    }
    summary = (
        "restore: steps=%d phi_start=%.6e phi_end=%.6e"
        % (len(decay) - 1, decay[0][1], decay[-1][1])
    )
    return json.dumps(payload) + "\n", summary, EXIT_OK


def cmd_check(args):
    # loaded here, not at import: no other mode uses it
    from .derivative_check import check_problem, reports_to_json

    problem = _make_problem(args)
    reports = check_problem(problem, list(range(args.seeds)))
    failed = [r.target for r in reports if not r.passed]
    summary = (
        "check: %d/%d targets pass%s"
        % (len(reports) - len(failed), len(reports), "" if not failed else " (failing: %s)" % ",".join(failed))
    )
    return reports_to_json(reports) + "\n", summary, EXIT_NOT_REACHED if failed else EXIT_OK


def cmd_sweep(args):
    problem = _make_problem(args)
    base_cfg = _make_config(args)
    eps_values = sorted((float(v) for v in args.eps_list.split(",") if v), reverse=True)
    if not eps_values:
        raise UsageError("sweep needs a nonempty --eps-list")

    lines = ["eps,iters_total,iters_grad,iters_eigen,final_h_norm,final_grad_norm,"
             "final_min_eig,g_final,termination"]
    x0 = problem.init_point(args.seed)
    all_converged = True
    for eps in eps_values:
        cfg = base_cfg._replace(eps1=eps, eps2=eps if args.second_order else math.inf)
        trace = gradient_eigenstep(problem, x0, cfg)
        total, grad_iters, eigen_iters = trace.iteration_counts()
        h_norm, grad_norm, min_eig = _final_measures(trace)
        g_final = trace.records[-1].g_after if trace.records else float("nan")
        flag = "" if trace.termination == "converged" else trace.termination
        all_converged = all_converged and trace.termination == "converged"
        lines.append(",".join([_fmt(eps), str(total), str(grad_iters), str(eigen_iters),
                               _fmt(h_norm), _fmt(grad_norm), _fmt(min_eig), _fmt(g_final), flag]))
    summary = "sweep: %d runs, %s" % (
        len(eps_values), "all converged" if all_converged else "some did not converge")
    return "\r\n".join(lines) + "\r\n", summary, EXIT_OK if all_converged else EXIT_NOT_REACHED


def main(argv=None):
    try:
        args = _parse(argv)
        # main alone writes to stderr: an overflow or NaN a run meets is reported,
        # if at all, by the run's one error line, not by NumPy's warnings
        with np.errstate(all="ignore"):
            text, summary, code = args.run(args)
        with open(args.output_path, "w", newline="") as fh:
            fh.write(text)
        print(summary, file=sys.stderr)
        return code
    except (UsageError, ValueError, OSError) as exc:
        print("fletcher-penalty: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FletcherPenaltyError as exc:
        print("fletcher-penalty: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
