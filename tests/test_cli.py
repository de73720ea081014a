"""Command-line interface: exit codes, file formats, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from fletcher_penalty import audit_restore, cli
from fletcher_penalty.cli import main
from fletcher_penalty.problems import MAX_DENSE_N
from fletcher_penalty.solver import SolverConfig

from conftest import make_rank_crossing_toy


def run_cli(args):
    return main(args)


def test_solve_writes_trace_and_exits_zero(tmp_path):
    out = tmp_path / "trace.json"
    code = run_cli(
        [
            "solve", "--problem", "rayleigh", "--n", "10", "--eps1", "1e-5",
            "--eps2", "1e-4", "--beta", "10", "--seed", "1", "--output-path", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "records", "final_x", "certificate", "termination"}
    assert payload["termination"] == "converged"
    assert payload["records"][-1]["kind"] == "terminal"
    assert len(payload["final_x"]) == 10


def test_unknown_problem_exits_64(tmp_path, capsys):
    # builtin_problem alone rejects an id: one line, the id quoted once, no output
    out = tmp_path / "x.json"
    for problem_id, message in [
        ("nope", "unknown problem id 'nope'"),
        ("product:", "unknown product block id ''"),
        ("product:sphere,,sphere", "unknown product block id ''"),
        ("product:sphere,cube", "unknown product block id 'cube'"),
    ]:
        assert run_cli(["solve", "--problem", problem_id, "--output-path", str(out)]) == 64
        assert capsys.readouterr().err == "fletcher-penalty: %s\n" % message
        assert not out.exists()


def test_eps1_above_half_radius_exits_64(tmp_path, capsys):
    code = run_cli(
        ["solve", "--problem", "sphere", "--eps1", "0.3", "--output-path", str(tmp_path / "x.json")]
    )
    assert code == 64
    assert "eps1 <= R/2" in capsys.readouterr().err


def test_max_iters_exits_two(tmp_path):
    code = run_cli(
        [
            "solve", "--problem", "rayleigh", "--n", "10", "--eps1", "1e-9",
            "--beta", "10", "--seed", "1", "--max-iters", "3",
            "--output-path", str(tmp_path / "t.json"),
        ]
    )
    assert code == 2


def test_sweep_monotone_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        [
            "sweep", "--problem", "rayleigh", "--n", "10", "--beta", "10",
            "--seed", "1", "--eps-list", "1e-2,1e-3,1e-4", "--output-path", str(out),
        ]
    )
    assert code == 0
    raw = out.read_bytes().decode()
    lines = raw.split("\r\n")  # RFC-4180 line endings
    assert lines[-1] == ""
    header = lines[0].split(",")
    assert header == [
        "eps", "iters_total", "iters_grad", "iters_eigen", "final_h_norm",
        "final_grad_norm", "final_min_eig", "g_final", "termination",
    ]
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert len(rows) == 3
    eps = [float(r[0]) for r in rows]
    assert eps == sorted(eps, reverse=True)
    iters = [int(r[1]) for r in rows]
    assert iters == sorted(iters)  # nondecreasing as eps shrinks
    assert all(r[-1] == "" for r in rows)  # all converged


def test_sweep_single_eps_matches_solve(tmp_path):
    out_csv = tmp_path / "one.csv"
    out_json = tmp_path / "one.json"
    assert run_cli(
        [
            "sweep", "--problem", "rayleigh", "--n", "10", "--beta", "10",
            "--seed", "1", "--eps-list", "1e-3", "--output-path", str(out_csv),
        ]
    ) == 0
    assert run_cli(
        [
            "solve", "--problem", "rayleigh", "--n", "10", "--beta", "10",
            "--seed", "1", "--eps1", "1e-3", "--output-path", str(out_json),
        ]
    ) == 0
    row = out_csv.read_bytes().decode().split("\r\n")[1].split(",")
    trace = json.loads(out_json.read_text())
    solo_iters = sum(1 for r in trace["records"] if r["kind"] != "terminal")
    assert int(row[1]) == solo_iters


def test_sweep_empty_list_exits_64(tmp_path):
    assert run_cli(
        ["sweep", "--problem", "rayleigh", "--eps-list", "", "--output-path", str(tmp_path / "s.csv")]
    ) == 64


def test_plateau_command(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = run_cli(
        [
            "plateau", "--problem", "stiefel", "--n", "8", "--p", "2", "--seed", "3",
            "--eps1", "1e-4", "--eps2", "1e-3", "--beta0", "1e-3", "--gamma", "2",
            "--lp0", "50", "--output-path", str(out),
        ]
    )
    assert code == 0
    assert "plateaus=" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert "plateaus" in payload
    assert payload["termination"] == "converged"


def test_plateau_rank_deficient_end_exits_three(tmp_path, monkeypatch, capsys):
    # a start with Dh = 0 ends the first plateau as rank_deficient, without a certificate
    toy = replace(make_rank_crossing_toy(), init_point=lambda seed: np.array([0.5, 0.2, 0.2]))
    monkeypatch.setattr(cli, "builtin_problem", lambda *args, **kwargs: toy)
    out = tmp_path / "p.json"
    code = run_cli(["plateau", "--problem", "sphere", "--output-path", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["termination"] == "rank_deficient"
    assert payload["certificate"] is None
    assert "h_norm=nan" in capsys.readouterr().err


def test_solve_without_a_certificate_prints_nan_measures(tmp_path, monkeypatch, capsys):
    # a start with Dh = 0 ends the solve as rank_deficient: no certificate, nothing to measure
    toy = replace(make_rank_crossing_toy(), init_point=lambda seed: np.array([0.5, 0.2, 0.2]))
    monkeypatch.setattr(cli, "builtin_problem", lambda *args, **kwargs: toy)
    out = tmp_path / "s.json"
    assert run_cli(["solve", "--problem", "sphere", "--output-path", str(out)]) == 3
    assert json.loads(out.read_text())["certificate"] is None
    assert "h_norm=nan grad_M_norm=nan min_eig=nan" in capsys.readouterr().err


def test_non_finite_hess_h_exits_three(tmp_path, monkeypatch, capsys):
    # a NaN penalty gradient is a numerical failure, not convergence or a usage error
    base = cli.builtin_problem("rayleigh", n=10)
    bad = replace(base, hess_h=lambda x, w, v: np.full(np.shape(v), np.nan))
    monkeypatch.setattr(cli, "builtin_problem", lambda *args, **kwargs: bad)
    assert run_cli(["solve", "--problem", "rayleigh", "--output-path", str(tmp_path / "s.json")]) == 3
    err = capsys.readouterr().err
    # the message names x on one line, however long x is
    assert "hess_h returned non-finite" in err and err.count("\n") == 1


def test_beta_too_large_for_the_gradient_exits_three_in_one_line(tmp_path, capsys):
    # 2 beta = inf, and inf * 0 in 2 beta Dh^T h: the error names beta, with no RuntimeWarning
    out = tmp_path / "s.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["solve", "--problem", "rayleigh", "--n", "10", "--beta", "1e308",
                        "--output-path", str(out)])
    assert code == 3 and not out.exists()
    assert [w.message for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "beta=1e+308" in err and "hess_h" not in err


def test_overflowing_matrix_exits_three_in_one_line(tmp_path, capsys):
    # 1e308 + 1e308 overflows in the cost's symmetrization and the penalty's
    # products: main prints the run's one error line, and NumPy no warning
    path = tmp_path / "a.csv"
    np.savetxt(path, np.diag([1e308, 1e308, 3.0, 4.0, 5.0]), delimiter=",")
    out = tmp_path / "s.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["solve", "--problem", "rayleigh", "--matrix", str(path),
                        "--output-path", str(out)])
    assert code == 3 and not out.exists()
    assert [w.message for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("fletcher-penalty: grad_f returned non-finite")


def test_unreachable_tolerance_exits_two_in_one_line(tmp_path, capsys):
    # eps1 = 1e-300 is below what the rounding of g can resolve: the failed search
    # is named for that (tolerance not reached), not read as beta too small
    out = tmp_path / "s.json"
    code = run_cli(["solve", "--problem", "rayleigh", "--n", "10", "--eps1", "1e-300",
                    "--output-path", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["termination"] == "tolerance_unreachable"
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("solve: termination=tolerance_unreachable ")


def test_plateau_cap_writes_trace_and_exits_two(tmp_path, capsys):
    # at beta = 1e9 the steps are tiny, so each plateau ends on its budget
    out = tmp_path / "p.json"
    code = run_cli(
        [
            "plateau", "--problem", "rayleigh", "--n", "10", "--seed", "0", "--eps1", "1e-5",
            "--beta0", "1e9", "--gamma", "2", "--lp0", "1", "--max-plateaus", "3",
            "--output-path", str(out),
        ]
    )
    assert code == 2
    # the final point is reached by 276 steps, so its measures are not pinned here
    assert capsys.readouterr().err.startswith(
        "plateau: termination=max_plateaus plateaus=3 final_beta=4.000000e+09 h_norm=")
    payload = json.loads(out.read_text())
    assert payload["termination"] == "max_plateaus"
    assert [s["stop_reason"] for s in payload["plateaus"]] == ["budget"] * 3


def test_negative_max_plateaus_exits_64_before_any_output(tmp_path, capsys):
    out = tmp_path / "p.json"
    args = ["plateau", "--problem", "rayleigh", "--n", "10", "--max-plateaus", "-3"]
    assert run_cli(args + ["--output-path", str(out)]) == 64
    assert "max_plateaus must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--gamma", "1e200", "--beta0", "1e-3"],
])
def test_plateau_growth_overflow_ends_as_max_plateaus(tmp_path, capsys, flags):
    # a schedule whose next beta or budget overflows cannot grow any further:
    # no OverflowError traceback, no "beta must be finite" usage error
    out = tmp_path / "p.json"
    args = ["plateau", "--problem", "rayleigh", "--n", "10", *flags, "--output-path", str(out)]
    assert run_cli(args) == 2
    payload = json.loads(out.read_text())
    assert payload["termination"] == "max_plateaus"
    stages = payload["plateaus"]
    assert all(math.isfinite(s["beta"]) and math.isfinite(s["lp"]) for s in stages)
    err = capsys.readouterr().err
    assert err.startswith("plateau: termination=max_plateaus plateaus=%d " % len(stages))


@pytest.mark.parametrize("flags", [
    ["--gamma", "1e70", "--beta0", "1", "--lp0", "1"],
    ["--alpha01", "1e9", "--max-backtracks", "0", "--beta0", "1e9", "--gamma", "2"],
])
def test_plateau_trial_budget_too_short_for_beta_ends_as_trial_budget(tmp_path, capsys, flags):
    # the region floor 1/(2 beta sigma_max^2) lies below the smallest trial
    # alpha01 tau1^max_backtracks: at beta = 1e70 reached by a gamma = 1e70
    # jump, or with a one-trial budget at alpha01 = 1e9. The failed search
    # names the trial budget, since a larger beta would only lower the floor.
    out = tmp_path / "p.json"
    args = ["plateau", "--problem", "rayleigh", "--n", "10", *flags, "--output-path", str(out)]
    assert run_cli(args) == 3
    payload = json.loads(out.read_text())
    assert payload["termination"] == "trial_budget"
    last = payload["plateaus"][-1]
    assert last["stop_reason"] == "backtrack_failure"
    cfg = payload["config"]
    x = np.asarray(payload["final_x"])
    sigma_max = np.linalg.svd(cli.builtin_problem("rayleigh", n=10).jac_h(x), compute_uv=False)[0]
    floor = 1.0 / (2.0 * last["beta"] * sigma_max**2)
    assert floor < cfg["alpha01"] * cfg["tau1"] ** cfg["max_backtracks"]
    err = capsys.readouterr().err
    assert err.startswith("plateau: termination=trial_budget plateaus=%d " % len(payload["plateaus"]))


@pytest.mark.parametrize("args, solves", [
    (["solve", "--problem", "rayleigh", "--n", "10", "--eps2", "1e-4", "--seed", "1"], 1),
    (["solve", "--problem", "rayleigh", "--n", "10", "--seed", "1"], 1),
    (["sweep", "--problem", "rayleigh", "--n", "8", "--beta", "10", "--eps-list", "1e-2,1e-3",
      "--second-order"], 2),
    (["solve", "--problem", "rayleigh", "--diag", "1,4,9", "--seed", "1"], 1),
])
def test_cli_run_measures_min_eig_once_per_solve(tmp_path, monkeypatch, capsys, args, solves):
    # a second-order certificate carries the min_eig it measured, so the CLI
    # does not run layered_hess again; a first-order run measures it in the CLI
    from fletcher_penalty import criticality

    real, calls = criticality.layered_hess, []

    def spy(*a):
        calls.append(a)
        return real(*a)

    monkeypatch.setattr(criticality, "layered_hess", spy)
    monkeypatch.setattr(cli, "layered_hess", spy)
    assert run_cli(args + ["--output-path", str(tmp_path / "out")]) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("args", [
    ["solve", "--problem", "stiefel", "--n", "8", "--p", "2"],
    ["sweep", "--problem", "stiefel", "--n", "8", "--p", "2", "--eps-list", "1e-4"],
])
def test_first_order_run_evaluates_its_final_point_once(tmp_path, monkeypatch, args):
    # the CLI measures a first-order run's min_eig from the run's last PenaltyEval,
    # so the final point's h, jac_h, grad_f and SVD are not computed again
    base = cli.builtin_problem("stiefel", n=8, p=2)
    points, finals = [], []

    def jac_h(x):
        points.append(np.array(x, copy=True))
        return base.jac_h(x)

    def solve(*a):
        trace = real_solve(*a)
        finals.append(trace.final_x)
        return trace

    real_solve = cli.gradient_eigenstep
    monkeypatch.setattr(cli, "builtin_problem", lambda *a, **k: replace(base, jac_h=jac_h))
    monkeypatch.setattr(cli, "gradient_eigenstep", solve)
    assert run_cli(args + ["--output-path", str(tmp_path / "out")]) == 0
    assert finals
    for x in finals:
        assert sum(np.array_equal(y, x) for y in points) == 1


def test_restore_command(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        [
            "restore", "--problem", "stiefel", "--n", "8", "--p", "3", "--seed", "3",
            "--t-end", "2", "--perturb", "0.3", "--output-path", str(out),
        ]
    )
    assert code == 0
    decay = json.loads(out.read_text())["decay_log"]
    assert decay[0][0] == 0.0
    assert audit_restore(cli.builtin_problem("stiefel", n=8, p=3, seed=3), decay) == []


def test_check_command(tmp_path):
    out = tmp_path / "c.json"
    code = run_cli(["check", "--problem", "sphere", "--seeds", "10", "--output-path", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(r["pass"] for r in payload)


def test_byte_determinism_same_runspec(tmp_path):
    args = [
        "solve", "--problem", "rayleigh", "--n", "10", "--eps1", "1e-5",
        "--eps2", "1e-4", "--beta", "10", "--seed", "1",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(args + ["--output-path", str(out1)]) == 0
    assert run_cli(args + ["--output-path", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sweep_args = [
        "sweep", "--problem", "rayleigh", "--n", "8", "--beta", "10",
        "--seed", "2", "--eps-list", "1e-2,1e-3",
    ]
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    assert run_cli(sweep_args + ["--output-path", str(csv1)]) == 0
    assert run_cli(sweep_args + ["--output-path", str(csv2)]) == 0
    assert csv1.read_bytes() == csv2.read_bytes()


def test_one_process_runs_as_fresh_processes_with_one_parser(tmp_path, monkeypatch, capsys):
    # main builds its parser on the first call and reuses it: every later run,
    # a usage error and a spec file included, writes the bytes a new process writes
    plateau_argv = ["plateau", "--problem", "stiefel", "--seed", "3", "--eps1", "1e-4",
                    "--eps2", "1e-3", "--beta0", "1e-3", "--lp0", "50", "--output-path", "p.json"]
    argvs = [
        plateau_argv,
        ["restore", "--problem", "stiefel", "--n", "8", "--p", "3", "--seed", "3",
         "--perturb", "0.3", "--output-path", "r.json"],
        ["solve", "--problem", "sphere", "--n", "abc", "--output-path", "u.json"],
        ["plateau", "--spec", "spec.json", "--seed", "5", "--output-path", "s.json"],
        plateau_argv,
    ]
    spec = {"problem_id": "stiefel", "problem_params": {"n": 8, "p": 2},
            "solver": {"eps1": 1e-4, "eps2": 1e-3}, "beta0": 1e-3, "lp0": 50}

    def run_dir(name):
        path = tmp_path / name
        path.mkdir()
        (path / "spec.json").write_text(json.dumps(spec))
        return path

    def output(path):
        return path.read_bytes() if path.exists() else None

    here, fresh = run_dir("here"), run_dir("fresh")
    monkeypatch.chdir(here)
    cli._build_parser.cache_clear()
    in_process = []
    for argv in argvs:
        code = main(argv)
        in_process.append((code, capsys.readouterr().err, output(here / argv[-1])))
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)
    assert [code for code, _, _ in in_process] == [0, 0, 64, 0, 0]

    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, expected in zip(argvs, in_process):
        done = subprocess.run([sys.executable, "-m", "fletcher_penalty.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr, output(fresh / argv[-1])) == expected, argv


def test_spec_file_with_flag_override(tmp_path):
    spec = {
        "problem_id": "rayleigh",
        "problem_params": {"n": 10, "seed": 1},
        "solver": {"eps1": 1e-3, "beta": 10.0},
        "output_path": str(tmp_path / "from_spec.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run_cli(["solve", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "from_spec.json").exists()
    # flag overrides the file value
    out2 = tmp_path / "override.json"
    assert run_cli(["solve", "--spec", str(spec_path), "--output-path", str(out2)]) == 0
    a = json.loads((tmp_path / "from_spec.json").read_text())
    b = json.loads(out2.read_text())
    assert a == b


def test_spec_file_solver_numbers_may_be_quoted(tmp_path):
    # a quoted number reads as the flag would read it, as in problem_params
    outputs = []
    for solver in ({"eps1": 1e-4, "beta": 10, "max_iters": 500},
                   {"eps1": "1e-4", "beta": "10", "max_iters": "500"}):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"problem_id": "rayleigh", "solver": solver}))
        out = tmp_path / ("%d.json" % len(outputs))
        assert run_cli(["solve", "--spec", str(spec_path), "--output-path", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_spec_file_non_numeric_solver_value_exits_64(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"problem_id": "rayleigh", "solver": {"eps1": "fast"}}))
    assert run_cli(["solve", "--spec", str(spec_path), "--output-path", str(tmp_path / "x.json")]) == 64
    assert capsys.readouterr().err == (
        "fletcher-penalty: spec file %s: argument --eps1: invalid float value: 'fast'\n"
        % spec_path)


@pytest.mark.parametrize("spec", [
    {"problem_id": "rayleigh", "solver": {"eps_1": 1e-3}},  # a typo'd key
    {"problem_id": "rayleigh", "tolerance": 1e-3},  # a key no flag takes
    {"problem_id": "rayleigh", "gamma": 3},  # a plateau key in a solve spec
    {"problem_id": "rayleigh", "beta": 10, "solver": {"beta": 5}},  # a key given twice
    {"problem_id": "rayleigh", "problem": "sphere"},  # two keys naming one flag
    {"problem_id": "rayleigh", "max_iter": 3},  # a prefix of a flag, not a flag
    {"problem_id": "rayleigh", "spec": "other.json"},  # a spec file naming another
])
def test_spec_file_key_no_flag_takes_once_exits_64(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "x.json"
    assert run_cli(["solve", "--spec", str(spec_path), "--output-path", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("fletcher-penalty: spec file %s: " % spec_path)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode, spec, flags", [
    ("solve", {"problem_id": "sphere", "problem_params": {"n": 3.0}}, ["--problem", "sphere", "--n", "3"]),
    ("solve", {"problem_id": "rayleigh", "eps1": 1e-4, "max_iters": 2e1},
     ["--problem", "rayleigh", "--eps1", "1e-4", "--max-iters", "20"]),
    ("solve", {"problem_id": "rayleigh", "beta": -1e-20}, ["--problem", "rayleigh", "--beta=-1e-20"]),
    ("sweep", {"problem_id": "rayleigh", "solver": {"beta": 10}, "eps_list": ["1e-2", 1e-3],
               "second_order": True},
     ["--problem", "rayleigh", "--beta", "10", "--eps-list", "1e-2,1e-3", "--second-order"]),
    ("sweep", {"problem_id": "rayleigh", "eps_list": "1e-2,1e-3", "second_order": False},
     ["--problem", "rayleigh", "--eps-list", "1e-2,1e-3"]),
])
def test_spec_file_runs_as_the_flags_it_names(tmp_path, capsys, mode, spec, flags):
    # sections only group keys; a whole-number float is an integer; true is a bare switch
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for args in (["--spec", str(spec_path)], flags):
        out = tmp_path / ("%d.out" % len(outputs))
        code = run_cli([mode, *args, "--output-path", str(out)])
        outputs.append((code, capsys.readouterr().err, out.exists() and out.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args, message", [
    (["solve", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
    (["solve", "--max-iter", "3"], "unrecognized arguments: --max-iter 3"),
    (["check", "--beta", "10"], "unrecognized arguments: --beta 10"),  # check runs no solver
    (["plateau", "--beta", "5"], "unrecognized arguments: --beta 5"),  # --beta0 sets beta
    (["sweep", "--eps1", "5", "--eps-list", "1e-2"], "unrecognized arguments: --eps1 5"),
    # the penalty Hessian takes no difference step
    (["solve", "--fd-step", "1e-6"], "unrecognized arguments: --fd-step 1e-6"),
])
def test_bad_flag_exits_64_in_one_line(tmp_path, capsys, args, message):
    out = tmp_path / "x.json"
    assert run_cli([*args, "--problem", "sphere", "--output-path", str(out)]) == 64
    assert capsys.readouterr().err == "fletcher-penalty: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--problem", "sphere", "--n", "0"],
    ["--problem", "product:sphere,stiefel", "--n", "0"],
    ["--problem", "rayleigh", "--n", "0"],
    ["--problem", "rayleigh", "--diag", "3..3"],
])
def test_sphere_below_two_dimensions_exits_64(tmp_path, capsys, flags):
    assert run_cli(["solve", *flags, "--output-path", str(tmp_path / "x.json")]) == 64
    assert capsys.readouterr().err == "fletcher-penalty: sphere needs n >= 2\n"


@pytest.mark.parametrize("spec", ["5..1", "3..2.5", "1..nan"])
def test_empty_diag_range_exits_64_naming_the_range(tmp_path, capsys, spec):
    out = tmp_path / "x.json"
    assert run_cli(["solve", "--problem", "rayleigh", "--diag", spec, "--output-path", str(out)]) == 64
    assert capsys.readouterr().err == (
        "fletcher-penalty: diag range %r is empty: it needs start <= end\n" % spec)
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("1..2..3", "is neither a range start..end nor a comma-separated list of numbers"),
    ("1,,2", "is neither a range start..end nor a comma-separated list of numbers"),
    ("1..x", "is neither a range start..end nor a comma-separated list of numbers"),
    ("1..inf", "holds a value that is not finite"),
    ("nan,1,2", "holds a value that is not finite"),
])
def test_malformed_diag_exits_64_naming_the_flag_and_spec(tmp_path, capsys, spec, message):
    out = tmp_path / "x.json"
    assert run_cli(["solve", "--problem", "rayleigh", "--diag", spec, "--output-path", str(out)]) == 64
    assert capsys.readouterr().err == "fletcher-penalty: --diag %r %s\n" % (spec, message)
    assert not out.exists()


@pytest.fixture
def bounded_arange(monkeypatch):
    # np.arange that fails on a huge size instead of allocating it, so a missing
    # cap fails the test rather than exhausting the memory
    real = np.arange

    def arange(*args, **kwargs):
        start, stop = (0, args[0]) if len(args) == 1 else args[:2]
        assert stop - start <= MAX_DENSE_N, "np.arange(%r, %r)" % (start, stop)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)


@pytest.mark.parametrize("flags, message", [
    (["--diag", "1..1e300"], "--diag '1..1e300' holds more than %d entries"),
    (["--diag", "0.5..1e9"], "--diag '0.5..1e9' holds more than %d entries"),
    (["--diag", "1..10001"], "--diag '1..10001' holds more than %d entries"),
    (["--n", "10001"], "--n 10001 is more than %d"),
    (["--n", "1000000000"], "--n 1000000000 is more than %d"),
], ids=["diag-1e300", "diag-1e9", "diag-10001", "n-10001", "n-1e9"])
def test_dense_matrix_above_the_cap_exits_64_naming_the_flag(tmp_path, capsys, bounded_arange,
                                                             flags, message):
    out = tmp_path / "x.json"
    assert run_cli(["solve", "--problem", "rayleigh", *flags, "--output-path", str(out)]) == 64
    assert capsys.readouterr().err == (
        "fletcher-penalty: %s, the cap on the dense n-by-n matrix\n" % (message % MAX_DENSE_N))
    assert not out.exists()


def test_non_finite_matrix_csv_exits_64(tmp_path, capsys):
    mat = tmp_path / "mat.csv"
    mat.write_text("1,0\n0,nan\n")
    out = tmp_path / "m.json"
    assert run_cli(["solve", "--problem", "rayleigh", "--matrix", str(mat), "--output-path", str(out)]) == 64
    assert capsys.readouterr().err == "fletcher-penalty: matrix must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("perturb", ["nan", "inf", "-1"])
def test_restore_rejects_a_perturbation_that_is_negative_or_not_finite(tmp_path, capsys, perturb):
    out = tmp_path / "r.json"
    args = ["restore", "--problem", "stiefel", "--perturb", perturb, "--output-path", str(out)]
    assert run_cli(args) == 64
    err = capsys.readouterr().err
    assert err == "fletcher-penalty: perturbation scale must be nonnegative and finite, got %r\n" % (
        float(perturb),)
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--problem", "sphere", "--p", "3"], "problem sphere does not take p"),
    (["--problem", "stiefel", "--diag", "1..3"], "problem stiefel does not take diag"),
    (["--problem", "rayleigh", "--n", "5", "--diag", "1..3"],
     "rayleigh takes only one of n, diag and matrix"),
])
def test_problem_parameter_the_problem_does_not_use_exits_64(tmp_path, capsys, args, message):
    out = tmp_path / "x.json"
    assert run_cli(["solve", *args, "--output-path", str(out)]) == 64
    assert capsys.readouterr().err == "fletcher-penalty: %s\n" % message
    assert not out.exists()


_RESTORE = ["restore", "--problem", "stiefel", "--n", "8", "--p", "3", "--seed", "3",
            "--perturb", "0.3"]


def test_restore_halves_a_step_too_large(tmp_path, capsys):
    # a first step over the whole horizon (t_end = 3) raises phi, so it is halved
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(_RESTORE + ["--step", "1e3", "--output-path", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("restore: steps=") and err.count("\n") == 1
    decay = json.loads(out.read_text())["decay_log"]
    assert 0.0 < decay[1][0] < 3.0
    assert audit_restore(cli.builtin_problem("stiefel", n=8, p=3, seed=3), decay) == []


def test_restore_from_an_all_nan_h_exits_three_naming_h(tmp_path, monkeypatch, capsys):
    # h is read at the unperturbed start before any probe: a NaN there is an h fault
    # (exit 3), not a perturbation that no halving brings into the region (exit 64)
    base = cli.builtin_problem("stiefel", n=8, p=3, seed=3)
    bad = replace(base, h=lambda x: np.full(base.dim_h, np.nan))
    monkeypatch.setattr(cli, "builtin_problem", lambda *args, **kwargs: bad)
    out = tmp_path / "r.json"
    assert run_cli(_RESTORE + ["--output-path", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fletcher-penalty: h returned non-finite values") and err.count("\n") == 1
    assert not out.exists()


def test_restore_step_halving_cannot_salvage_exits_three(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(_RESTORE + ["--step", "1e100", "--output-path", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fletcher-penalty: violation energy keeps increasing")
    assert err.count("\n") == 1
    assert not out.exists()


def test_restore_step_that_overflows_exits_three(tmp_path, capsys):
    # a NaN violation energy must not pass as a decrease (NaN > phi is False):
    # no phi_end=nan, no NaN tokens in the JSON, no RuntimeWarning lines
    out = tmp_path / "r.json"
    args = ["restore", "--problem", "stiefel", "--perturb", "0.3", "--step", "1e30",
            "--t-end", "1e200", "--output-path", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(args) == 3
    assert capsys.readouterr().err == (
        "fletcher-penalty: violation energy keeps increasing or is not finite; "
        "step could not be salvaged by halving\n")
    assert not out.exists()


_GRID_BASE = {
    "solve": ["--problem", "rayleigh", "--n", "4", "--max-iters", "20"],
    "plateau": ["--problem", "rayleigh", "--n", "4", "--max-iters", "20", "--max-plateaus", "2"],
    "restore": ["--problem", "stiefel", "--n", "3", "--t-end", "0.05", "--step", "0.01",
                "--perturb", "0.2"],
    "check": ["--problem", "stiefel", "--n", "3", "--seeds", "1"],
    "sweep": ["--problem", "rayleigh", "--n", "4", "--max-iters", "20", "--eps-list", "1e-2"],
}
_GRID_SOLVER_FLAGS = ["--" + f.name.replace("_", "-") for f in fields(SolverConfig)]
_GRID_MODE_FLAGS = {
    "solve": _GRID_SOLVER_FLAGS,
    "plateau": [f for f in _GRID_SOLVER_FLAGS if f != "--beta"] + [
        "--gamma", "--beta0", "--lp0", "--max-plateaus"],
    "restore": ["--step", "--t-end", "--perturb"],
    "check": ["--seeds"],
    "sweep": [f for f in _GRID_SOLVER_FLAGS if f not in ("--eps1", "--eps2")] + ["--eps-list"],
}
# flags that size an array, a budget or a loop are not tried at 1e6
_GRID_SIZES = {"--n", "--p", "--max-iters", "--max-backtracks", "--max-plateaus", "--lp0",
               "--seeds", "--t-end"}


@pytest.mark.parametrize("mode, flag", [
    (mode, flag) for mode in _GRID_BASE
    for flag in ["--n", "--p", "--radius", "--seed"] + _GRID_MODE_FLAGS[mode]])
def test_numeric_flag_edges_end_in_an_exit_code(tmp_path, capsys, mode, flag):
    out = str(tmp_path / "out")
    base = _GRID_BASE[mode]
    if flag == "--p":  # only stiefel blocks take p
        base = ["--problem", "stiefel", *base[2:]]
    values = ["nan", "inf", "-inf", "0", "-1"] + ([] if flag in _GRID_SIZES else ["1e6"])
    if flag == "--perturb":  # overflows h at the first trial point
        values.append("1e300")
    for value in values:
        # outside pytest a warning is more stderr lines, so none may be raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([mode, *base, flag, value, "--output-path", out])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 64), (value, code, err)
        assert err.count("\n") == 1, (value, err)
        assert not caught, (value, [str(w.message) for w in caught])


def test_check_without_seeds_exits_64(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run_cli(["check", "--problem", "sphere", "--seeds", "0", "--output-path", str(out)]) == 64
    assert "need at least one seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["restore", "--problem", "stiefel", "--step", "nan"],
    ["restore", "--problem", "stiefel", "--t-end", "nan"],
    ["plateau", "--problem", "stiefel", "--lp0", "nan"],
    ["plateau", "--problem", "stiefel", "--gamma", "inf"],
])
def test_non_finite_run_parameters_exit_64_before_any_output(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    assert run_cli(args + ["--output-path", str(out)]) == 64
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, spec", [
    ("solve", {"problem_id": "sphere", "problem_params": {"n": "abc"}}),
    ("solve", {"problem_id": "sphere", "problem_params": [5]}),
    ("solve", {"problem_id": "sphere", "solver": "fast"}),
    ("solve", {"problem_id": 7}),
    ("solve", {"problem_id": "sphere", "problem_params": {"n": [5]}}),
    ("solve", {"problem_id": "sphere", "problem_params": {"n": 3.5}}),
    ("solve", {"problem_id": "rayleigh", "solver": {"max_iters": 3.9}}),
    ("solve", {"problem_id": "rayleigh", "problem_params": {"diag": 5}}),
    ("sweep", {"problem_id": "sphere", "eps_list": 0.1}),
    ("solve", [{"problem_id": "sphere"}]),
    ("solve", {"problem_params": {"n": 5}}),  # no problem id
    ("solve", {"problem_id": "product:"}),
    ("solve", {"problem_id": "product:sphere,cube"}),
])
def test_malformed_spec_file_exits_64(tmp_path, mode, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    args = [mode, "--spec", str(spec_path), "--output-path", str(tmp_path / "x.csv")]
    assert run_cli(args) == 64


def test_rayleigh_matrix_csv(tmp_path):
    mat = tmp_path / "mat.csv"
    a = np.diag([1.0, 2.0, 3.0])
    np.savetxt(mat, a, delimiter=",")
    out = tmp_path / "m.json"
    code = run_cli(
        [
            "solve", "--problem", "rayleigh", "--matrix", str(mat), "--beta", "10",
            "--eps1", "1e-4", "--seed", "0", "--output-path", str(out),
        ]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["final_x"]) == 3
