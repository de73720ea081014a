"""Solver loop, backtracking procedures, plateau scheme, restoration flow."""

import json
import math
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fletcher_penalty import (
    BacktrackFailureError,
    BetaThresholds,
    CriticalityCertificate,
    DecreaseBelowRoundingError,
    EvaluationError,
    NumericalFailureError,
    SolverConfig,
    StepSizeError,
    audit,
    audit_restore,
    beta_thresholds,
    builtin_problem,
    certify,
    eigen_backtrack,
    evaluate,
    gradient_backtrack,
    gradient_eigenstep,
    linear_cost,
    make_rayleigh_sphere,
    make_sphere,
    make_stiefel,
    penalty_grad,
    penalty_hess,
    plateau,
    random_point_in_region,
    restore_feasibility,
)

from fletcher_penalty import penalty, solver
from fletcher_penalty.cli import main
from fletcher_penalty.linalg import min_eig_above, sym_eig_min
from fletcher_penalty.solver import _two_loop

from conftest import (ALL_BUILTIN_IDS, make_affine_toy, make_rank_crossing_toy, make_saddle_toy,
                      reference_restore, reference_two_loop, replay_plateau_rules)


def diag_rayleigh(n=10, radius=0.5):
    return make_rayleigh_sphere(np.diag(np.arange(1.0, n + 1.0)), radius=radius)


# ---------------------------------------------------------------------------
# backtracking


def test_gradient_backtrack_accepts_first_trial():
    toy = make_affine_toy(seed=0, radius=10.0)[0]
    cfg = SolverConfig(alpha01=0.05)
    x = toy.init_point(0)
    ev = evaluate(toy, x, 1.0)
    alpha, trial, bts = gradient_backtrack(toy, ev, cfg)
    assert alpha == 0.05 and bts == 0
    np.testing.assert_allclose(trial.x, x - 0.05 * ev.grad_g)


def test_gradient_backtrack_keeps_region_near_boundary():
    p = diag_rayleigh()
    # radial point with ||h|| = 0.49; at beta = 1e-2 the searches end within 1e-3 of R,
    # where a region test loosened by 1% would let them out
    x = np.sqrt(1.49) * (np.ones(10) / np.sqrt(10.0))
    assert np.linalg.norm(p.h(x)) <= 0.4900001
    trace = gradient_eigenstep(p, x, SolverConfig(beta=1e-2, max_iters=5))
    assert audit(p, trace.as_dict()) == [] and max(r.h_norm for r in trace.records) > 0.499


def test_a_search_trial_reads_h_once(monkeypatch):
    # each trial's region read goes whole to its evaluation: one read per trial, through
    # either module's name, and one SVD per trial inside the region. From alpha01 = 3 on
    # St(30, 3) the first two trials leave the region and the third fails Armijo at c1 = 0.9.
    reads, svds = [], []
    real_read, real_svd = penalty._read_h, penalty.svd

    def read(*args):
        out = real_read(*args)
        reads.append(out[2])
        return out

    for module in (penalty, solver):
        monkeypatch.setattr(module, "_read_h", read)
    monkeypatch.setattr(penalty, "svd", lambda a: svds.append(1) or real_svd(a))
    p = builtin_problem("stiefel", n=30, p=3, seed=5)
    ev = evaluate(p, p.init_point(5), 3.0)
    reads.clear()
    svds.clear()
    alpha, _, bts = gradient_backtrack(p, ev, SolverConfig(alpha01=3.0, c1=0.9))
    assert (alpha, bts) == (0.375, 3) and reads == [False, False, True, True]
    assert len(svds) == reads.count(True)


def test_errstate_is_entered_per_run_not_per_point(monkeypatch):
    # the library enters np.errstate once per run (gradient_eigenstep's decorator), never
    # per SVD or per point: a 3-iteration solve and a converged one count the same entries
    entries, svds = [], []
    real_enter, real_svd = np.errstate.__enter__, penalty.svd

    def enter(self):
        entries.append(sys._getframe(1).f_globals.get("__name__", ""))
        return real_enter(self)

    monkeypatch.setattr(np.errstate, "__enter__", enter)
    monkeypatch.setattr(penalty, "svd", lambda a: svds.append(1) or real_svd(a))
    p = builtin_problem("stiefel", n=30, p=3, seed=5)
    counts = []
    for max_iters, termination in ((3, "max_iters"), (20000, "converged")):
        entries.clear()
        svds.clear()
        cfg = SolverConfig(eps1=1e-4, beta=3.0, max_iters=max_iters)
        assert gradient_eigenstep(p, p.init_point(5), cfg).termination == termination
        counts.append((sum(name.startswith("fletcher_penalty") for name in entries), len(svds)))
    (short, short_svds), (full, full_svds) = counts
    assert short == full and full_svds > short_svds + 20


def test_fallback_scale_branches():
    # the fallback d = -scale grad g, scale = ||s|| / (alpha01 ||y||) clipped to [kappa, 1];
    # each s.y <= 0 keeps the pair out, so no quasi-Newton d is tried
    prev = SimpleNamespace(x=np.zeros(2), grad_g=np.array([1.0, 0.0]))

    def scale(grad, alpha01=1.0, last=prev):
        ev = SimpleNamespace(x=np.array([0.5, 0.0]), grad_g=np.array(grad), grad_norm=np.linalg.norm(grad))
        pairs = []
        d, slope, d_norm = solver._gradient_step(pairs, last, ev, alpha01)
        out = d_norm / ev.grad_norm
        assert not pairs and np.array_equal(d, -out * ev.grad_g)
        assert (slope, d_norm) == (out * ev.grad_norm**2, out * ev.grad_norm)
        return out

    # no previous point: the run's first search, or the first after an eigenstep
    assert scale([1.0, 0.0], last=None) == 1.0
    # y = 0: no curvature to read
    assert scale([1.0, 0.0]) == 1.0
    # s = (0.5, 0), y = (-2, 0): ||s|| / ||y|| = 0.25, over alpha01
    assert scale([-1.0, 0.0]) == 0.25
    assert scale([-1.0, 0.0], alpha01=0.5) == 0.5
    # s.y == 0 still gives ||s|| / ||y||: the rule needs no sign condition
    assert scale([1.0, 2.5]) == 0.2
    # a nearly constant gradient is clipped to 1, a fast-changing one to kappa
    assert scale([1.0, 1e-9]) == 1.0
    assert scale([-1e5, 0.0]) == solver.DESCENT_KAPPA


def _searched_from_the_configured_starts(records, cfg):
    # every search starts once, at alpha01 (gradient) or alpha02 (eigen)
    starts = {"gradient": (cfg.alpha01, cfg.tau1), "eigen": (cfg.alpha02, cfg.tau2)}
    for r in records:
        if r.kind in starts:
            alpha0, tau = starts[r.kind]
            assert r.step_len == alpha0 * tau**r.backtracks


@pytest.mark.parametrize("driver", ["solve", "plateau"])
def test_gradient_search_starts_at_the_spectral_step(driver, monkeypatch, tmp_path):
    # an exact replay of every gradient search's direction. prev is the point of the last
    # search when the last step was a gradient step of the same loop (else None); the
    # pair (x - prev.x, grad g - prev.grad g) enters the last LBFGS_PAIRS pairs when its
    # curvature passes. With a pair and a d = _two_loop(pairs, grad g) that passes both
    # safeguards, the search takes d; otherwise -scale grad g, whose first trial alpha01
    # scale is the spectral step. Each loop (a plateau stage, whose k restarts at 0) and
    # each eigenstep starts anew.
    calls = []
    real = solver.gradient_backtrack

    def spy(problem, ev, cfg, d=None):
        out = real(problem, ev, cfg, d)
        calls.append((ev, d, out[0]))
        return out

    monkeypatch.setattr(solver, "gradient_backtrack", spy)
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    # 0.01 off the saddle e_5 along e_2, the first steps follow negative curvature, where
    # s.y < 0 keeps a pair out and the fallback reads a spectral scale
    x0 = np.eye(12)[5] + 0.01 * np.eye(12)[2]
    if driver == "solve":
        traces = [gradient_eigenstep(diag_rayleigh(n=12), x0, cfg)]
    else:
        # a fifth of the curvature: spectral scales of at least 1, clipped to it
        p = make_rayleigh_sphere(0.2 * np.diag(np.arange(1.0, 13.0)), radius=0.5)
        stiefel = builtin_problem("stiefel", n=8, p=2, seed=1)
        traces = [plateau(p, x0, cfg._replace(beta=1e-2), lp0=50),
                  plateau(stiefel, stiefel.init_point(1), cfg._replace(eps2=1e-3, beta=1e-3), lp0=50)]
    starts = dict.fromkeys(["quasi_newton", "spectral", "clipped", "unsigned"], 0)
    pending = iter(calls)
    for trace in traces:
        assert trace.termination == "converged"
        _searched_from_the_configured_starts(trace.records, cfg)
        for r in trace.records:
            if r.k == 0 or r.kind == "eigen":
                prev, pairs = None, []
            if r.kind != "gradient":
                continue
            ev, d, alpha = next(pending)
            assert (ev.g_val, alpha) == (r.g_before, r.step_len)
            scale = 1.0
            if prev is not None:
                s, y = ev.x - prev.x, ev.grad_g - prev.grad_g
                if s @ y > solver.PAIR_CURVATURE * np.linalg.norm(s) * np.linalg.norm(y):
                    pairs = (pairs + [(s, y, float(s @ y), float(y @ y))])[-solver.LBFGS_PAIRS:]
                if np.any(y != 0.0):
                    scale = min(1.0, max(solver.DESCENT_KAPPA,
                                         np.linalg.norm(s) / (cfg.alpha01 * np.linalg.norm(y))))
            qn = _two_loop(pairs, ev.grad_g) if pairs else None
            if qn is not None and (-float(ev.grad_g @ qn) >= solver.DESCENT_KAPPA * ev.grad_norm**2
                                   and np.linalg.norm(qn) <= solver.DIRECTION_BOUND * ev.grad_norm):
                assert np.array_equal(d, qn)
                assert (r.slope, r.d_norm) == (-float(ev.grad_g @ qn), np.linalg.norm(qn))
                starts["quasi_newton"] += 1
            else:
                assert np.array_equal(d, -scale * ev.grad_g)
                assert (r.slope, r.d_norm) == (scale * ev.grad_norm**2, scale * ev.grad_norm)
                if prev is not None and np.any(y != 0.0):
                    starts["spectral"] += scale < 1.0
                    starts["clipped"] += scale == 1.0
                    # a scale read across s.y <= 0, where s.s / s.y has no meaning
                    starts["unsigned"] += float(s @ y) <= 0.0
            prev = ev
    assert next(pending, None) is None
    assert starts["quasi_newton"] and starts["spectral"] and starts["unsigned"]
    if driver == "plateau":
        assert starts["clipped"] and all(len(t.plateaus) > 1 for t in traces)
        assert all([r.k for r in t.records].count(0) >= len(t.plateaus) for t in traces)
        # the command line writes the records of the Stiefel run, so the replay covers it too
        out = tmp_path / "p.json"
        assert main(["plateau", "--problem", "stiefel", "--n", "8", "--p", "2", "--seed", "1",
                     "--eps1", "1e-5", "--eps2", "1e-3", "--beta0", "1e-3", "--lp0", "50",
                     "--output-path", str(out)]) == 0
        assert json.loads(out.read_text())["records"] == [r.as_dict() for r in traces[1].records]
    else:
        assert "gradient eigen gradient" in " ".join(r.kind for r in traces[0].records)


@pytest.mark.parametrize("count", [1, 3, 5])
def test_two_loop_matches_the_dense_bfgs_inverse_update(count):
    # on a strictly convex quadratic (y = A s), the recursion is the BFGS update of
    # H0 = (s.y / y.y) I of the newest pair, applied to the pairs oldest first
    rng = np.random.default_rng(count)
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    a = q @ np.diag(np.linspace(0.5, 20.0, 8)) @ q.T
    pairs = []
    for s in rng.standard_normal((count, 8)):
        y = a @ s
        pairs.append((s, y, float(s @ a @ s), float(y @ y)))
    s, y, sy, _ = pairs[-1]
    h = sy / float(y @ y) * np.eye(8)
    for s, y, sy, _ in pairs:
        v = np.eye(8) - np.outer(y, s) / sy
        h = v.T @ h @ v + np.outer(s, s) / sy
    grad = rng.standard_normal(8)
    d = _two_loop(pairs, grad)
    np.testing.assert_allclose(d, -h @ grad, rtol=1e-12, atol=1e-12 * np.linalg.norm(h @ grad))


@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_two_loop_is_the_numpy_scalar_recursion_bit_for_bit(count, scale):
    # float scalars and the kept y.y give the bytes of NumPy scalars and a y.y formed anew
    rng = np.random.default_rng(count)
    a = np.diag(np.linspace(0.5, 20.0, 8)) + 0.1 * rng.standard_normal((8, 8))
    pairs = []
    for s in scale * rng.standard_normal((count, 8)):
        y = a @ s
        pairs.append((s, y, float(s.dot(y)), float(y.dot(y))))
    grad = scale * rng.standard_normal(8)
    assert all(pair[2] > 0.0 for pair in pairs)
    assert _two_loop(pairs, grad).tobytes() == reference_two_loop(pairs, grad).tobytes()


def test_two_loop_reads_a_vanishing_y_y_as_numpy_does():
    # y.y underflows to 0 while s.y > 0: H0 = (s.y / 0) I is inf I, as NumPy's division gives
    s, y = np.array([1e170, 0.0]), np.array([1e-170, 0.0])
    pairs = [(s, y, float(s.dot(y)), float(y.dot(y)))]
    assert pairs[0][2] > 0.0 and pairs[0][3] == 0.0
    grad = np.array([1.0, 1.0])
    with np.errstate(all="ignore"):
        want = reference_two_loop(pairs, grad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):  # gradient_eigenstep's setting
            got = _two_loop(pairs, grad)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("direction, taken", [
    (lambda grad: -2.0 * grad, True),  # gradient-related: searched from alpha01
    (lambda grad: -0.5e-4 * grad, False),  # slope = 0.5 kappa ||grad g||^2
    (lambda grad: grad, False),  # an ascent direction
    (lambda grad: -2e4 * grad, False),  # ||d|| = 2 M ||grad g||
    (lambda grad: np.full_like(grad, math.nan), False),
], ids=["related", "shallow", "ascent", "long", "nan"])
def test_a_direction_failing_a_safeguard_falls_back_to_the_gradient(direction, taken, monkeypatch):
    calls, searches = [], []
    real = solver.gradient_backtrack

    def spy(problem, ev, cfg, d=None):
        searches.append((ev, d))
        return real(problem, ev, cfg, d)

    monkeypatch.setattr(solver, "_two_loop", lambda pairs, grad: calls.append(1) or direction(grad))
    monkeypatch.setattr(solver, "gradient_backtrack", spy)
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-4, beta=10.0, max_iters=8)
    trace = gradient_eigenstep(p, p.init_point(1), cfg)
    assert len(calls) == len(searches) - 1 > 0  # every search after the first has a pair
    for (prev, _), (ev, d), r in zip(searches, searches[1:], trace.records[1:]):
        if taken:
            assert np.array_equal(d, direction(ev.grad_g))
        else:
            ratio = np.linalg.norm(ev.x - prev.x) / np.linalg.norm(ev.grad_g - prev.grad_g)
            scale = min(1.0, max(solver.DESCENT_KAPPA, ratio))
            assert np.array_equal(d, -scale * ev.grad_g)
            assert (r.slope, r.d_norm) == (scale * ev.grad_norm**2, scale * ev.grad_norm)
    _searched_from_the_configured_starts(trace.records, cfg)
    assert audit(p, trace.as_dict()) == []


@pytest.mark.parametrize("seed", [0, 3, 7919])
def test_grown_gradient_steps_keep_the_guarantees(seed):
    # spectral starts reach alpha01 on St(30, 3); every accepted gradient step, long
    # ones included, stays at most alpha01 and keeps the guarantees, and beta ends above
    # the thresholds, so that the runtime check of the first-order bounds applies
    p = builtin_problem("stiefel", n=30, p=3, seed=seed)
    cfg = SolverConfig(eps1=1e-4, beta=3.0)
    trace = gradient_eigenstep(p, p.init_point(seed), cfg)
    assert trace.termination == "converged"
    assert all(r.step_len <= cfg.alpha01 for r in trace.records if r.kind == "gradient")
    assert audit(p, trace.as_dict()) == []
    th = beta_thresholds(p, evaluate(p, trace.final_x, cfg.beta))
    assert cfg.beta > max(th.beta2, th.beta3)


def test_spectral_start_keeps_stiefel_solves_short():
    # St(30, 3), eps1 = 1e-4, beta = 3: the spectral start takes a median of about
    # 66 iterations here, where holding or doubling the last step took about 175
    cfg = SolverConfig(eps1=1e-4, beta=3.0)
    iters = []
    for seed in range(6):
        p = builtin_problem("stiefel", n=30, p=3, seed=seed)
        trace = gradient_eigenstep(p, p.init_point(seed), cfg)
        assert trace.termination == "converged"
        iters.append(trace.iteration_counts()[0])
    assert np.median(iters) <= 100


def test_first_order_bounds_are_checked_only_above_the_thresholds():
    # at beta <= max(beta2, beta3) the certificate's bounds need not hold, so a measure
    # past them is not checked, and a failing certificate makes the run beta_too_small;
    # above, a measure past them raises
    p = diag_rayleigh()
    ev = evaluate(p, p.init_point(0), 1.0)
    th = beta_thresholds(p, ev)
    broken = SimpleNamespace(eps0_measured=1.0, eps1_measured=1.0, focp_pass=False)
    passing = SimpleNamespace(eps0_measured=0.0, eps1_measured=0.0, focp_pass=True)
    low = max(th.beta2, th.beta3)

    def termination(cert, beta):
        return solver._assert_first_order_bounds(p, ev, cert, SolverConfig(beta=beta))

    assert termination(broken, low) == "beta_too_small"
    assert termination(passing, low) == termination(passing, 2.0 * low) == "converged"
    with pytest.raises(NumericalFailureError, match="^first-order certificate bounds violated"):
        termination(broken, 2.0 * low)


def test_a_run_too_small_in_beta_for_its_certificate_ends_as_beta_too_small():
    # St(8, 2) with ten times the built-in cost: at beta = 3 the run meets eps1 where beta
    # is below the thresholds and ||h|| = 0.263, so its certificate fails and it has not
    # converged
    p = make_stiefel(8, 2, linear_cost(10.0 * np.random.default_rng(0).standard_normal(16)))
    cfg = SolverConfig(eps1=1e-4, beta=3.0)
    trace = gradient_eigenstep(p, p.init_point(0), cfg)
    assert trace.termination == "beta_too_small"
    assert trace.records[-1].grad_norm <= cfg.eps1
    cert = trace.final_certificate
    assert not cert.focp_pass and cert.eps0_measured == pytest.approx(0.263, abs=1e-3)
    th = beta_thresholds(p, evaluate(p, trace.final_x, cfg.beta))
    assert cfg.beta <= max(th.beta2, th.beta3)


def test_a_curvature_tie_at_minus_eps2_converges():
    # at the saddle e_0 of diag(1, 1 - eps2, 2) the penalty Hessian is diagonal with its
    # smallest eigenvalue exactly -eps2: the Cholesky test of H + eps2 I fails on a zero
    # pivot, and the eigenvalue, not below -eps2, ends the run as converged
    eps2 = 2.0**-10
    p = make_rayleigh_sphere(np.diag([1.0, 1.0 - eps2, 2.0]))
    x0 = np.eye(3)[0]
    hess = penalty_hess(p, evaluate(p, x0, 10.0), 10.0)
    assert not min_eig_above(hess, -eps2) and sym_eig_min(hess)[0] == -eps2
    trace = gradient_eigenstep(p, x0, SolverConfig(eps1=1e-5, eps2=eps2, beta=10.0))
    assert trace.termination == "converged" and [r.kind for r in trace.records] == ["terminal"]


def test_a_non_finite_penalty_hessian_is_named_before_the_convergence_test(monkeypatch):
    # penalty_hess scans the matrix it formed, once; min_eig_above takes it as scanned and
    # never sees a NaN (here hess_h is NaN only for the identity product, finite elsewhere)
    p = builtin_problem("rayleigh", n=10)
    eye = np.eye(10)

    def hess_h(x, w, v):
        out = p.hess_h(x, w, v)
        return np.full_like(out, np.nan) if np.array_equal(v, eye) else out

    def called(*args):
        raise AssertionError("min_eig_above called")

    monkeypatch.setattr(solver, "min_eig_above", called)
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    with pytest.raises(EvaluationError, match="^hess_h returned non-finite"):
        gradient_eigenstep(replace(p, hess_h=hess_h), eye[3], cfg)


def test_eigen_backtrack_accepts_small_initial_step():
    toy = make_saddle_toy()
    cfg = SolverConfig(alpha02=0.1, c2=0.4)
    x = np.zeros(3)
    d = np.array([1.0, 0.0, 0.0])
    alpha, trial, bts = eigen_backtrack(toy, evaluate(toy, x, 1.0, with_grad=False), d, -1.0, cfg)
    assert alpha == 0.1 and bts == 0
    np.testing.assert_allclose(trial.x, 0.1 * d)


# (clause, kind of the record broken, key, its broken value from the record and config)
_BROKEN_RECORDS = [
    ("region", "gradient", "h_norm", lambda r, c: 0.5 * (1.0 + 1e-11)),
    ("armijo", "gradient", "g_after",
     lambda r, c: r["g_before"] - 0.5 * c["c1"] * r["step_len"] * r["slope"]),
    ("gradient_related", "gradient", "slope",
     lambda r, c: solver.DESCENT_KAPPA * r["grad_norm"]**2 * (1.0 - 1e-11)),
    ("gradient_related", "gradient", "d_norm",
     lambda r, c: solver.DIRECTION_BOUND * r["grad_norm"] * (1.0 + 1e-11)),
    ("eigen_curvature", "eigen", "curvature", lambda r, c: -c["eps2"] * (1.0 - 1e-11)),
    ("eigen_grad_norm", "eigen", "grad_norm", lambda r, c: c["eps1"] * (1.0 + 1e-11)),
    ("eigen_decrease", "eigen", "g_after",
     lambda r, c: r["g_before"] + 0.5 * c["c2"] * r["step_len"]**2 * r["curvature"]),
    ("converged_grad_norm", "terminal", "grad_norm", lambda r, c: c["eps1"] * (1.0 + 1e-11)),
]


def test_eigen_records_obey_direction_contract():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    x0 = np.eye(10)[1]  # saddle of the layered Hessian: eigensteps must fire
    trace = gradient_eigenstep(p, x0, cfg)
    assert any(r.kind == "eigen" for r in trace.records)
    assert audit(p, trace.as_dict()) == []
    assert trace.termination == "converged"
    assert p.f(trace.final_x) <= 0.5 + 1e-3
    # the audit itself: a copy read back from the JSON whose record misses one bound
    # (R = 0.5 here) by 1e-11 of it or more is reported under that clause alone
    for clause, kind, key, broken in _BROKEN_RECORDS:
        copy = json.loads(trace.to_json())
        record = next(r for r in copy["records"] if r["kind"] == kind)
        record[key] = broken(record, copy["config"])
        assert [v.split(": ")[1] for v in audit(p, copy)] == [clause], clause


# ---------------------------------------------------------------------------
# gradient_eigenstep


def test_immediate_return_at_critical_point():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    trace = gradient_eigenstep(p, np.eye(10)[0], cfg)
    assert trace.termination == "converged"
    assert trace.iteration_counts()[0] == 0
    assert trace.records[-1].kind == "terminal"


def test_rayleigh_solve_reaches_global_optimum():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(1), cfg)
    assert trace.termination == "converged"
    # oracle: global optimum value is half the smallest eigenvalue
    target = 0.5 * np.linalg.eigvalsh(np.diag(np.arange(1.0, 11.0)))[0]
    assert p.f(trace.final_x) <= target + 1e-3
    assert audit(p, trace.as_dict()) == []


def test_stiefel_linear_cost_solve():
    p = builtin_problem("stiefel", n=8, p=2, seed=3)
    cfg = SolverConfig(eps1=1e-4, eps2=1e-3, beta=5.0)
    trace = gradient_eigenstep(p, p.init_point(3), cfg)
    assert trace.termination == "converged"
    assert audit(p, trace.as_dict()) == []


def test_converged_trace_invariant():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-4, eps2=math.inf, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(4), cfg)
    assert trace.termination == "converged"
    assert np.linalg.norm(penalty_grad(p, trace.final_x, 10.0)) <= cfg.eps1


def test_first_order_termination_check_fires(monkeypatch):
    # ||h|| ends at 5e-8 here against eps1 / (beta sigma_min) = 5e-7: with sigma_min
    # scaled up 1000 times, ||h|| exceeds its bound and the runtime check raises
    real = solver.beta_thresholds
    monkeypatch.setattr(solver, "beta_thresholds", lambda problem, ev: real(problem, ev)._replace(
        sigma_min=1e3 * real(problem, ev).sigma_min))
    p = diag_rayleigh()
    with pytest.raises(NumericalFailureError, match="first-order certificate bounds violated"):
        gradient_eigenstep(p, p.init_point(3), SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0))


def test_first_order_gradient_bound_is_read_as_stated(monkeypatch):
    # bound_g = (1 + c_lambda / (beta sigma_min)) eps1 = (1 + 4 / (4 * 2)) * 0.25 = 0.375, and
    # each mutated operator moves it: 1 - 0.5 gives 0.125, c_lambda * (beta sigma_min) 8.25,
    # c_lambda / (beta / sigma_min) 0.75 and a division by eps1 6.0
    th = BetaThresholds(beta1=1.0, beta2=2.0, beta3=0.5, b_max=2.0, c_lambda=4.0,
                        sigma_min=2.0, sigma_max=2.0)
    monkeypatch.setattr(solver, "beta_thresholds", lambda problem, ev: th)
    cfg = SolverConfig(eps1=0.25, beta=4.0)

    def check(grad_m):
        cert = CriticalityCertificate(eps0_measured=0.0, eps1_measured=grad_m, eps2_measured=None,
                                      targets=(0.25, 0.5, math.inf), focp_pass=True,
                                      socp_pass=True)
        solver._assert_first_order_bounds(None, None, cert, cfg)

    check(0.35)
    check(0.375)  # a tie passes
    with pytest.raises(NumericalFailureError, match=r"\|\|grad_M f\|\|: 0.4 > 0.375$"):
        check(0.4)


def test_budget_sanity_from_trace():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-4, eps2=math.inf, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(6), cfg)
    steps = [r for r in trace.records if r.kind != "terminal"]
    total_decrease = sum(r.g_before - r.g_after for r in steps)
    g0 = steps[0].g_before
    g_min = min(r.g_after for r in steps)
    assert total_decrease <= g0 - g_min + 1e-10
    assert audit(p, trace.as_dict()) == []


def test_solver_determinism():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    t1 = gradient_eigenstep(p, p.init_point(1), cfg)
    t2 = gradient_eigenstep(p, p.init_point(1), cfg)
    assert t1.to_json() == t2.to_json()


def test_rejects_eps1_above_half_radius():
    p = diag_rayleigh()
    with pytest.raises(ValueError):
        gradient_eigenstep(p, p.init_point(0), SolverConfig(eps1=0.26, beta=1.0))


def test_rejects_infeasible_start():
    w = np.zeros(5)
    w[0] = 1.0
    p = make_sphere(5, w)
    with pytest.raises(ValueError):
        gradient_eigenstep(p, 1.5 * w, SolverConfig())


def test_config_defaults_are_the_documented_ones():
    # README lists them; beta is also the first plateau's beta
    assert SolverConfig()._asdict() == {
        "eps1": 1e-5, "eps2": math.inf, "beta": 1.0, "c1": 1e-4, "c2": 0.4, "tau1": 0.5,
        "tau2": 0.5, "alpha01": 1.0, "alpha02": 1.0, "max_iters": 20000, "max_backtracks": 60}


def test_config_is_an_immutable_named_tuple_with_typed_fields():
    # the CLI's solver flags are its fields, in order, each parsed by its annotation
    assert list(SolverConfig.__annotations__.items()) == [
        (name, float) for name in ("eps1", "eps2", "beta", "c1", "c2", "tau1", "tau2",
                                   "alpha01", "alpha02")] + [("max_iters", int), ("max_backtracks", int)]
    assert list(SolverConfig._fields) == list(SolverConfig.__annotations__)
    cfg = SolverConfig(1e-4, 1e-3)  # positional, like any tuple
    assert cfg == (1e-4, 1e-3) + SolverConfig()[2:] and cfg._replace(eps2=math.inf)[1] == math.inf
    with pytest.raises(AttributeError):
        cfg.eps1 = 1.0
    # eps2 = inf is written as null, in the field order
    assert json.dumps(SolverConfig().as_dict()) == (
        '{"eps1": 1e-05, "eps2": null, "beta": 1.0, "c1": 0.0001, "c2": 0.4, "tau1": 0.5, '
        '"tau2": 0.5, "alpha01": 1.0, "alpha02": 1.0, "max_iters": 20000, "max_backtracks": 60}')


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(c2=0.5).validate()
    with pytest.raises(ValueError):
        SolverConfig(c1=1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(tau1=0.0).validate()
    SolverConfig().validate()


@pytest.mark.parametrize("name", ["alpha01", "alpha02"])
def test_config_rejects_a_zero_initial_step(name):
    with pytest.raises(ValueError, match="initial step sizes must be positive"):
        SolverConfig(**{name: 0.0}).validate()
    SolverConfig(**{name: 5e-324}).validate()


def test_plateau_rejects_a_zero_beta0():
    # the first plateau's beta is cfg.beta, which the config's validation refuses at 0
    p = diag_rayleigh()
    with pytest.raises(ValueError, match="beta must be positive"):
        plateau(p, p.init_point(0), SolverConfig(eps1=1e-4, beta=0.0))


def test_eps1_at_half_the_radius_is_accepted():
    # eps1 <= R/2 holds at equality: a run starts (and stops at its budget of no steps)
    p = diag_rayleigh()
    radius = p.region.radius
    trace = gradient_eigenstep(p, p.init_point(0), SolverConfig(eps1=radius / 2.0, max_iters=0))
    assert trace.config.eps1 == radius / 2.0 and trace.termination in ("converged", "max_iters")
    with pytest.raises(ValueError, match="eps1 <= R/2"):
        gradient_eigenstep(p, p.init_point(0), SolverConfig(eps1=math.nextafter(radius / 2.0, 1.0)))


@pytest.mark.parametrize(
    "name",
    ["beta", "c1", "c2", "tau1", "tau2", "alpha01", "alpha02", "max_iters", "max_backtracks"],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**{name: value}).validate()


def test_config_allows_infinite_eps2():
    SolverConfig(eps2=math.inf).validate()
    with pytest.raises(ValueError):
        SolverConfig(eps2=math.nan).validate()


def test_solve_takes_thin_svds_and_two_hess_h_per_gradient(monkeypatch):
    # St(8, 2): m = 3 constraints, n = 16 coordinates
    from fletcher_penalty import penalty, solver

    base = builtin_problem("stiefel", n=8, p=2, seed=3)
    hess_h_points = []

    def counted_hess_h(x, w, v):
        hess_h_points.append(x.tobytes())
        return base.hess_h(x, w, v)

    p = replace(base, hess_h=counted_hess_h)
    real_svd, real_evaluate, real_hess = penalty.svd, penalty.evaluate, solver.penalty_hess
    vt_shapes, per_gradient, per_hessian = [], [], []

    def spy_svd(a):
        res = real_svd(a)
        vt_shapes.append(res.vt.shape)
        return res

    def spy_evaluate(problem, x, beta, with_grad=True, **kwargs):
        before = len(hess_h_points)
        ev = real_evaluate(problem, x, beta, with_grad, **kwargs)
        if with_grad:
            per_gradient.append(len(hess_h_points) - before)
        return ev

    def spy_hess(problem, ev, beta):
        before = len(hess_h_points), len(vt_shapes)
        out = real_hess(problem, ev, beta)  # the solver's penalty_hess returns (hess, M)
        per_hessian.append((len(hess_h_points) - before[0], len(vt_shapes) - before[1]))
        return out

    monkeypatch.setattr(penalty, "svd", spy_svd)
    monkeypatch.setattr(penalty, "evaluate", spy_evaluate)
    monkeypatch.setattr(solver, "evaluate", spy_evaluate)
    monkeypatch.setattr(solver, "penalty_hess", spy_hess)
    trace = gradient_eigenstep(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3, beta=5.0))
    assert trace.termination == "converged"
    # every factorization is one point's thin (3, 16) SVD; each penalty
    # Hessian reads its iterate's and adds m + 2 = 5 hess_h products
    assert vt_shapes and set(vt_shapes) == {(3, 16)}
    assert len(per_gradient) > trace.iteration_counts()[0]
    assert max(per_gradient) <= 2
    assert per_hessian and set(per_hessian) == {(5, 0)}


def test_each_search_trial_evaluates_h_once():
    # St(8, 2), first order: h runs twice at x0 (the region check and the
    # evaluation) and once per search trial, whose evaluation takes the h of
    # its region test
    base = builtin_problem("stiefel", n=8, p=2, seed=3)
    calls = []

    def counted_h(x):
        calls.append(1)
        return base.h(x)

    p = replace(base, h=counted_h)
    trace = gradient_eigenstep(p, p.init_point(3), SolverConfig(eps1=1e-4, beta=5.0))
    assert trace.termination == "converged"
    assert any(r.backtracks for r in trace.records)
    trials = sum(r.backtracks + 1 for r in trace.records if r.kind != "terminal")
    assert len(calls) == 2 + trials


def test_max_iters_termination():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-9, eps2=math.inf, beta=10.0, max_iters=3)
    trace = gradient_eigenstep(p, p.init_point(0), cfg)
    assert trace.termination == "max_iters"
    assert trace.iteration_counts()[0] == 3


def test_backtrack_exhaustion_maps_to_beta_too_small():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, beta=10.0, alpha01=1e6, max_backtracks=0)
    trace = gradient_eigenstep(p, p.init_point(0), cfg)
    assert trace.termination == "beta_too_small"


def test_unreachable_tolerance_ends_as_tolerance_unreachable():
    # eps1 = 1e-300: the run stalls at ||grad g|| ~ 2e-8, where even a step of alpha01
    # had to decrease g = 0.5 by c1 ||grad g||^2 ~ 3e-20, far below the rounding of g
    p = builtin_problem("rayleigh", n=10)
    cfg = SolverConfig(eps1=1e-300)
    trace = gradient_eigenstep(p, p.init_point(0), cfg)
    assert trace.termination == "tolerance_unreachable"
    ev = evaluate(p, trace.final_x, cfg.beta)
    assert ev.x is trace.final_x and ev.grad_norm > cfg.eps1
    assert cfg.c1 * cfg.alpha01 * ev.grad_norm**2 <= 4.0 * math.ulp(ev.g_val)
    assert issubclass(DecreaseBelowRoundingError, BacktrackFailureError)
    # the same search with a measurable decrease still fails as a backtrack failure
    with pytest.raises(DecreaseBelowRoundingError):
        gradient_backtrack(p, ev, cfg._replace(max_backtracks=0, alpha01=1e-300))
    with pytest.raises(BacktrackFailureError) as exc:
        gradient_backtrack(p, ev, cfg._replace(max_backtracks=0, alpha01=1e30))
    assert type(exc.value) is BacktrackFailureError


@pytest.mark.parametrize("evaluator", ["f", "hess_h"])
def test_non_finite_evaluator_output_raises_evaluation_error(evaluator):
    # a NaN must not read as convergence (hess_h) or as beta_too_small (f)
    p = diag_rayleigh()
    nan = {"f": lambda x: math.nan, "hess_h": lambda x, w, v: np.full(np.shape(v), math.nan)}
    bad = replace(p, **{evaluator: nan[evaluator]})
    with pytest.raises(EvaluationError, match="^%s returned (a )?non-finite" % evaluator):
        gradient_eigenstep(bad, p.init_point(0), SolverConfig(eps1=1e-5, beta=10.0))


@pytest.mark.parametrize("evaluator", ["grad_f", "hess_f", "hess_h"])
def test_an_inf_from_an_evaluator_raises_with_no_runtime_warning(evaluator):
    # gradient_eigenstep and plateau, not only the command line, keep NumPy's overflow and
    # invalid-value warnings from reaching the caller before the EvaluationError
    p = diag_rayleigh()
    inf = {"grad_f": lambda x: np.full(10, math.inf),
           "hess_f": lambda x, v: np.full(np.shape(v), math.inf),
           "hess_h": lambda x, w, v: np.full(np.shape(v), math.inf)}
    bad = replace(p, **{evaluator: inf[evaluator]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="^%s returned non-finite" % evaluator):
            gradient_eigenstep(bad, p.init_point(0), SolverConfig(beta=10.0))
        with pytest.raises(EvaluationError, match="^%s returned non-finite" % evaluator):
            plateau(bad, p.init_point(0), SolverConfig(beta=1e-3))


def _nan_h_off(p, x0):
    """p with an h that returns NaN everywhere except at x0."""
    return replace(p, h=lambda x: p.h(x) if np.array_equal(x, x0) else np.full(p.dim_h, math.nan))


def test_nan_h_at_a_trial_raises_evaluation_error():
    # a NaN from h at a search trial is an h fault, not a trial outside the region
    # (which would end the run as beta_too_small)
    p = diag_rayleigh()
    x0 = p.init_point(0)
    with pytest.raises(EvaluationError, match="^h returned non-finite values"):
        gradient_eigenstep(_nan_h_off(p, x0), x0, SolverConfig(beta=10.0))


def test_nan_h_at_a_trial_ends_the_plateau_scheme():
    # not a backtrack_failure that raises beta stage after stage
    p = diag_rayleigh()
    x0 = p.init_point(0)
    with pytest.raises(EvaluationError, match="^h returned non-finite values"):
        plateau(_nan_h_off(p, x0), x0, SolverConfig(), lp0=10, max_plateaus=5)


def test_restoration_from_a_nan_h_point_raises_evaluation_error():
    # the start-point check names h, instead of calling x0 outside the region
    p = diag_rayleigh()
    with pytest.raises(EvaluationError, match="^h returned non-finite values"):
        restore_feasibility(_nan_h_off(p, p.init_point(0)), p.init_point(1), 1e-3, 1.0)


def test_rank_deficiency_terminates_cleanly():
    toy = make_rank_crossing_toy()
    cfg = SolverConfig(eps1=1e-6, eps2=math.inf, beta=1.0)
    trace = gradient_eigenstep(toy, toy.init_point(0), cfg)
    assert trace.termination == "rank_deficient"
    assert np.all(np.isfinite(trace.final_x))


# ---------------------------------------------------------------------------
# plateau scheme


def test_plateau_degenerate_matches_plain_solve():
    # cfg.beta, the first plateau's, stays above B(x) along the whole run (max observed B is ~1.01)
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-4, eps2=1e-4, beta=20.0)
    solo = gradient_eigenstep(p, p.init_point(1), cfg)
    combo = plateau(p, p.init_point(1), cfg, gamma=2.0, lp0=1e9)
    assert len(combo.plateaus) == 1
    assert combo.plateaus[0].stop_reason == "converged"
    assert [r.as_dict() for r in combo.records] == [r.as_dict() for r in solo.records]
    np.testing.assert_array_equal(combo.final_x, solo.final_x)


def test_plateau_estimates_beta_from_tiny_start():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=1e-3)
    trace = plateau(p, p.init_point(1), cfg, gamma=2.0, lp0=50)
    assert trace.termination == "converged"
    assert trace.final_certificate.focp_pass
    assert math.isfinite(trace.plateaus[-1].beta)


def test_plateau_budget_growth_replay():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-3, eps2=1e-4, beta=20.0)
    gamma = 2.0
    trace = plateau(p, p.init_point(1), cfg, gamma=gamma, lp0=5)
    stages = trace.plateaus
    assert len(stages) >= 2
    assert all(s.stop_reason == "budget" for s in stages[:-1])
    assert replay_plateau_rules(stages, gamma)


def test_plateau_b_trigger_replay():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=1e-3)
    gamma = 2.0
    trace = plateau(p, p.init_point(1), cfg, gamma=gamma, lp0=50)
    stages = trace.plateaus
    assert replay_plateau_rules(stages, gamma)
    assert any(s.stop_reason == "b_trigger" for s in stages)


@pytest.mark.parametrize("kwargs, what", [
    ({"lp0": math.nan}, "lp0"),
    ({"beta": math.nan}, "beta must be finite"),  # the config's: plateau starts at cfg.beta
    ({"gamma": math.inf}, "gamma"),
    ({"gamma": math.nan}, "gamma"),
    ({"max_plateaus": -1}, "max_plateaus"),
])
def test_plateau_rejects_non_finite_parameters(kwargs, what):
    p, kwargs = diag_rayleigh(), dict(kwargs)
    cfg = SolverConfig(eps1=1e-4, beta=kwargs.pop("beta", 1.0))
    with pytest.raises(ValueError, match=what):
        plateau(p, p.init_point(0), cfg, **kwargs)


def test_plateau_starts_at_the_config_beta_as_the_command_line_does(tmp_path):
    # --beta0 sets cfg.beta, the first plateau's beta: both write the same trace
    p = builtin_problem("stiefel", seed=3)
    trace = plateau(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3), lp0=50)
    assert trace.plateaus[0].beta == 1e-3
    out = tmp_path / "p.json"
    assert main(["plateau", "--problem", "stiefel", "--seed", "3", "--eps1", "1e-4", "--eps2",
                 "1e-3", "--beta0", "1e-3", "--lp0", "50", "--output-path", str(out)]) == 0
    assert out.read_bytes() == (trace.to_json() + "\n").encode()


def test_plateau_takes_its_schedule_by_keyword_only():
    # a call in an older order (gamma, beta0, lp0) raises rather than reading 50 as lp0
    p = diag_rayleigh()
    with pytest.raises(TypeError):
        plateau(p, p.init_point(0), SolverConfig(eps1=1e-4), 2.0, 50)


def test_plateau_cap_returns_trace():
    # f pays 1e6 ||x - x0|| that grad_f does not show, so every trial from x0
    # raises the penalty and each search fails with the full trial budget
    p = diag_rayleigh()
    x0 = p.init_point(0)
    p = replace(p, f=lambda x, f=p.f: f(x) + 1e6 * np.linalg.norm(x - x0))
    cfg = SolverConfig(eps1=1e-5, eps2=math.inf, beta=1e9)
    trace = plateau(p, x0, cfg, gamma=2.0, lp0=10, max_plateaus=3)
    assert trace.termination == "max_plateaus"
    assert [s.stop_reason for s in trace.plateaus] == ["backtrack_failure"] * 3
    assert trace.config.beta == trace.plateaus[-1].beta
    assert [r.kind for r in trace.records] == ["terminal"] * 3


def test_plateau_zero_cap_returns_the_start():
    p = diag_rayleigh()
    x0 = p.init_point(0)
    trace = plateau(p, x0, SolverConfig(eps1=1e-5, beta=3.0), max_plateaus=0)
    assert trace.termination == "max_plateaus"
    assert trace.plateaus == [] and trace.records == []
    assert trace.final_certificate is None
    assert trace.config.beta == 3.0
    np.testing.assert_array_equal(trace.final_x, x0)


@pytest.mark.parametrize("driver", ["gradient_eigenstep", "plateau"])
def test_a_second_order_run_certifies_from_its_last_penalty_hessian(monkeypatch, driver):
    # the certificate reads hess f - H(lambda) as the run's last convergence test formed
    # it inside penalty_hess: no kernel basis, no hess_f after that test and no product at
    # all inside certify (the first-order termination check's Dlambda takes m hess_h rows);
    # it equals, bit for bit, the certificate of the bare final point
    from fletcher_penalty import criticality

    events = []

    def logged(name, fn):
        def wrapped(*args, **kwargs):
            events.append(name + "(")
            out = fn(*args, **kwargs)
            events.append(name)
            return out
        return wrapped

    for module, name in [(solver, "penalty_hess"), (solver, "certify"),
                         (criticality, "kernel_basis")]:
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    if driver == "plateau":
        p = builtin_problem("stiefel", n=8, p=2, seed=3)
        cfg = SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3)
        x0 = p.init_point(3)
        run = lambda q: plateau(q, x0, cfg, gamma=2.0, lp0=50)
    else:
        p, cfg = diag_rayleigh(n=30), SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
        x0 = np.eye(30)[5]  # a strict saddle: the run takes eigensteps
        run = lambda q: gradient_eigenstep(q, x0, cfg)
    counted = replace(p, hess_f=logged("hess_f", p.hess_f), hess_h=logged("hess_h", p.hess_h))
    trace = run(counted)
    assert trace.termination == "converged"
    assert driver == "plateau" or any(r.kind == "eigen" for r in trace.records)
    assert "kernel_basis(" not in events
    after = events[len(events) - events[::-1].index("penalty_hess"):]
    assert "hess_f(" not in after and after.count("certify(") == 1
    assert after[after.index("certify(") + 1] == "certify"
    c = trace.config
    bare = certify(p, trace.final_x, c.eps1, 2.0 * c.eps1, c.eps2)
    assert trace.final_certificate == bare and bare.min_eig is not None


def test_plateau_certifies_only_inside_the_solver(monkeypatch):
    # a plateau run evaluates points only inside the solver's loop and
    # certifies once, at its last point, however many plateaus it runs
    from fletcher_penalty import solver

    inside = [False]
    calls = []

    def spy(name):
        real = getattr(solver, name)

        def wrapped(*args, **kwargs):
            calls.append((name, inside[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapped)

    for name in ("evaluate", "penalty_hess", "certify"):
        spy(name)
    real_loop = solver._descend

    def loop(*args, **kwargs):
        inside[0] = True
        try:
            return real_loop(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(solver, "_descend", loop)
    p = builtin_problem("stiefel", n=8, p=2, seed=3)
    trace = plateau(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3),
                    gamma=2.0, lp0=50)
    assert trace.termination == "converged"
    assert len(trace.plateaus) >= 2
    assert [c for c in calls if c[0] == "certify"] == [("certify", False)]
    assert {in_loop for name, in_loop in calls if name != "certify"} == {True}


def test_plateau_evaluates_each_stage_start_once(monkeypatch):
    # each stage starts from the previous stage's last evaluation, re-based at the
    # new beta: every point's Dh and SVD are computed once in the whole run, and a
    # stage boundary costs one f and one hess_h call
    from fletcher_penalty import PenaltyEval, penalty, solver

    calls, jac_points = {}, set()
    base = builtin_problem("stiefel", n=8, p=2, seed=3)

    def counted(name):
        real = getattr(base, name)

        def wrapper(x, *args):
            calls[name] = calls.get(name, 0) + 1
            if name == "jac_h":
                jac_points.add(np.asarray(x).tobytes())
            return real(x, *args)

        return wrapper

    p = replace(base, **{k: counted(k) for k in ("f", "grad_f", "hess_f", "h", "jac_h", "hess_h")})
    svds, thresholds, exact_checks, rebases = [], [], [], []
    real_svd, real_thresholds, real_evaluate = penalty.svd, solver.beta_thresholds, solver.evaluate
    monkeypatch.setattr(penalty, "svd", lambda a: svds.append(a) or real_svd(a))

    def thresholds_spy(*a, below=None):
        th = real_thresholds(*a, below=below)
        if below is None:
            thresholds.append(a)
        elif th is not None:  # a stop check whose bound left the trigger open
            exact_checks.append(th)
        return th

    monkeypatch.setattr(solver, "beta_thresholds", thresholds_spy)

    def evaluate_spy(problem, x, beta, *args, **kwargs):
        if not isinstance(x, PenaltyEval) or x.beta == beta:
            return real_evaluate(problem, x, beta, *args, **kwargs)
        before = dict(calls)
        ev = real_evaluate(problem, x, beta, *args, **kwargs)
        rebases.append({k: n - before.get(k, 0) for k, n in calls.items() if n != before.get(k, 0)})
        return ev

    monkeypatch.setattr(solver, "evaluate", evaluate_spy)
    trace = plateau(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3),
                    gamma=2.0, lp0=50)
    assert trace.termination == "converged" and len(trace.plateaus) >= 2
    assert rebases == [{"f": 1, "hess_h": 1}] * (len(trace.plateaus) - 1)
    # one Dh and one SVD per point; beta_thresholds, and a stop check whose bound
    # cannot rule out a trigger, take one more SVD, of Dlambda
    assert calls["jac_h"] == len(jac_points)
    assert exact_checks
    assert len(svds) == len(jac_points) + len(thresholds) + len(exact_checks)


# St(8, 2) (m = 3) and Rayleigh (m = 1), whose rank-one Dlambda has a Frobenius
# norm equal to its 2-norm: the bound then ties b_max up to rounding
_STOP_CHECK_RUNS = [
    *[pytest.param("stiefel", seed, id="stiefel-%d" % seed) for seed in (1, 3, 5, 8)],
    pytest.param("rayleigh", 1, id="rayleigh-1"),
]


def _stop_check_run(problem_id, seed):
    p = builtin_problem(problem_id, n=8 if problem_id == "stiefel" else 12, seed=seed)
    return p, lambda q: plateau(q, q.init_point(seed), SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3),
                                gamma=2.0, lp0=50)


@pytest.mark.parametrize("problem_id, seed", _STOP_CHECK_RUNS)
def test_plateau_stop_bound_decides_as_the_exact_thresholds(monkeypatch, problem_id, seed):
    # every check the Frobenius bound decides has an exact b_max below beta_l, and
    # the run is the one whose stop check takes the exact thresholds every time
    from fletcher_penalty import solver

    p, run = _stop_check_run(problem_id, seed)
    real_thresholds, ruled_out = solver.beta_thresholds, []

    def check_spy(problem, ev, below=None):
        th = real_thresholds(problem, ev, below=below)
        if below is not None and th is None:
            ruled_out.append((ev, below))
        return th

    monkeypatch.setattr(solver, "beta_thresholds", check_spy)
    trace = run(p)
    assert trace.termination == "converged"
    assert any(s.stop_reason == "b_trigger" for s in trace.plateaus)
    assert ruled_out
    assert all(beta_thresholds(p, ev).b_max < beta for ev, beta in ruled_out)
    monkeypatch.setattr(solver, "beta_thresholds",
                        lambda problem, ev, below=None: real_thresholds(problem, ev))
    assert trace.as_dict() == run(p).as_dict()


@pytest.mark.parametrize("problem_id, seed", _STOP_CHECK_RUNS)
def test_plateau_stop_check_takes_an_svd_only_at_a_trigger(monkeypatch, problem_id, seed):
    # each stop check forms Dlambda with m hess_h products; a check that does not
    # trigger takes no SVD, and a trigger takes one, of that Dlambda
    from fletcher_penalty import dlambda_jacobian, penalty, solver

    base, run = _stop_check_run(problem_id, seed)
    hess_h_calls, svds, checks = [0], [], []

    def hess_h(*a):
        hess_h_calls[0] += 1
        return base.hess_h(*a)

    p = replace(base, hess_h=hess_h)
    real_svd, real_thresholds = penalty.svd, solver.beta_thresholds
    monkeypatch.setattr(penalty, "svd", lambda a: svds.append(a) or real_svd(a))

    def check_spy(problem, ev, below=None):
        calls_before, svds_before = hess_h_calls[0], len(svds)
        th = real_thresholds(problem, ev, below=below)
        if below is not None:  # a stop check, not the final certificate's bounds
            checks.append((ev, below, th, hess_h_calls[0] - calls_before, svds[svds_before:]))
        return th

    monkeypatch.setattr(solver, "beta_thresholds", check_spy)
    trace = run(p)
    triggers = sum(s.stop_reason == "b_trigger" for s in trace.plateaus)
    assert triggers and len(checks) > triggers
    for ev, beta, th, products, taken in checks:
        assert products == p.dim_h
        if th is None:
            assert taken == []
        else:
            assert th.b_max >= beta  # every check the bound leaves open is a trigger here
            assert len(taken) == 1
            np.testing.assert_array_equal(taken[0], dlambda_jacobian(base, ev))
    assert sum(th is not None for _, _, th, _, _ in checks) == triggers


@pytest.mark.parametrize("driver", ["solve", "plateau"])
def test_second_order_run_without_hess_h_fails_before_evaluating(monkeypatch, driver):
    # the certificate needs hess_h; the Problem contract refuses a run without it
    # before the solver evaluates anything
    from fletcher_penalty import solver

    calls = []
    real = solver.evaluate
    monkeypatch.setattr(solver, "evaluate", lambda *a, **k: calls.append(a) or real(*a, **k))
    rayleigh = builtin_problem("rayleigh", n=12)
    cfg = SolverConfig(eps1=1e-4, eps2=1e-3, beta=5.0)
    with pytest.raises(ValueError, match="hess_h"):
        p = replace(rayleigh, hess_h=None)
        if driver == "solve":
            gradient_eigenstep(p, p.init_point(1), cfg)
        else:
            plateau(p, p.init_point(1), cfg)
    assert calls == []


@pytest.mark.parametrize("start", ["saddle", 1, 2])
def test_cholesky_convergence_test_keeps_the_records(monkeypatch, start):
    # the Cholesky test decides as an eigh-based one would, and only an eigenstep
    # computes an eigenvector
    from fletcher_penalty import criticality, solver

    p = diag_rayleigh(n=30)
    x0 = np.eye(30)[5] if start == "saddle" else p.init_point(start)
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    with_vector = []
    for module in (solver, criticality):
        def spy(h, vector=True, real=module.sym_eig_min):
            with_vector.append(vector)
            return real(h, vector)

        monkeypatch.setattr(module, "sym_eig_min", spy)
    shipped = gradient_eigenstep(p, x0, cfg)
    eigen = sum(r.kind == "eigen" for r in shipped.records)
    assert with_vector.count(True) == eigen
    if start == "saddle":
        assert eigen >= 1
    assert audit(p, shipped.as_dict()) == []
    assert shipped.records[-1].kind == "terminal" and shipped.records[-1].curvature is None
    assert shipped.final_certificate.socp_pass
    # an oracle independent of the Cholesky test that ended the run
    final_hess = penalty_hess(p, evaluate(p, shipped.final_x, cfg.beta), cfg.beta)
    assert np.linalg.eigvalsh(final_hess)[0] >= -cfg.eps2
    monkeypatch.setattr(solver, "min_eig_above",
                        lambda h, floor: bool(np.linalg.eigh(h)[0][0] > floor))
    oracle = gradient_eigenstep(p, x0, cfg)
    assert [r.as_dict() for r in shipped.records] == [r.as_dict() for r in oracle.records]
    assert shipped.termination == oracle.termination == "converged"


@pytest.mark.parametrize("case", ["saddle", 1, 2, "stiefel"])
def test_curvature_read_unsymmetrized_matches_the_symmetrizing_route_bit_for_bit(monkeypatch, case):
    # the solver and the certificate read the penalty Hessian and K as they were
    # symmetrized once; an oracle that symmetrizes each again before every read
    # (the public sym_eig_min, and a Cholesky of (H + H^T)/2 - floor I) gives the same bits
    from fletcher_penalty import criticality, linalg

    if case == "stiefel":
        p = builtin_problem("stiefel", n=8, p=2, seed=3)
        x0, cfg = p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3, beta=3.0)
    else:
        p = diag_rayleigh(n=30)
        x0 = np.eye(30)[5] if case == "saddle" else p.init_point(case)
        cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    shipped = gradient_eigenstep(p, x0, cfg)
    assert shipped.final_certificate.min_eig is not None

    def cholesky_above(h, floor):
        try:
            np.linalg.cholesky(0.5 * (h + h.T) - floor * np.eye(len(h)))
        except np.linalg.LinAlgError:
            return False
        return True

    monkeypatch.setattr(solver, "sym_eig_min", linalg.sym_eig_min)
    monkeypatch.setattr(criticality, "sym_eig_min", linalg.sym_eig_min)
    monkeypatch.setattr(solver, "min_eig_above", cholesky_above)
    oracle = gradient_eigenstep(p, x0, cfg)
    assert [r.as_dict() for r in shipped.records] == [r.as_dict() for r in oracle.records]
    assert shipped.final_x.tolist() == oracle.final_x.tolist()
    assert shipped.final_certificate.min_eig == oracle.final_certificate.min_eig


@pytest.mark.parametrize("eps2", [math.inf, 1e-3])
def test_converged_point_takes_one_svd(monkeypatch, eps2):
    # the final point's Dh is factorized once; the certificate reuses that SVD
    from fletcher_penalty import penalty

    seen = []
    real_svd = penalty.svd

    def spy_svd(a):
        seen.append(np.array(a, copy=True))
        return real_svd(a)

    monkeypatch.setattr(penalty, "svd", spy_svd)
    p = builtin_problem("stiefel", n=8, p=2, seed=3)
    trace = gradient_eigenstep(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=eps2, beta=5.0))
    assert trace.termination == "converged"
    jac = p.jac_h(trace.final_x)
    assert sum(1 for a in seen if a.shape == jac.shape and np.array_equal(a, jac)) == 1


def _near_maximizer(p, x0):
    """The end of a first-order solve of -f from x0: near a maximizer of f, eigensteps fire."""
    neg = replace(p, f=lambda x: -p.f(x), grad_f=lambda x: -p.grad_f(x),
                  hess_f=lambda x, v: -p.hess_f(x, v))
    return gradient_eigenstep(neg, x0, SolverConfig(eps1=1e-5, beta=3.0)).final_x


@pytest.mark.parametrize("eps2", [math.inf, 1e-3])
@pytest.mark.parametrize("driver", ["solve", "plateau"])
@pytest.mark.parametrize("problem_id", ALL_BUILTIN_IDS)
def test_trace_invariants_across_builtins(problem_id, driver, eps2):
    # the paper's guarantees checked on the trace (audit) and the certificate;
    # second-order runs start near a maximizer of f, so eigensteps must fire
    rng = np.random.default_rng([7, ALL_BUILTIN_IDS.index(problem_id)])
    cfg = SolverConfig(eps1=1e-4, eps2=eps2, beta=3.0)
    eigensteps = 0
    for _ in range(2):
        seed = int(rng.integers(1000))
        p = builtin_problem(problem_id, n=4, seed=seed)
        x0 = random_point_in_region(p, seed, scale=float(rng.uniform(0.05, 0.5)))
        if math.isfinite(eps2):
            x0 = _near_maximizer(p, x0)
        if driver == "solve":
            trace = gradient_eigenstep(p, x0, cfg)
        else:
            trace = plateau(p, x0, cfg._replace(beta=1e-2), gamma=2.0, lp0=20)
        assert trace.termination == "converged"
        assert trace.final_certificate.focp_pass
        assert audit(p, trace.as_dict()) == []
        eigensteps += trace.iteration_counts()[2]
    assert (eigensteps > 0) == math.isfinite(eps2)


@pytest.mark.parametrize("problem_id", ALL_BUILTIN_IDS)
def test_constraint_mixing_changes_no_record(problem_id):
    # h -> Q h for an orthogonal Q (Dh -> Q Dh, H(w) -> H(Q^T w)) leaves g, its gradient and
    # the region as they are: the same steps, backtracks, terminations and certificate flags
    p = builtin_problem(problem_id, seed=0)
    m = p.dim_h
    q = -np.eye(1) if m == 1 else np.linalg.qr(np.random.default_rng(7919).normal(size=(m, m)))[0]
    mixed = replace(p, h=lambda x: q @ p.h(x), jac_h=lambda x: q @ p.jac_h(x),
                    hess_h=lambda x, w, v: p.hess_h(x, q.T @ w, v))
    cfg = SolverConfig(eps1=1e-4, eps2=1e-3, beta=3.0)
    for seed in (1, 2):  # at one point every measure agrees to rounding
        x = random_point_in_region(p, seed, scale=0.3)
        a, b = evaluate(p, x, cfg.beta), evaluate(mixed, x, cfg.beta)
        for field in ("g_val", "grad_norm", "h_norm"):
            assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-10, abs=0)
    x0 = p.init_point(0)
    # a Stiefel block's maximizer has a multiple smallest curvature, and rounding picks
    # its eigenvector, so only the m = 1 problems start their second-order run there
    top = _near_maximizer(p, x0) if m == 1 else x0
    eigensteps = []
    for run in (lambda pr: gradient_eigenstep(pr, x0, cfg._replace(eps2=math.inf)),
                lambda pr: gradient_eigenstep(pr, top, cfg),
                lambda pr: plateau(pr, x0, cfg._replace(beta=1e-3), lp0=50)):
        a, b = run(p), run(mixed)
        assert b.termination == a.termination == "converged"
        assert [(r.kind, r.backtracks) for r in b.records] == [(r.kind, r.backtracks)
                                                                for r in a.records]
        stages = [[(s.iters, s.stop_reason) for s in t.plateaus or []] for t in (a, b)]
        flags = [(t.final_certificate.focp_pass, t.final_certificate.socp_pass) for t in (a, b)]
        assert stages[0] == stages[1] and flags[0] == flags[1]
        # the iterates part by rounding that the steps amplify: g agrees record by record,
        # and the norms, which end small, to rounding of their largest value in the run
        for field in ("g_after", "grad_norm", "h_norm"):
            va, vb = (np.array([getattr(r, field) for r in t.records]) for t in (a, b))
            scale = np.abs(va) if field == "g_after" else np.abs(va).max()
            assert np.all(np.abs(vb - va) <= 1e-10 * scale), field
        eigensteps.append(a.iteration_counts()[2])
    assert eigensteps == [0, eigensteps[1], 0] and (eigensteps[1] > 0) == (m == 1)


# ---------------------------------------------------------------------------
# feasibility restoration


def test_restore_stationary_at_feasible_point():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    x0 = p.init_point(1)
    x, log = restore_feasibility(p, x0, 1e-3, 1.0)
    np.testing.assert_array_equal(x, x0)
    assert len(log) == 1 and log[0][1] <= 1e-16


def test_restore_sphere_closed_form_limit():
    w = np.zeros(4)
    w[0] = 1.0
    p = make_sphere(4, w)
    x0 = 1.2 * w  # ||h|| = 0.44 <= R
    x, log = restore_feasibility(p, x0, 1e-3, 5.0)
    # the stop threshold phi <= 1e-16 pins ||h|| to sqrt(2)*1e-8
    assert np.linalg.norm(p.h(x)) <= math.sqrt(2.0e-16) * (1.0 + 1e-9)
    assert np.linalg.norm(x / np.linalg.norm(x) - w) <= 1e-8


def test_restore_gronwall_decay():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    x0 = random_point_in_region(p, 5, scale=0.4)
    x, log = restore_feasibility(p, x0, 1e-3, 3.0)
    assert audit_restore(p, log) == []
    # the audit itself: a last sample above the one before it, and a phi that never decays
    rises = log[:-1] + [(log[-1][0], log[-2][1] * (1.0 + 1e-11))]
    flat = [(t, log[0][1]) for t, _ in log]
    assert [v.split(": ")[1] for v in audit_restore(p, rises)] == ["phi_increase"]
    assert [v.split(": ")[1] for v in audit_restore(p, flat)] == ["envelope"] * (len(log) - 1)


@pytest.mark.parametrize("problem_id, kwargs, step, halved", [
    ("stiefel", {"n": 8, "p": 3}, 1e-2, False),
    ("stiefel", {"n": 5, "p": 2}, 1.0, True),
    ("sphere", {"n": 5}, 1e-2, False),
    ("product:sphere,stiefel", {}, 1e-2, False),
])
def test_restore_matches_the_signed_flow_bit_for_bit(problem_id, kwargs, step, halved):
    # stages of Dh^T h whose updates carry the sign give the bits of -(Dh^T h) stages,
    # rejected and halved steps included
    p = builtin_problem(problem_id, seed=3, **kwargs)
    for seed in range(5):
        x0 = random_point_in_region(p, seed, scale=0.4)
        x, log = restore_feasibility(p, x0, step, 3.0)
        x_ref, log_ref = reference_restore(p, x0, step, 3.0)
        assert x.tobytes() == x_ref.tobytes() and log == log_ref
        # a halved step lengthens the log past the grid's t_end / step samples
        assert (len(log) - 1 > round(3.0 / step)) == halved


@pytest.mark.parametrize("problem_id", ["sphere", "stiefel"])
def test_audit_restore_envelope_decays_at_the_gronwall_rate(problem_id):
    # sigma_lb^2 = 2 here, so 2 sigma_lb^2 = 4 and 2 / sigma_lb^2 = 1 differ: a log at the
    # rate passes, and one at half of it leaves the envelope at every sample past t = 0
    p = builtin_problem(problem_id, seed=0)
    rate = 2.0 * p.region.sigma_lb**2
    assert rate == pytest.approx(4.0)
    times = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0]
    at_rate = [(t, 0.05 * math.exp(-rate * t)) for t in times]
    half_rate = [(t, 0.05 * math.exp(-0.5 * rate * t)) for t in times]
    assert audit_restore(p, at_rate) == []
    found = audit_restore(p, half_rate)
    assert [v.split(": ")[:2] for v in found] == [["sample %d" % i, "envelope"]
                                                  for i in range(1, len(times))]


def test_restore_monotone_log():
    p = builtin_problem("stiefel", n=8, p=2, seed=1)
    x0 = random_point_in_region(p, 3, scale=0.3)
    _, log = restore_feasibility(p, x0, 1e-2, 1.0)
    assert audit_restore(p, log) == []


@pytest.mark.parametrize("step, t_end", [(1e-2, 3.0), (1e-3, 3.0), (0.1, 1.0)])
def test_restore_ends_exactly_at_t_end_on_the_step_grid(step, t_end):
    # t gathers rounding step by step; a remainder within that of one step is
    # folded into the last step, not taken as one more step of length ~1e-14
    p = builtin_problem("stiefel", n=8, p=3, seed=3)
    x0 = random_point_in_region(p, 3, scale=0.4)
    _, log = restore_feasibility(p, x0, step, t_end)
    times = [t for t, _ in log]
    assert len(times) - 1 == round(t_end / step)
    assert times[-1] == t_end
    gaps = np.diff(times)
    assert np.allclose(gaps, step, rtol=1e-9, atol=0), (gaps.min(), gaps.max())


def _restore_reference(problem, x, step, t_end):
    """The RK4 loop with h and k1 evaluated afresh at every use; (x, log, trials).

    A rejected step halves dt, and each accepted step doubles it back, up to step.
    """

    def rhs(y):
        return -(problem.jac_h(y).T @ problem.h(y))

    def phi_at(y):
        hv = problem.h(y)
        return 0.5 * float(hv @ hv)

    phi, t, dt, trials = phi_at(x), 0.0, step, 0
    log = [(0.0, phi)]
    while t < t_end and phi > 1e-16:
        last = t_end - t <= dt + len(log) * np.finfo(float).eps * t_end
        dt_eff = t_end - t if last else dt
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt_eff * k1)
        k3 = rhs(x + 0.5 * dt_eff * k2)
        k4 = rhs(x + dt_eff * k3)
        x_new = x + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi_new = phi_at(x_new)
        trials += 1
        if not phi_new <= phi:
            dt *= 0.5
            continue
        x, t, phi = x_new, t_end if last else t + dt_eff, phi_new
        dt = min(step, 2.0 * dt)
        log.append((t, phi))
    return x, log, trials


@pytest.mark.parametrize("step", [0.3, 2.0])
def test_restore_evaluates_h_once_per_point_and_k1_once_per_iterate(step):
    # at step 2.0 some RK4 steps overshoot and are rejected; the flow at the
    # unchanged iterate (k1) is kept for the halved retry
    p = builtin_problem("stiefel", n=5, p=2, seed=1)
    x0 = random_point_in_region(p, 3, scale=0.4)
    x_ref, log_ref, trials = _restore_reference(p, x0, step, 3.0)
    calls = {"h": 0, "jac_h": 0}

    def counted(name):
        fn = getattr(p, name)

        def call(y):
            calls[name] += 1
            return fn(y)

        return call

    x, log = restore_feasibility(replace(p, h=counted("h"), jac_h=counted("jac_h")), x0, step, 3.0)
    assert np.array_equal(x, x_ref) and log == log_ref
    steps = len(log) - 1
    assert (trials > steps) == (step == 2.0)
    # h: the start, read once, then k2, k3, k4 and the new point per trial
    assert calls["h"] == 1 + 4 * trials
    # jac_h: k1 once per iterate a trial starts from, then k2, k3, k4 per trial
    assert calls["jac_h"] == steps + 3 * trials


def test_restore_rejects_infeasible_start():
    w = np.zeros(4)
    w[0] = 1.0
    p = make_sphere(4, w)
    with pytest.raises(ValueError, match=r"^x0 lies outside the region \|\|h\|\| <= 0\.5$"):
        restore_feasibility(p, 1.5 * w, 1e-3, 1.0)


@pytest.mark.parametrize("step, t_end", [(math.nan, 1.0), (1e-3, math.nan), (math.inf, 1.0),
                                         (1e-3, math.inf)])
def test_restore_rejects_non_finite_step_and_horizon(step, t_end):
    w = np.zeros(4)
    w[0] = 1.0
    p = make_sphere(4, w)
    with pytest.raises(ValueError, match="finite"):
        restore_feasibility(p, 1.1 * w, step, t_end)


def test_restore_rejects_a_step_whose_violation_energy_is_not_finite():
    # a step of 1e30 overflows h; NaN > phi is False, so a NaN phi must not pass as a decrease
    p = builtin_problem("stiefel", n=8, p=2, seed=0)
    x0 = random_point_in_region(p, 0, scale=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError, match="keeps increasing or is not finite"):
            restore_feasibility(p, x0, 1e30, 1e31)


def test_restore_refuses_more_steps_than_its_budget_before_evaluating():
    # 1e-308 or 5e-324 would never end, and 1e-9 over t_end = 1 asks for 1e9 steps
    def evaluated(x):
        raise AssertionError("evaluated")

    w = np.zeros(4)
    w[0] = 1.0
    p = replace(make_sphere(4, w), h=evaluated, jac_h=evaluated)
    for step, t_end in [(1e-308, 3.0), (5e-324, 3.0), (1e-9, 1.0), (1.0, 1e5 * (1 + 1e-15))]:
        with pytest.raises(ValueError, match="^t_end / step = .* exceeds the budget of 100000 steps$"):
            restore_feasibility(p, w, step, t_end)
    with pytest.raises(AssertionError, match="evaluated"):  # the budget itself is admitted
        restore_feasibility(p, w, 1.0, float(solver.RESTORE_STEPS))


def test_restore_attempts_are_capped_with_halved_steps_counted(monkeypatch):
    # at step 2.0 some RK4 steps are rejected and halved; every attempt counts
    p = builtin_problem("stiefel", n=5, p=2, seed=1)
    x0 = random_point_in_region(p, 3, scale=0.4)
    _, log_ref, trials = _restore_reference(p, x0, 2.0, 3.0)
    assert trials > len(log_ref) - 1
    monkeypatch.setattr(solver, "RESTORE_ATTEMPTS", trials)
    assert restore_feasibility(p, x0, 2.0, 3.0)[1] == log_ref
    monkeypatch.setattr(solver, "RESTORE_ATTEMPTS", trials - 1)
    with pytest.raises(StepSizeError, match="^restoration did not reach t_end=3 within %d RK4 "
                                            "steps, halved ones included$" % (trials - 1)):
        restore_feasibility(p, x0, 2.0, 3.0)


class _Injected(Exception):
    pass


def _fault_at(fn, at, fault):
    """fn whose call number `at` (from 1) puts `fault` in its first entry, or raises _Injected."""
    calls = [0]

    def call(*args):
        calls[0] += 1
        out = np.array(fn(*args), dtype=float)
        if calls[0] == at:
            if fault == "raise":
                raise _Injected(at)
            out.flat[0] = fault
        return out

    return call


@pytest.mark.parametrize("evaluator", ["h", "jac_h"])
def test_restore_ends_every_evaluator_fault_by_name(evaluator):
    # 50 steps make 201 h and 200 jac_h calls. The first five hold the start's h and the
    # first two k1: a fault there is the evaluator's, and no halving may hide it. A fault
    # at a trial stage rejects the step and the halved retry goes on to t_end.
    p = builtin_problem("stiefel", n=8, p=3)
    x0 = random_point_in_region(p, 1, 0.4)
    sample = np.random.default_rng(7919).choice(np.arange(6, 202), 12, replace=False)
    for at in [1, 2, 3, 4, 5, *sorted(sample.tolist())]:
        for fault in (math.nan, math.inf, "raise"):
            faulty = replace(p, **{evaluator: _fault_at(getattr(p, evaluator), at, fault)})
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x, log = restore_feasibility(faulty, x0, 1e-2, 0.5)
            except _Injected:
                assert fault == "raise"
                continue
            except EvaluationError as exc:
                assert str(exc).startswith(evaluator + " returned non-finite values"), (at, fault)
                continue
            assert np.isfinite(x).all() and log[-1][0] == 0.5, (at, fault)
            assert audit_restore(p, log) == [], (at, fault)


_EVALUATORS = ("f", "grad_f", "hess_f", "h", "jac_h", "hess_h")


def _faulted_runs():
    """name -> (problem, run(problem) -> RunTrace): the solves and the plateau run faulted below."""
    st = builtin_problem("stiefel", n=8, p=2, seed=1)
    ray = diag_rayleigh(20)
    return {
        "first-order": (st, lambda p: gradient_eigenstep(
            p, st.init_point(0), SolverConfig(eps1=1e-4, beta=3.0))),
        "second-order": (ray, lambda p: gradient_eigenstep(
            p, np.eye(20)[5], SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0))),
        "plateau": (st, lambda p: plateau(
            p, st.init_point(0), SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3), lp0=50)),
    }


@pytest.mark.parametrize("run", ["first-order", "second-order", "plateau"])
def test_every_evaluator_fault_of_a_solve_ends_by_name(run):
    # NaN, inf or a raise at each evaluator's first and last call of the clean run and at
    # 7 seeded calls between: the run raises EvaluationError naming that evaluator, or the
    # injected exception unchanged, and warns of nothing
    p, solve = _faulted_runs()[run]
    calls = dict.fromkeys(_EVALUATORS, 0)

    def counted(name):
        def call(*args, fn=getattr(p, name)):
            calls[name] += 1
            return fn(*args)
        return call

    assert solve(replace(p, **{k: counted(k) for k in _EVALUATORS})).termination == "converged"
    rng = np.random.default_rng(7919)
    for evaluator in _EVALUATORS:
        last = calls[evaluator]
        sample = rng.choice(np.arange(2, last), 7, replace=False).tolist()
        for at in [1, *sorted(sample), last]:
            for fault in (math.nan, math.inf, "raise"):
                faulty = replace(p, **{evaluator: _fault_at(getattr(p, evaluator), at, fault)})
                with pytest.raises((EvaluationError, _Injected)) as caught:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        solve(faulty)
                if fault == "raise":
                    assert caught.type is _Injected and caught.value.args == (at,)
                else:
                    assert caught.type is EvaluationError, (evaluator, at, fault)
                    assert str(caught.value).startswith(evaluator + " returned"), (at, fault)


def test_restore_step_grows_back_after_a_halving():
    # h's 2nd call is the first step's k2 stage: NaN there rejects that step once. The
    # halved step is taken, then dt doubles back to 1e-2, so the run logs 302 samples
    # (0, 0.005, 0.015, ..., 2.995, 3) where a halving kept for good logged 601
    p = builtin_problem("stiefel", n=8, p=3)
    x0 = random_point_in_region(p, 3, 0.4)
    _, clean = restore_feasibility(p, x0, 1e-2, 3.0)
    _, log = restore_feasibility(replace(p, h=_fault_at(p.h, 2, math.nan)), x0, 1e-2, 3.0)
    assert len(clean) == 301 and len(log) == 302
    times = [t for t, _ in log]
    assert times[:3] == [0.0, 0.005, 0.015] and times[-1] == 3.0
    assert np.allclose(np.diff(times[1:-1]), 1e-2, rtol=1e-9, atol=0)
    assert log[-1][1] == pytest.approx(clean[-1][1], rel=1e-8)
    assert audit_restore(p, log) == []


def test_a_search_whose_required_decrease_underflows_takes_no_null_step():
    # alpha01 = 1e-308: a gradient trial moves by about 7e-320 and leaves x as it is, and
    # its required decrease c1 alpha slope underflows to 0. No such trial is accepted, so
    # the run ends by the rounding rule at x0 instead of taking max_iters null steps.
    p = builtin_problem("stiefel", n=8, p=2, seed=1)
    x0 = p.init_point(0)
    cfg = SolverConfig(eps1=1e-4, beta=3.0, alpha01=1e-308, max_iters=50)
    trace = gradient_eigenstep(p, x0, cfg)
    assert trace.termination == "tolerance_unreachable"
    assert [r.kind for r in trace.records] == ["terminal"]
    # the audit reports such a step, which passes armijo
    null = gradient_eigenstep(p, x0, cfg._replace(alpha01=1.0)).as_dict()
    record = null["records"][0]
    record.update(step_len=5e-324, g_after=record["g_before"])
    assert record["kind"] == "gradient"
    assert audit(p, null) == ["record 0: progress: %r >= %r" % ((record["g_before"],) * 2)]
