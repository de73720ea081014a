"""Estimating the penalty parameter on the fly with the plateau scheme.

A valid penalty parameter must dominate pointwise thresholds that are
rarely known in advance. The plateau scheme starts from a hopeless
beta = 0.001, lets the solver run until the measured threshold overtakes
beta (or a budget expires), then restarts with beta and budget enlarged.
"""

from fletcher_penalty import SolverConfig, builtin_problem, plateau

problem = builtin_problem("stiefel", n=8, p=2, seed=3)  # linear cost over 8x2 frames
cfg = SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3)  # the first plateau's beta

trace = plateau(problem, problem.init_point(3), cfg, gamma=2.0, lp0=50)

print("constraint: X^T X = I_2 over 8x2 matrices, seeded linear cost")
print("plateau schedule (gamma = 2):")
print()
print("    %-7s %-12s %-12s %-7s %-18s %s" % ("stage", "beta", "budget", "steps", "stop", "measured B"))
for s in trace.plateaus:
    b_txt = "-" if s.b_value is None else "%.4f" % s.b_value
    print("    %-7d %-12.4g %-12.4g %-7d %-18s %s"
          % (s.index, s.beta, s.lp, s.iters, s.stop_reason, b_txt))

print()
print("termination:", trace.termination)
cert = trace.final_certificate
print("final certificate: ||h||=%.2e ||grad_M f||=%.2e focp=%s socp=%s"
      % (cert.eps0_measured, cert.eps1_measured, cert.focp_pass, cert.socp_pass))
print()
print("Stage 0 stops immediately: already at the initial point the measured")
print("threshold B(x) exceeds beta = 0.001, so beta jumps to gamma * B and the")
print("iteration budget grows by (gamma B / beta)^4; the next plateau converges.")
