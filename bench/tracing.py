"""Spans around the calls into each layer, recorded from outside the library.

A Tracer replaces module attributes with timing wrappers at the places the
library calls them from (e.g. `fletcher_penalty.solver.evaluate`, which the
solver looks up in its own namespace), and wraps a Problem's evaluators
with `dataclasses.replace`. Each span keeps its name, start, end, parent
span and the id of the solve it belongs to; spans stay in memory in flat
arrays and are written out once, at the end of the run.
"""

import dataclasses
import gzip
from array import array
from collections import defaultdict
from time import perf_counter

EVALUATORS = ("f", "grad_f", "hess_f", "h", "jac_h", "hess_h")


def _svd_bytes(res):
    return res.u.nbytes + res.s.nbytes + res.vt.nbytes


def _evaluate_name(args, kwargs):
    with_grad = kwargs.get("with_grad", args[3] if len(args) > 3 else True)
    return "penalty.grad" if with_grad else "penalty.value"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.out_bytes = defaultdict(int)
        self.solve_id = -1
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, out_bytes=None):
        """Return fn wrapped in a span; `name` may be a function of the call's arguments."""
        fixed = None if callable(name) else self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            name_id = fixed if fixed is not None else self._name_id(name(args, kwargs))
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.solve.append(self.solve_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if out_bytes is not None:
                self.out_bytes[self.names[name_id]] += out_bytes(result)
            return result

        return traced

    def patch(self, module, attr, name, out_bytes=None):
        """Replace module.attr by a traced wrapper; a missing name is an error, not a skip."""
        fn = module.__dict__.get(attr)
        if not callable(fn):
            raise AttributeError("cannot trace %s.%s: no such function" % (module.__name__, attr))
        self._patched.append((module, attr, fn))
        setattr(module, attr, self.wrap(fn, name, out_bytes))

    def wrap_problem(self, problem):
        """The same Problem with every evaluator traced as `problems.<evaluator>`."""
        wrapped = {}
        for key in EVALUATORS:
            fn = getattr(problem, key)
            if fn is not None:
                nbytes = (lambda a: a.nbytes) if key == "hess_h" else None
                wrapped[key] = self.wrap(fn, "problems." + key, nbytes)
        return dataclasses.replace(problem, **wrapped)

    def install(self, pkg):
        """Trace the public entry points of every layer a solve passes through."""
        cli, criticality, linalg, penalty, solver = (
            pkg.cli, pkg.criticality, pkg.linalg, pkg.penalty, pkg.solver)

        def traced_problem(*args, **kwargs):
            return self.wrap_problem(builtin(*args, **kwargs))

        builtin = cli.builtin_problem
        self._patched.append((cli, "builtin_problem", builtin))
        cli.builtin_problem = self.wrap(traced_problem, "problems.builtin_problem")
        for module, attr, name, nbytes in [
            (linalg, "svd", "linalg.svd", _svd_bytes),
            (penalty, "svd", "linalg.svd", _svd_bytes),
            (solver, "sym_eig_min", "linalg.sym_eig_min", None),
            (criticality, "sym_eig_min", "linalg.sym_eig_min", None),
            (criticality, "kernel_basis", "linalg.kernel_basis", None),
            (solver, "evaluate", _evaluate_name, None),
            (penalty, "evaluate", _evaluate_name, None),
            (solver, "penalty_hess", "penalty.hess", None),
            (solver, "beta_thresholds", "penalty.beta_thresholds", None),
            (solver, "in_region", "penalty.in_region", None),
            (solver, "certify", "criticality.certify", None),
            (criticality, "layered_hess", "criticality.layered_hess", None),
            (solver, "gradient_eigenstep", "solver.gradient_eigenstep", None),
            (solver, "gradient_backtrack", "solver.gradient_backtrack", None),
            (solver, "eigen_backtrack", "solver.eigen_backtrack", None),
            (cli, "plateau", "solver.plateau", None),
            (cli, "restore_feasibility", "solver.restore_feasibility", None),
            (cli, "main", "cli.main", None),
        ]:
            self.patch(module, attr, name, nbytes)
        # The package re-exports gradient_eigenstep; the library workloads call it there.
        self.patch(pkg, "gradient_eigenstep", "solver.gradient_eigenstep")

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for sid, name_id in enumerate(self.name):
            dur = self.end[sid] - self.start[sid]
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid]
        return out

    def count_under(self, name, parent_name):
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        ids = self._name_ids
        if name not in ids or parent_name not in ids:
            return 0
        want, parent_id = ids[name], ids[parent_name]
        return sum(1 for sid, nid in enumerate(self.name)
                   if nid == want and self.parent[sid] >= 0
                   and self.name[self.parent[sid]] == parent_id)

    def write(self, path):
        """All spans as gzipped CSV: id,parent,solve,name,start_s,end_s."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,solve,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (
                    sid, self.parent[sid], self.solve[sid], self.names[self.name[sid]],
                    self.start[sid], self.end[sid]))
