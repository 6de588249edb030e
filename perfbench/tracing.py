"""Layer tracing for the benchmark's traced run.

The tracer never edits the package.  It wraps the layers' public entry
points where their callers look them up (module attributes, the
constant-step solver table, the problem's callbacks) for the length of a
`with tracer.installed(fi):` block and restores them afterwards.

Spans (a layer boundary: name, parent span, start, end) are kept in
columnar arrays in memory and written out once at the end.  The innermost
callbacks -- RHS, Jacobian and Trajectory.append -- are too frequent for
spans: they only bump counters and summed times, which every open span
snapshots, so a span's self time is its duration minus its child spans
and minus the callback time spent directly under it.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

SPAN_NAMES = (
    "bench.adaptive_run", "bench.convergence_table", "bench.reference",
    "adaptive", "newton", "steppers.rk3", "steppers.rk4", "steppers.ie3",
)
(BENCH_ADAPTIVE, BENCH_TABLE, BENCH_REFERENCE, ADAPTIVE, NEWTON, RK3, RK4,
 IE3) = range(len(SPAN_NAMES))

FAILED = -1     # `iters` of a span whose call raised


class Tracer:
    """Spans and callback counters of one traced phase."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.rhs_in = array("q")     # RHS calls inside the span
        self.jac_in = array("q")     # Jacobian calls inside the span
        self.t_next = array("d")     # newton spans: the stage's t_next and k
        self.k = array("d")
        self.iters = array("l")      # newton: Newton iterations; FAILED if raised
        self.result = {}             # span index -> value the span returned
        self._stack = []
        self.rhs_calls = self.jac_calls = self.append_calls = 0
        self.rhs_ns = self.jac_ns = self.append_ns = 0
        self.cb_ns = 0               # rhs_ns + jac_ns + append_ns
        self.trajectories = 0
        self.stored_bytes = 0

    # -- spans ---------------------------------------------------------

    def _open(self, name: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(name)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0)
        self.self_ns.append(0)
        self.rhs_in.append(0)
        self.jac_in.append(0)
        self.t_next.append(0.0)
        self.k.append(0.0)
        self.iters.append(0)
        t0 = perf_counter_ns()
        self.start.append(t0)
        stack.append([idx, t0, self.cb_ns, self.rhs_calls, self.jac_calls, 0, 0])
        return idx

    def _close(self, iters: int) -> None:
        t1 = perf_counter_ns()
        idx, t0, cb0, rhs0, jac0, child_ns, child_cb = self._stack.pop()
        dur = t1 - t0
        cb = self.cb_ns - cb0
        self.end[idx] = t1
        self.self_ns[idx] = dur - child_ns - (cb - child_cb)
        self.rhs_in[idx] = self.rhs_calls - rhs0
        self.jac_in[idx] = self.jac_calls - jac0
        self.iters[idx] = iters
        if self._stack:
            frame = self._stack[-1]
            frame[5] += dur
            frame[6] += cb

    def span(self, name: int, fn, keep=None):
        """fn wrapped in a span; keep(result) is stored as the span's result."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(FAILED)
                raise
            self._close(0)
            if keep is not None:
                self.result[idx] = keep(out)
            return out
        return traced

    def _stage(self, fn):
        """implicit_euler_stage wrapped in a span.  Stages are the most
        frequent spans and never have children, so they are recorded in
        one go when they end rather than reserved when they start."""
        tracer, stack = self, self._stack
        name, parent, start, end = (self.name.append, self.parent.append,
                                    self.start.append, self.end.append)
        self_ns, rhs_in, jac_in = (self.self_ns.append, self.rhs_in.append,
                                   self.jac_in.append)
        t_next_, k_, iters_ = self.t_next.append, self.k.append, self.iters.append

        def implicit_euler_stage(p, t_next, k_n, y_tilde, y_guess, cfg):
            cb0, rhs0, jac0 = tracer.cb_ns, tracer.rhs_calls, tracer.jac_calls
            iters = FAILED
            t0 = perf_counter_ns()
            try:
                out = fn(p, t_next, k_n, y_tilde, y_guess, cfg)
                iters = out.iterations
                return out
            finally:
                t1 = perf_counter_ns()
                dur = t1 - t0
                cb = tracer.cb_ns - cb0
                frame = stack[-1] if stack else None
                name(NEWTON)
                parent(frame[0] if frame else -1)
                start(t0)
                end(t1)
                self_ns(dur - cb)
                rhs_in(tracer.rhs_calls - rhs0)
                jac_in(tracer.jac_calls - jac0)
                t_next_(t_next)
                k_(k_n)
                iters_(iters)
                if frame:
                    frame[5] += dur
                    frame[6] += cb
        return implicit_euler_stage

    # -- innermost callbacks ------------------------------------------

    def wrap_spec(self, spec):
        """The spec with its problem's rhs/jacobian counted and timed."""
        p = spec.problem
        rhs, jac = p.rhs, p.jacobian

        def traced_rhs(t, y):
            t0 = perf_counter_ns()
            out = rhs(t, y)
            dt = perf_counter_ns() - t0
            self.rhs_calls += 1
            self.rhs_ns += dt
            self.cb_ns += dt
            return out

        def traced_jac(t, y):
            t0 = perf_counter_ns()
            out = jac(t, y)
            dt = perf_counter_ns() - t0
            self.jac_calls += 1
            self.jac_ns += dt
            self.cb_ns += dt
            return out

        problem = dataclasses.replace(
            p, rhs=traced_rhs, jacobian=None if jac is None else traced_jac)
        return dataclasses.replace(spec, problem=problem)

    def _trajectory_class(self, base):
        tracer = self

        class TracedTrajectory(base):
            __slots__ = ()

            def __init__(self, dimension):
                base.__init__(self, dimension)
                tracer.trajectories += 1

            def append(self, t, y, est, k):
                t0 = perf_counter_ns()
                base.append(self, t, y, est, k)
                dt = perf_counter_ns() - t0
                tracer.append_calls += 1
                tracer.append_ns += dt
                tracer.cb_ns += dt
                tracer.stored_bytes += (self.dimension + 3) * 8

        return TracedTrajectory

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self, fi):
        """Route the package's layer calls through this tracer.

        Each entry point is replaced where its callers look it up:
        `bench` calls solve_filtered_ie23, solve_rk4_reference and
        van_der_pol_problem through its own globals and the constant-step
        solvers through CONSTANT_SOLVERS; `adaptive` and `steppers` call
        implicit_euler_stage, rk3_step and Trajectory through theirs.
        """
        bench, adaptive, steppers = fi.bench, fi.adaptive, fi.steppers
        Method = fi.Method
        steps = lambda run: run.trajectory.steps_taken
        rk4 = self.span(RK4, steppers.solve_rk4_reference, steps)
        stage = self._stage(fi.newton.implicit_euler_stage)
        rk3 = self.span(RK3, steppers.rk3_step)
        trajectory = self._trajectory_class(fi.core.Trajectory)
        vdp_problem = bench.van_der_pol_problem
        patches = [
            (bench, "adaptive_run", self.span(BENCH_ADAPTIVE, bench.adaptive_run)),
            (bench, "convergence_table",
             self.span(BENCH_TABLE, bench.convergence_table)),
            (bench, "vdp_reference",
             self.span(BENCH_REFERENCE, bench.vdp_reference, lambda r: r[1])),
            (bench, "van_der_pol_problem",
             lambda *a, **kw: self.wrap_spec(vdp_problem(*a, **kw))),
            (bench, "solve_filtered_ie23",
             self.span(ADAPTIVE, adaptive.solve_filtered_ie23, lambda r: r[1])),
            (bench, "solve_rk4_reference", rk4),
            (steppers, "solve_rk4_reference", rk4),
            (adaptive, "implicit_euler_stage", stage),
            (steppers, "implicit_euler_stage", stage),
            (adaptive, "rk3_step", rk3),
            (steppers, "rk3_step", rk3),
            (adaptive, "Trajectory", trajectory),
            (steppers, "Trajectory", trajectory),
        ]
        table = bench.CONSTANT_SOLVERS
        table_patches = {
            Method.RK4_REF: rk4,
            Method.IE_PRE_POST_3: self.span(IE3, table[Method.IE_PRE_POST_3], steps),
        }
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        saved_table = {m: table[m] for m in table_patches}
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            table.update(table_patches)
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)
            table.update(saved_table)

    # -- results -------------------------------------------------------

    def _spans(self, name: int):
        return [i for i, n in enumerate(self.name) if n == name]

    def _seconds(self, spans, column=None) -> float:
        if column is None:
            return sum(self.end[i] - self.start[i] for i in spans) * 1e-9
        return sum(column[i] for i in spans) * 1e-9

    def _iterations(self, stages) -> int:
        """Newton iterations of these stage spans.  A failed stage returns
        no iteration count; each Newton update evaluates the Jacobian
        once, so its evaluations are counted instead."""
        return sum(self.jac_in[i] if self.iters[i] == FAILED else self.iters[i]
                   for i in stages)

    def adaptive_attempts(self):
        """Per adaptive solve: its span and the verdict of each stage call.

        The driver retries a rejected attempt from the same t_n at half
        the step, so an attempt is rejected exactly when the next attempt
        of the same solve starts from the same t_n (t_next - k, equal to
        a few ulps) with half its k.  The last attempt of a solve that
        returned was accepted.
        """
        children = {}
        for i, (n, parent) in enumerate(zip(self.name, self.parent)):
            if n == NEWTON and parent >= 0:
                children.setdefault(parent, []).append(i)
        t_next, k = self.t_next, self.k
        out = []
        for a in self._spans(ADAPTIVE):
            stages = children.get(a, [])
            rejected = []
            for i, j in zip(stages, stages[1:]):
                t_n = t_next[i] - k[i]
                rejected.append(k[j] == 0.5 * k[i] and abs(t_next[j] - k[j] - t_n)
                                <= 8.0 * math.ulp(t_next[i]))
            if stages:
                rejected.append(self.iters[a] == FAILED)
            out.append((a, stages, rejected))
        return out

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """The per-layer metrics of this phase and any inconsistency found
        between the trace and the solver's own statistics."""
        problems = []
        newton = self._spans(NEWTON)
        failed = [i for i in newton if self.iters[i] == FAILED]
        iterations = self._iterations(newton)

        accepted = rejected = doublings = attempts = 0
        adaptive_rhs = 0
        rejected_ns = 0
        doubled = doubled_rejected = 0
        for a, stages, verdicts in self.adaptive_attempts():
            adaptive_rhs += self.rhs_in[a]
            stats = self.result.get(a)
            n_rej = sum(verdicts)
            n_fail = sum(self.iters[i] == FAILED for i in stages)
            if stats is not None:
                accepted += stats.accepted
                rejected += stats.rejected
                doublings += stats.doublings
                if (n_rej, n_fail) != (stats.rejected, stats.newton_failures):
                    problems.append(
                        f"trace infers {n_rej} rejections / {n_fail} Newton "
                        f"failures, the solver reports {stats.rejected} / "
                        f"{stats.newton_failures}")
            attempts += len(stages)
            for pos, i in enumerate(stages):
                if verdicts[pos]:
                    rejected_ns += self.end[i] - self.start[i]
                elif pos + 1 < len(stages) and \
                        self.k[stages[pos + 1]] == 2.0 * self.k[i]:
                    doubled += 1
                    doubled_rejected += verdicts[pos + 1]

        adaptive = self._spans(ADAPTIVE)
        rk4 = self._spans(RK4)
        ie3 = self._spans(IE3)
        refs = self._spans(BENCH_REFERENCE)
        steps = self.append_calls - self.trajectories

        def share(num, den):
            return num / den if den else 0.0

        m = {
            "newton.calls": len(newton),
            "newton.iterations": iterations,
            "newton.iters_per_call": share(iterations, len(newton)),
            "newton.failures": len(failed),
            "newton.s": self._seconds(newton),
            "newton.self_s": self._seconds(newton, self.self_ns),
            "problems.rhs_calls": self.rhs_calls,
            "problems.jac_calls": self.jac_calls,
            "problems.rhs_s": self.rhs_ns * 1e-9,
            "problems.jac_s": self.jac_ns * 1e-9,
            "problems.rhs_per_attempt": share(adaptive_rhs, attempts),
            "problems.rhs_per_step": share(self.rhs_calls, steps),
            "adaptive.s": self._seconds(adaptive),
            "adaptive.self_s": self._seconds(adaptive, self.self_ns),
            "adaptive.self_ns_per_attempt": share(
                sum(self.self_ns[i] for i in adaptive), attempts),
            "adaptive.accepted": accepted,
            "adaptive.rejected": rejected,
            "adaptive.doublings": doublings,
            "adaptive.accept_share": share(accepted, accepted + rejected),
            "adaptive.post_double_reject_share": share(doubled_rejected, doubled),
            "adaptive.rejected_stage_s": rejected_ns * 1e-9,
            "core.append_calls": self.append_calls,
            "core.append_s": self.append_ns * 1e-9,
            "core.stored_mb": self.stored_bytes / 1e6,
            "steppers.rk3_calls": len(self._spans(RK3)),
            "steppers.rk4_steps": sum(self.result[i] for i in rk4 if i in self.result),
            "steppers.rk4_s": self._seconds(rk4),
            "steppers.rk4_self_s": self._seconds(rk4, self.self_ns),
            "steppers.ie3_steps": sum(self.result[i] for i in ie3 if i in self.result),
            "steppers.ie3_s": self._seconds(ie3),
            "steppers.ie3_self_s": self._seconds(ie3, self.self_ns),
            "bench.reference_s": self._seconds(refs),
            "bench.reference_self_conv": max(
                (self.result[i] for i in refs if i in self.result), default=0.0),
        }
        if m["newton.iterations"] != m["problems.jac_calls"]:
            problems.append(
                f"{m['newton.iterations']} Newton iterations but "
                f"{m['problems.jac_calls']} Jacobian evaluations")
        return m, problems

    def solve_lines(self) -> list[str]:
        """One line per adaptive solve: its counts and RHS per attempt."""
        lines = []
        for a, stages, verdicts in self.adaptive_attempts():
            stats = self.result.get(a)
            lines.append(
                f"  adaptive solve: attempts={len(stages)} "
                f"rejected={sum(verdicts)} "
                f"accepted={stats.accepted if stats else '-'} "
                f"rhs_per_attempt={self.rhs_in[a] / max(1, len(stages)):.4f} "
                f"newton_iterations={self._iterations(stages)} "
                f"jac_calls={self.jac_in[a]} "
                f"newton_failures={sum(self.iters[i] == FAILED for i in stages)}")
        return lines

    def write(self, path) -> None:
        """Every span as one CSV row, times in ns from the first span."""
        base = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,self_ns,rhs,jac,t_next,k,iters\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.parent[i]},{SPAN_NAMES[self.name[i]]},"
                    f"{self.start[i] - base},{self.end[i] - base},"
                    f"{self.self_ns[i]},{self.rhs_in[i]},{self.jac_in[i]},"
                    f"{self.t_next[i]!r},{self.k[i]!r},{self.iters[i]}\n")
