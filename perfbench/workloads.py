"""The benchmark's workloads: inputs from a seed, the timed solve, the
set-up that only serves answer checks, the checks, and the answer
signature that pins and determinism checks compare.

Every function takes the imported package `fi` as an argument, because
the harness imports it afresh in each timed set-up.  `wrap` maps a
ProblemSpec to the spec the solve uses: the identity, or the tracer's
counting wrapper in the traced run.

Why each workload exists (BENCHMARK.json gives one sentence each):
  vdp-stiff      stiff 2-D Newton fast path with heavy controller waste
  scalar-analog  1-D problems with closed-form answers, where the driver
                 loop, inlined filters and Trajectory.append dominate
  constant-step  no controller: the generic 4-D Newton path and the RK4
                 reference, so a controller change must read no change
"""

from __future__ import annotations

import dataclasses
import math

# vdp-stiff -------------------------------------------------------------

# (mu, tol, dt0, t_end, box); tol and dt0 are bench.VDP_SETTINGS at mu,
# and the seed moves each component of y0 by at most box.  At mu=100 the
# controller splits into two paths of different cost, 82k+28k and 94k+42k
# accepted+rejected steps: a box of 1e-4 took the costlier one on
# 1 seed in 12 (1e-3: 3 in 8), which made the run's cost bimodal in the
# seed; 1e-7 stayed on the canonical path on 30 seeds out of 30.
VDP_RUNS = ((10.0, 5e-5, 1e-3, 50.0, 1e-3), (100.0, 1e-3, 1e-3, 500.0, 1e-7))
VDP_Y0 = (2.0, 0.0)
VDP_REF_DT = 4e-3         # RK4 check reference at this dt and dt/2
VDP_REF_CONV = 1e-2       # its half-step change must stay below this
VDP_BAND = 0.2            # |final x - reference x| allowed


def _adaptive_signature(run):
    s = run.stats
    return [s.accepted, s.rejected, s.doublings, s.newton_failures,
            s.min_k_used, s.max_k_used, len(run.trajectory),
            list(run.trajectory.final_state())]


def _power_of_two(x: float, most: float) -> bool:
    e = math.log2(x)
    return abs(e - round(e)) <= 1e-9 and round(e) <= most


def _controller_problems(run) -> list[str]:
    """est <= tol*k on every accepted step, and the step ladder: each
    accepted step is the one before it times 2**e with e <= 1 (halved on
    each rejection, doubled at most once), unless the driver clamped it
    to the rest of the span, t_end - t_n, and then halved that."""
    traj, tol, t_end = run.trajectory, run.cfg.tol, run.cfg.t_end
    ks, est, times = traj.ks, traj.est, traj.times
    n = len(traj)
    out = []
    bad = sum(est[i] > tol * ks[i] for i in range(4, n))
    if bad:
        out.append(f"{run.label}: {bad} accepted steps with est > tol*k")
    bad = 0
    for i in range(3, n - 1):
        if not (_power_of_two(ks[i + 1] / ks[i], 1)
                or _power_of_two(ks[i + 1] / (t_end - times[i]), 0)):
            bad += 1
    if bad:
        out.append(f"{run.label}: {bad} step ratios off the power-of-two ladder")
    return out


class VdpStiff:
    name = "vdp-stiff"

    def cases(self, rng):
        out = []
        for mu, tol, dt0, t_end, box in VDP_RUNS:
            y0 = VDP_Y0 if rng is None else tuple(
                c + rng.uniform(-box, box) for c in VDP_Y0)
            out.append({"label": f"van-der-pol mu={mu:g}", "mu": mu, "tol": tol,
                        "dt0": dt0, "t_end": t_end, "y0": y0})
        return out

    def _spec(self, fi, case):
        spec = fi.van_der_pol_problem(case["mu"])
        return dataclasses.replace(spec, default_initial_state=case["y0"])

    def reference(self, fi, case, wrap):
        """Final state of RK4 at VDP_REF_DT/2, and its change from VDP_REF_DT."""
        problem = wrap(self._spec(fi, case)).problem
        finals = []
        for dt in (VDP_REF_DT, VDP_REF_DT / 2.0):
            cfg = fi.SolverConfig(tol=1.0, dt0=dt, t_begin=0.0,
                                  t_end=case["t_end"], k_max=dt)
            run = fi.steppers.solve_rk4_reference(problem, cfg, case["y0"])
            finals.append(run.trajectory.final_state())
        conv = max(abs(a - b) for a, b in zip(*finals))
        return finals[1], conv

    def solve(self, fi, case, wrap):
        return fi.bench.adaptive_run(wrap(self._spec(fi, case)), case["tol"],
                                     case["dt0"], t_range=(0.0, case["t_end"]),
                                     label=case["label"])

    def check(self, case, run, ref):
        fine, conv = ref
        out = _controller_problems(run)
        if not conv < VDP_REF_CONV:
            out.append(f"{run.label}: reference half-step change {conv!r}")
        err = abs(run.trajectory.final_state()[0] - fine[0])
        if not err <= VDP_BAND:
            out.append(f"{run.label}: final x off the reference by {err!r}")
        return err, out

    signature = staticmethod(_adaptive_signature)


# scalar-analog ---------------------------------------------------------

ANALOG_GAMMAS = (1.0, 3.0, 5.0)
ANALOG_BOX = 2e-4         # relative move of gamma
MODEL_RUN = (2.5e-4, 1e-3)
SCALAR_BAND = 1e-4        # closed-form final error allowed


class ScalarAnalog:
    name = "scalar-analog"

    def cases(self, rng):
        out = []
        for g in ANALOG_GAMMAS:
            gamma = g if rng is None else g * (1.0 + rng.uniform(-ANALOG_BOX, ANALOG_BOX))
            out.append({"label": f"model-analog gamma={gamma!r}", "problem": "model-analog",
                        "params": {"gamma": gamma}, "settings": g})
        out.append({"label": "model tol=2.5e-4", "problem": "model", "params": {},
                    "settings": None})
        return out

    reference = None      # every problem here has a closed-form solution

    def solve(self, fi, case, wrap):
        spec = fi.make_problem(case["problem"], **case["params"])
        if case["settings"] is None:
            tol, dt0 = MODEL_RUN
        else:
            tol, dt0 = fi.bench.ANALOG_SETTINGS[case["settings"]]
        return fi.bench.adaptive_run(wrap(spec), tol, dt0, label=case["label"])

    def check(self, case, run, ref):
        out = _controller_problems(run)
        err = run.final_error
        if not err <= SCALAR_BAND:
            out.append(f"{run.label}: closed-form final error {err!r}")
        return err, out

    signature = staticmethod(_adaptive_signature)


# constant-step ---------------------------------------------------------

TABLE_BASE = 1000         # the seed adds 0, 2, ..., 8 steps
FROZEN_QP = (2000, 2.11669e-03)   # tests' frozen ie-pre-post-3 row on quasi-periodic
FROZEN_REL = 0.10         # the tests' band on that row
ORDER_BAND = 0.05         # |empirical order - 3| allowed
REF_MU_BOX = (1.0, 1.1)   # every mu here integrates over [0, 50]


class ConstantStep:
    name = "constant-step"

    def cases(self, rng):
        n = TABLE_BASE if rng is None else TABLE_BASE + 2 * rng.randrange(5)
        mu = 1.0 if rng is None else rng.uniform(*REF_MU_BOX)
        return [{"label": f"ie-pre-post-3 table base={n}", "kind": "table", "n": n},
                {"label": f"vdp_reference mu={mu!r}", "kind": "reference", "mu": mu}]

    reference = None      # the table uses the closed form; vdp_reference self-checks

    def solve(self, fi, case, wrap):
        if case["kind"] == "table":
            n = case["n"]
            return fi.bench.convergence_table(
                fi.Method.IE_PRE_POST_3, wrap(fi.quasi_periodic_problem()),
                [n, 2 * n, 4 * n])
        return fi.bench.vdp_reference(case["mu"])

    def check(self, case, result, ref):
        out = []
        if case["kind"] == "table":
            ref_n, ref_err = FROZEN_QP
            for row in result.rows:
                if row.order is None or abs(row.order - 3.0) > ORDER_BAND:
                    out.append(f"{case['label']}: order {row.order!r} at {row.steps} steps")
                # error ~ C n^-3: the frozen row, moved to this n at order 3
                want = ref_err * (ref_n / row.steps) ** 3
                if not abs(row.error - want) <= FROZEN_REL * want:
                    out.append(f"{case['label']}: error {row.error!r} at {row.steps} "
                               f"steps, frozen row gives {want!r}")
            return max(row.error for row in result.rows), out
        fine, conv = result
        if not (conv < VDP_REF_CONV and all(map(math.isfinite, fine))):
            out.append(f"{case['label']}: half-step change {conv!r}, final {fine!r}")
        return conv, out

    def signature(self, result):
        if isinstance(result, tuple):
            fine, conv = result
            return [list(fine), conv]
        return [[r.steps, r.error, r.ratio, r.order] for r in result.rows]


WORKLOADS = {w.name: w for w in (VdpStiff(), ScalarAnalog(), ConstantStep())}
