"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single PASS line with the measured numbers (visible
with -s or -rA); a failure is reported by pytest as usual.  The frozen
reference rows pin the expected behaviour of these methods on y'=y and
the oscillator problems; bands are deliberately wide where controller
details (rounding of the very last steps, estimate ties) could move the
step counts slightly.
"""

import math
import random
import time

import pytest

from filtered_ie23 import (Method, adaptive_run, constant_run,
                           convergence_table, curvature, model_problem,
                           quasi_periodic_problem)
from filtered_ie23.filters import _beta, post_filtered, pre_filtered, step_factors
from oracles import beta_oracle

MODEL = model_problem()
QP = quasi_periodic_problem()
STEPS = [40, 80, 160, 320, 640, 1280, 2560]

# frozen reference rows: (steps, final error, empirical order)
THIRD_ORDER_ROWS = [
    (40, 1.74388e-03, 2.90040),
    (80, 2.33566e-04, 2.95040),
    (160, 3.02170e-05, 2.97528),
    (320, 3.84240e-06, 2.98767),
    (640, 4.84422e-07, 2.99387),
    (1280, 6.08106e-08, 2.99735),
    (2560, 7.61532e-09, 3.00150),
]
SECOND_ORDER_ROWS = [
    (40, 5.08667e-02, 1.95686),
    (80, 1.31026e-02, 1.97566),
    (160, 3.33140e-03, 1.98709),
    (320, 8.40338e-04, 1.99335),
    (640, 2.11054e-04, 1.99663),
    (1280, 5.28871e-05, 1.99830),
    (2560, 1.32373e-05, 1.99915),
]


def _check_convergence(method, reference_rows):
    t0 = time.perf_counter()
    report = convergence_table(method, MODEL, STEPS)
    elapsed = time.perf_counter() - t0
    err_dev = order_dev = 0.0
    for row, (steps, err_ref, order_ref) in zip(report.rows, reference_rows):
        assert row.steps == steps
        err_dev = max(err_dev, abs(row.error - err_ref) / err_ref)
        order_dev = max(order_dev, abs(row.order - order_ref))
    assert err_dev <= 0.10, f"worst error deviation {err_dev:.2%}"
    assert order_dev <= 0.05, f"worst order deviation {order_dev}"
    return err_dev, order_dev, elapsed


def test_01_constant_step_third_order_convergence():
    err_dev, order_dev, elapsed = _check_convergence(
        Method.IE_PRE_POST_3, THIRD_ORDER_ROWS)
    assert elapsed < 1.0
    print(f"PASS 01 third-order convergence: error dev <= {err_dev:.3%}, "
          f"order dev <= {order_dev:.5f}, {elapsed:.2f}s")


def test_02_constant_step_second_order_convergence():
    err_dev, order_dev, elapsed = _check_convergence(
        Method.IE_PRE_2, SECOND_ORDER_ROWS)
    assert elapsed < 1.0
    print(f"PASS 02 second-order convergence: error dev <= {err_dev:.3%}, "
          f"order dev <= {order_dev:.5f}, {elapsed:.2f}s")


def test_03_uniform_grid_coefficient_identities():
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(100):
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        half_a, beta, _, _ = step_factors(k, k, k, k)
        # pre_filtered at y_n = 0 and kappa_prev = -2 returns alpha exactly
        alpha = pre_filtered(half_a, (0.0,), (-2.0,))[0]
        worst = max(worst, abs(alpha - 1.0))
        worst = max(worst, abs(beta - 5.0 / 11.0) / (5.0 / 11.0))
    assert worst <= 1e-14
    print(f"PASS 03 uniform-grid identities: worst relative deviation {worst:.2e}")


def test_04_beta_closed_form_matches_oracle():
    rng = random.Random(20260817)
    worst = 0.0
    excluded = 0
    total = 1000
    for _ in range(total):
        steps = tuple(rng.uniform(1e-3, 10.0) for _ in range(4))
        closed = _beta(*steps)
        if closed is None:
            excluded += 1
            continue
        oracle = beta_oracle(*steps)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    assert worst <= 1e-10, f"worst relative difference {worst:.3e}"
    assert excluded < total
    print(f"PASS 04 closed form vs oracle: worst rel diff {worst:.2e}, "
          f"excluded {excluded}/{total} ({excluded / total:.2%})")


def test_05_polynomial_exactness():
    """With exact history, the pre-filtered stage reproduces t^2 and the
    post-filtered step reproduces t^3, on arbitrary positive step grids.

    The rhs is y-independent, so the implicit stage has the closed-form
    solution y_tilde + k*f(t_next); it is substituted directly, keeping
    the check meaningful at grid scales where an iterative solve would
    stop inside its own (absolute-floored) residual tolerance without
    refining the state.
    """
    rng = random.Random(20260818)
    worst2 = worst3 = 0.0
    t0 = time.perf_counter()
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-4.0, 2.0)
        k3 = scale
        k2 = k3 * rng.uniform(0.5, 2.0)
        k1 = k2 * rng.uniform(0.5, 2.0)
        kn = k1 * rng.uniform(0.5, 2.0)
        t1 = k3
        t2 = t1 + k2
        t3 = t2 + k1
        t4 = t3 + kn

        # the steps as the history's times give them
        k_nm1, k_nm2, k_nm3 = t3 - t2, t2 - t1, t1
        half_a, beta, v_next, v_prev = step_factors(kn, k_nm1, k_nm2, k_nm3)

        for power in (2, 3):
            y_nm2, y_nm1, y_n = ((t ** power,) for t in (t1, t2, t3))
            kappa_prev = curvature(k_nm2, k_nm1, y_nm2, y_nm1, y_n)
            y_tilde = pre_filtered(half_a, y_n, kappa_prev)
            y_stage = (y_tilde[0] + kn * power * t4 ** (power - 1),)
            if power == 2:
                worst2 = max(worst2, abs(y_stage[0] - t4 ** 2) / t4 ** 2)
            else:
                y_third, _ = post_filtered(beta, v_next, v_prev, y_nm1, y_n,
                                           kappa_prev, y_stage, None)
                worst3 = max(worst3, abs(y_third[0] - t4 ** 3) / t4 ** 3)
    elapsed = time.perf_counter() - t0
    assert worst2 <= 1e-12, f"quadratic reproduction off by {worst2:.3e}"
    assert worst3 <= 1e-10, f"cubic reproduction off by {worst3:.3e}"
    assert elapsed < 1.0
    print(f"PASS 05 polynomial exactness: quadratic {worst2:.2e}, "
          f"cubic {worst3:.2e}, {elapsed:.2f}s")


def test_06_adaptive_model_problem_bands(bench_model):
    bands = [
        ((5e-6, 5e-5), (160, 240)),
        ((5e-9, 5e-8), (1600, 2400)),
    ]
    for run, ((err_lo, err_hi), (acc_lo, acc_hi)) in zip(bench_model.value, bands):
        assert err_lo <= run.final_error <= err_hi, run.label
        assert acc_lo <= run.stats.accepted <= acc_hi, run.label
    assert bench_model.seconds < 1.0
    errs = ", ".join(f"{r.final_error:.3e}/{r.stats.accepted} steps"
                     for r in bench_model.value)
    print(f"PASS 06 adaptive model problem: {errs}, {bench_model.seconds:.2f}s")


def test_07_quasi_periodic_accuracy(bench_qp):
    t0 = time.perf_counter()
    const = constant_run(Method.IE_PRE_POST_3, QP, 2000)
    const_elapsed = time.perf_counter() - t0
    const_err = const.trajectory.final_error(QP.problem.exact, 0)
    assert const_err == pytest.approx(2.11669e-03, rel=0.10)

    adaptive_err = bench_qp.value.final_error
    assert adaptive_err <= 1e-2
    elapsed = const_elapsed + bench_qp.seconds
    assert elapsed < 2.0
    print(f"PASS 07 quasi-periodic: constant {const_err:.5e}, "
          f"adaptive {adaptive_err:.5e}, {elapsed:.2f}s")


def test_08_controller_invariants_and_determinism(all_bench_runs):
    est_viol = ratio_viol = pairs = 0
    for run in all_bench_runs:
        traj, tol = run.trajectory, run.cfg.tol
        n = len(traj)
        ks, est = traj.ks, traj.est
        for i in range(4, n):
            if est[i] > tol * ks[i]:
                est_viol += 1
        # consecutive accepted steps: exact powers of two, never more
        # than one doubling; the final two steps are the end-of-interval
        # clamp region and are exempt
        for i in range(4, n - 3):
            e = math.log2(ks[i + 1] / ks[i])
            pairs += 1
            if abs(e - round(e)) > 1e-9 or round(e) > 1:
                ratio_viol += 1
    assert est_viol == 0, f"{est_viol} accepted steps exceeded tol*k"
    assert ratio_viol == 0, f"{ratio_viol} step-ratio violations"

    # bit-determinism: repeat one run of each flavour and compare rows
    repeated = 0
    for orig in (all_bench_runs[1], all_bench_runs[3], all_bench_runs[6]):
        rerun = adaptive_run(orig.spec, orig.cfg.tol, orig.cfg.dt0,
                             t_range=(orig.cfg.t_begin, orig.cfg.t_end))
        a, b = orig.trajectory, rerun.trajectory
        assert a.times == b.times, orig.label
        assert a.states == b.states, orig.label
        assert a.est == b.est, orig.label
        assert a.ks == b.ks, orig.label
        assert orig.stats == rerun.stats, orig.label
        repeated += 1
    print(f"PASS 08 controller invariants: 0 estimate violations, "
          f"0 ratio violations over {pairs} pairs, "
          f"{repeated} runs repeated bit-identically")


def test_09_van_der_pol_tracks_reference(bench_vdp):
    final_times = {1.0: 50.0, 10.0: 200.0, 100.0: 500.0}
    comparisons = {c.mu: c for c in bench_vdp.value}
    assert set(comparisons) == set(final_times)
    for mu, t_end in final_times.items():
        comp = comparisons[mu]
        assert comp.run.cfg.t_end == t_end
        assert comp.run.trajectory.final_time() == pytest.approx(t_end, rel=1e-12)
        assert comp.self_convergence < 1e-2
        assert comp.difference <= 0.2, f"mu={mu}: off by {comp.difference}"
    assert bench_vdp.seconds < 60.0
    diffs = ", ".join(f"mu={c.mu:g}: {c.difference:.2e}" for c in bench_vdp.value)
    print(f"PASS 09 van der Pol vs reference: {diffs}, {bench_vdp.seconds:.1f}s")


def test_10_stiffness_sweep_accuracy(bench_analog):
    settings = {1.0: (2.5e-5, 1e-5), 3.0: (2.5e-5, 1e-5), 5.0: (2.5e-4, 1e-4)}
    runs = {r.spec.parameters["gamma"]: r for r in bench_analog.value}
    assert set(runs) == set(settings)
    for gamma, (tol, dt0) in settings.items():
        run = runs[gamma]
        assert (run.cfg.tol, run.cfg.dt0) == (tol, dt0)
        assert (run.cfg.t_begin, run.cfg.t_end) == (0.0, gamma)
        assert run.final_error <= 1e-4, f"gamma={gamma}: {run.final_error}"
    assert bench_analog.seconds < 5.0
    errs = ", ".join(f"gamma={g:g}: {runs[g].final_error:.2e}" for g in sorted(runs))
    print(f"PASS 10 stiffness sweep: {errs}, {bench_analog.seconds:.2f}s")
