"""The benchmark tracer's contract with the package, checked in tier-1.

perfbench/tracing.py counts and times the layers by rebinding module
globals (adaptive.implicit_euler_stage, adaptive.Trajectory, rk3_step and
others) and cross-checks its trace against the solver's own statistics.
A loop that reached a layer another way would make those checks fail, or
pass while counting nothing; this test runs them on a few small solves.
"""

import importlib.util
from pathlib import Path

import filtered_ie23 as fi

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _snapshot():
    modules = (fi.bench, fi.adaptive, fi.steppers)
    return {m.__name__: dict(vars(m)) for m in modules}, dict(fi.bench.CONSTANT_SOLVERS)


def test_traced_runs_agree_with_the_solver_and_restore_the_package():
    modules, table = _snapshot()
    tracer = tracing.Tracer()
    with tracer.installed(fi):
        assert fi.adaptive.implicit_euler_stage is not modules["filtered_ie23.adaptive"][
            "implicit_euler_stage"]
        wrap, bench = tracer.wrap_spec, fi.bench
        runs = [
            bench.adaptive_run(wrap(fi.model_analog_problem(3.0)), 2.5e-4, 1e-3),
            bench.adaptive_run(wrap(fi.van_der_pol_problem(100.0)), 1e-3, 1e-3,
                               t_range=(0.0, 80.0)),
            bench.adaptive_run(wrap(fi.quasi_periodic_problem()), 7.5e-3, 0.01),
        ]
        bench.convergence_table(fi.Method.IE_PRE_POST_3,
                                wrap(fi.quasi_periodic_problem()), [100])
    metrics, problems = tracer.layer_metrics()
    assert problems == []
    assert metrics["adaptive.accepted"] == sum(r.stats.accepted for r in runs)
    assert metrics["adaptive.rejected"] == sum(r.stats.rejected for r in runs)
    assert metrics["newton.failures"] == sum(r.stats.newton_failures for r in runs) > 0
    assert metrics["steppers.rk3_calls"] == 3 * len(runs) + 3 * 2
    assert metrics["steppers.ie3_steps"] == 100 + 200
    assert metrics["core.append_calls"] == sum(len(r.trajectory) for r in runs) + 101 + 201

    after_modules, after_table = _snapshot()
    assert after_table.keys() == table.keys()
    assert all(after_table[m] is table[m] for m in table)
    for name, before in modules.items():
        after = after_modules[name]
        assert after.keys() == before.keys(), name
        changed = [attr for attr in before if after[attr] is not before[attr]]
        assert changed == [], name
