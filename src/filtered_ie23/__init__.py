"""Filtered implicit Euler integrators with an embedded 2(3) error estimate.

The solver family starts from backward (implicit) Euler and adds two cheap
time filters: a pre-filter applied to the history before the implicit solve
lifts the method to second order, and a post-filter applied to the result
lifts it to third order on variable grids.  The gap between the filtered and
unfiltered solutions is an embedded error estimate that drives a
halving/doubling step controller.

Entry points:
  solve_filtered_ie23   adaptive second-order solve with third-order estimate
  solve_ie_pre_2        constant-step pre-filtered method (second order)
  solve_ie_pre_post_3   constant-step pre+post filtered method (third order)
  solve_rk4_reference   classical RK4, used to manufacture reference values
  make_problem          test problems: model, quasi-periodic, model-analog,
                        van-der-pol
  convergence_table     constant-step refinement study
"""

from .adaptive import AdaptiveRunStats, solve_filtered_ie23
from .bench import (BenchRun, ConvergenceReport, ConvergenceRow, VdpComparison,
                    adaptive_run, analog_benchmark_runs,
                    compare_adaptive_constant, constant_run, convergence_table,
                    emit_csv, model_benchmark_runs,
                    quasi_periodic_benchmark_run, read_csv, vdp_benchmark_runs,
                    vdp_reference)
from .core import OdeProblem, SolverConfig, Trajectory
from .errors import (DegenerateBeta, DimensionMismatch, MinStepReached,
                     NewtonDiverged, NonFiniteState, NonMonotonicTimes,
                     NonPositiveStep, SingularLinearSystem, SolverError)
from .filters import curvature
from .newton import NewtonOutcome, implicit_euler_stage
from .problems import (ProblemSpec, make_problem, model_analog_problem,
                       model_problem, quasi_periodic_problem,
                       van_der_pol_problem)
from .steppers import (ConstantStepRun, Method, rk3_step, solve_ie_pre_2,
                       solve_ie_pre_post_3, solve_rk4_reference)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRunStats", "BenchRun", "ConstantStepRun", "ConvergenceReport",
    "ConvergenceRow", "DegenerateBeta", "DimensionMismatch",
    "Method", "MinStepReached", "NewtonDiverged",
    "NewtonOutcome", "NonFiniteState", "NonMonotonicTimes",
    "NonPositiveStep", "OdeProblem", "ProblemSpec", "SingularLinearSystem",
    "SolverConfig", "SolverError", "Trajectory", "VdpComparison",
    "adaptive_run", "analog_benchmark_runs", "compare_adaptive_constant",
    "constant_run", "convergence_table", "curvature", "emit_csv",
    "implicit_euler_stage", "make_problem", "model_analog_problem",
    "model_benchmark_runs", "model_problem",
    "quasi_periodic_benchmark_run", "quasi_periodic_problem", "read_csv",
    "rk3_step", "solve_filtered_ie23", "solve_ie_pre_2",
    "solve_ie_pre_post_3", "solve_rk4_reference", "van_der_pol_problem",
    "vdp_benchmark_runs", "vdp_reference",
]
