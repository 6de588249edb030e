"""Command-line interface.

Subcommands:
  solve        integrate one problem and print a summary (optionally CSV)
  convergence  constant-step refinement table for a method on a problem
  compare      adaptive run vs the constant-step method at equal work
  problems     list the registered problems

Exit codes: 0 success, 1 solver failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench import (CONSTANT_SOLVERS, adaptive_run, compare_adaptive_constant,
                    convergence_table, emit_csv)
from .core import SolverConfig
from .errors import SolverError
from .problems import REGISTRY, make_problem
from .steppers import Method

_METHODS = {
    "ie-pre-2": Method.IE_PRE_2,
    "ie-pre-post-3": Method.IE_PRE_POST_3,
    "rk4-ref": Method.RK4_REF,
}
_ADAPTIVE = "filtered-ie23"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="filtered-ie23",
        description="Filtered implicit Euler integrators and benchmarks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="integrate one problem")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--method", default=_ADAPTIVE,
                    choices=sorted(_METHODS) + [_ADAPTIVE])
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--dt0", type=float, default=None,
                    help="initial/constant step (default: span/200)")
    sp.add_argument("--t0", type=float, default=None)
    sp.add_argument("--t1", type=float, default=None)
    sp.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                    help="problem parameter, e.g. --param mu=10")
    sp.add_argument("--out", default=None, help="write the trajectory CSV here")

    cp = sub.add_parser("convergence", help="refinement table")
    cp.add_argument("--problem", required=True)
    cp.add_argument("--method", default="ie-pre-post-3", choices=sorted(_METHODS))
    cp.add_argument("--steps", required=True,
                    help="comma-separated increasing step counts, e.g. 40,80,160")
    cp.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")

    mp = sub.add_parser("compare", help="adaptive vs constant-step at equal work")
    mp.add_argument("--problem", required=True)
    mp.add_argument("--tol", type=float, required=True)
    mp.add_argument("--dt0", type=float, required=True)
    mp.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")

    sub.add_parser("problems", help="list registered problems")
    return ap


def _parse_params(pairs: Sequence[str]) -> dict[str, float]:
    params = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects NAME=VALUE, got {item!r}")
        params[name] = float(value)
    return params


def _make_spec(args):
    return make_problem(args.problem, **_parse_params(args.param))


def _cmd_solve(args) -> int:
    spec = _make_spec(args)
    t0 = args.t0 if args.t0 is not None else spec.default_range[0]
    t1 = args.t1 if args.t1 is not None else spec.default_range[1]
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got {t0!r} .. {t1!r}")
    dt0 = args.dt0 if args.dt0 is not None else (t1 - t0) / 200.0
    k_max = max((t1 - t0) / 10.0, dt0)
    cfg = SolverConfig(tol=args.tol, dt0=dt0, t_begin=t0, t_end=t1, k_max=k_max)

    if args.method == _ADAPTIVE:
        run = adaptive_run(spec, args.tol, dt0, t_range=(t0, t1))
        traj, stats = run.trajectory, run.stats
        print(f"{spec.problem.name}: {stats.accepted} accepted, "
              f"{stats.rejected} rejected, {stats.doublings} doublings, "
              f"k in [{stats.min_k_used:.3e}, {stats.max_k_used:.3e}]")
        err = run.final_error
    else:
        solver = CONSTANT_SOLVERS[_METHODS[args.method]]
        result = solver(spec.problem, cfg, spec.default_initial_state)
        traj = result.trajectory
        print(f"{spec.problem.name}: {traj.steps_taken} steps of {dt0:g}")
        err = None
        if spec.problem.exact is not None:
            err = traj.final_error(spec.problem.exact, spec.problem.est_component)

    final = ", ".join(repr(c) for c in traj.final_state())
    print(f"t = {traj.final_time()!r}")
    print(f"y = ({final})")
    if err is not None:
        print(f"final error = {err:.6e}")
    if args.out:
        emit_csv(traj, args.out)
        print(f"wrote {len(traj)} rows to {args.out}")
    return 0


def _cmd_convergence(args) -> int:
    spec = _make_spec(args)
    steps = [int(s) for s in args.steps.split(",") if s]
    report = convergence_table(_METHODS[args.method], spec, steps)
    print(f"{args.method} on {report.problem}")
    print(f"{'Steps':>8} {'Error':>14} {'Ratio':>10} {'Order':>8}")
    for row in report.rows:
        ratio = f"{row.ratio:.5f}" if row.ratio is not None else "-"
        order = f"{row.order:.5f}" if row.order is not None else "-"
        print(f"{row.steps:>8} {row.error:>14.6e} {ratio:>10} {order:>8}")
    return 0


def _cmd_compare(args) -> int:
    spec = _make_spec(args)
    rows = compare_adaptive_constant(spec, args.tol, args.dt0)
    print(f"{spec.problem.name} at tol={args.tol:g}, dt0={args.dt0:g}")
    print(f"{'Method':>15} {'Steps':>8} {'Final error':>14}")
    for label, steps, err in rows:
        shown = f"{err:.6e}" if err is not None else "-"
        print(f"{label:>15} {steps:>8} {shown:>14}")
    return 0


def _cmd_problems(args) -> int:
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]()
        p = spec.problem
        t0, t1 = spec.default_range
        params = ", ".join(f"{k}={v:g}" for k, v in spec.parameters.items()) or "-"
        exact = "closed form" if p.exact is not None else "reference only"
        print(f"{name:>15}  dim {p.dimension}  [{t0:g}, {t1:g}]  "
              f"params: {params}  ({exact})")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "compare": _cmd_compare,
    "problems": _cmd_problems,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, TypeError, ArithmeticError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
