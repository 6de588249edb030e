"""Time-to-solution benchmark for the filtered_ie23 package.

Usage, from the root of a source checkout (no install; the harness puts
`src` on the import path itself):

    python3 perfbench/run.py --workload vdp-stiff --seed 1 --seconds 10 --trace 0

One process, one thread, one caller: the workload's solves run in
sequence, as rounds of a closed loop, until --seconds have passed.  The
seed generates the inputs; the package sees only those.  Every answer is
checked, every round must repeat the first bit for bit, and the canonical
(unperturbed) inputs must reproduce perfbench/pins.json exactly.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones; the traced answers must equal the untraced ones.  The
last line of standard output is one JSON object; the exit code is 0 only
if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import BENCH_REFERENCE, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# at least this many rounds and untraced set-ups, however short --seconds,
# as long as they start within HARD_S of the run's start; set-up gets more
# samples because a costly one (vdp-stiff's) is too slow to repeat often
ROUNDS_MIN = 3
SETUPS_MIN = 4
# no round starts that would end, with the pins check after it, past
# --seconds (once ROUNDS_MIN are done) or past HARD_S (once one is done),
# so that a run ends near --seconds however slow the machine is
HARD_S = 120.0
# a run still going after this many seconds fails without a result
WATCHDOG_S = 170
# besides one set-up in each of the first SETUPS_MIN rounds, set up again
# while timing set-ups (their probe runs included) has taken less than
# this share of the run: cheap set-ups get many samples, costly ones leave
# the run's time to the solves
SETUP_SHARE = 0.2
TRACE_DIR = ROOT / ".perfbench-out"
# the probe's time on the VM this benchmark was tuned on, at its fastest
PROBE_REF_S = 0.05


def _identity(spec):
    return spec


def _import_package():
    """Import filtered_ie23 from scratch, as a fresh process would."""
    for name in [m for m in sys.modules
                 if m == "filtered_ie23" or m.startswith("filtered_ie23.")]:
        del sys.modules[name]
    return importlib.import_module("filtered_ie23")


def _probe() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python job
    of the solvers' kind: 15000 RK4 steps of a 2-D oscillator, with
    tuples, float arithmetic and function calls.  The garbage collector
    is off while it runs, so that collecting the solves' garbage does not
    read as a slow machine.

    The benchmark was tuned on a shared VM whose speed drifts by up to 2x
    in spells that last from seconds to over a minute, longer than a run.
    Each timed solve and set-up piece is therefore paired with the mean
    of the probe runs just before and just after it, and reported
    rescaled to PROBE_REF_S: seconds at the machine's reference speed.
    The probe is fixed benchmark code, so a change to the package moves
    the rescaled times exactly as it moves the measured ones.
    """
    def f(y):
        return (y[1], -y[0] + 0.1 * (1.0 - y[0] * y[0]) * y[1])

    h = 1e-3
    y = (1.0, 0.0)
    gc.disable()
    t0 = perf_counter()
    for _ in range(15000):
        k1 = f(y)
        k2 = f(tuple(y[i] + 0.5 * h * k1[i] for i in range(2)))
        k3 = f(tuple(y[i] + 0.5 * h * k2[i] for i in range(2)))
        k4 = f(tuple(y[i] + h * k3[i] for i in range(2)))
        y = tuple(y[i] + h / 6.0 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                  for i in range(2))
    seconds = perf_counter() - t0
    gc.enable()
    return seconds


def _at_reference_speed(samples) -> float:
    """The median over (seconds, probe seconds) samples of the seconds
    rescaled to the probe's reference time."""
    return statistics.median(s * PROBE_REF_S / p for s, p in samples)


def _normal(value):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


class Harness:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0       # solves run, checked or compared
        self.failures = []       # one line per failed solve
        self.fi = None
        self.cases = None
        self.refs = None
        self.first = None        # signatures of the first round
        self.errors = []         # final error of each solve, first round
        self.setup_times = []    # each set-up's seconds at reference speed
        # timings are (seconds, mean seconds of the probe runs around it)
        self.plain = []          # per untraced round, each solve's
        self.traced = []         # per traced round, each solve's
        self.layers = []         # per traced round, its per-layer metrics
        self.trace_problems = []  # inconsistencies between trace and solver
        self.first_tracer = None  # the first traced round's tracer, kept whole
        self.setup_tracer = None  # traced run: the tracer of its one set-up

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    # -- set-up --------------------------------------------------------

    def setup(self, tracer=None):
        """Import, generate the inputs, compute the check references.

        A generator: it yields after the import and input generation, and
        untraced after each check reference, so that timed_setup can time
        each piece between probe runs."""
        self.fi = _import_package()
        self.cases = self.workload.cases(random.Random(self.seed))
        yield
        reference = self.workload.reference
        self.refs = [None] * len(self.cases)
        if reference is None:
            return
        if tracer is None:
            for pos, case in enumerate(self.cases):
                self.refs[pos] = reference(self.fi, case, _identity)
                yield
        else:
            with tracer.installed(self.fi):
                traced = tracer.span(BENCH_REFERENCE, reference, lambda r: r[1])
                self.refs = [traced(self.fi, c, tracer.wrap_spec) for c in self.cases]

    def timed_setup(self):
        """One set-up, each piece of it timed between probe runs; records
        its seconds at reference speed and returns the seconds it all took,
        probe runs included."""
        t_all = perf_counter()
        gc.collect()         # free the previous import before timing the next
        total = 0.0
        probe = _probe()
        t0 = perf_counter()
        for _ in self.setup():
            seconds = perf_counter() - t0
            after = _probe()
            total += seconds * PROBE_REF_S / (0.5 * (probe + after))
            probe = after
            t0 = perf_counter()
        self.setup_times.append(total)
        return perf_counter() - t_all

    # -- one round -----------------------------------------------------

    def round(self, wrap=_identity):
        """Solve every case once; return (each solve's timing, results)."""
        solver_errors = (self.fi.SolverError, ValueError)
        timings, results = [], []
        probe = _probe()
        for case in self.cases:
            t0 = perf_counter()
            try:
                results.append(self.workload.solve(self.fi, case, wrap))
            except solver_errors as exc:
                results.append(exc)
            seconds = perf_counter() - t0
            after = _probe()
            timings.append((seconds, 0.5 * (probe + after)))
            probe = after
        return timings, results

    def judge(self, results, kind):
        """Check a round: the first one against the answer checks, every
        later one against the first, bit for bit."""
        w = self.workload
        first = self.first is None
        if first:
            self.first = []
        for pos, (case, result) in enumerate(zip(self.cases, results)):
            label = f"{kind} {case['label']}"
            if isinstance(result, Exception):
                sig = f"{type(result).__name__}: {result}"
                problems = [sig]
            else:
                sig = _normal(w.signature(result))
                problems = []
            if first:
                self.first.append(sig)
                if not problems:
                    err, problems = w.check(case, result, self.refs[pos])
                    self.errors.append(err)
            elif sig != self.first[pos]:
                problems.append(f"answer differs from the first round: {sig!r} "
                                f"vs {self.first[pos]!r}")
            self.record(label, problems)

    def loop(self, traced):
        """Rounds until the time is up, and at least ROUNDS_MIN of them
        (see HARD_S).

        Untraced, a round starts with fresh set-ups (see SETUPS_MIN and
        SETUP_SHARE), so set-up and solves sample the same stretch of
        time, whose speed drifts on a shared machine.  Traced,
        set-up runs once beforehand, traced, and each round is an
        untraced pass over the solves followed by a traced one."""
        t_start = perf_counter()
        if traced:
            self.setup_tracer = Tracer()
            for _ in self.setup(self.setup_tracer):
                pass
        t0 = perf_counter()
        t_end, t_hard = t_start + self.seconds, t_start + HARD_S
        last = 0.0           # seconds of the last pass through the loop
        spent = 0.0          # seconds spent on timed set-ups
        while True:
            t_pass = perf_counter()
            if self.plain:
                # this pass, then the pins check: about one untraced round
                finish = t_pass + last + sum(s for s, _ in self.plain[-1])
                if finish > t_hard or (len(self.plain) >= ROUNDS_MIN and finish > t_end):
                    break
            if not traced:
                if len(self.setup_times) < SETUPS_MIN:
                    spent += self.timed_setup()
                while spent < SETUP_SHARE * (perf_counter() - t0):
                    spent += self.timed_setup()
            timings, results = self.round()
            self.plain.append(timings)
            self.judge(results, "untraced")
            del results
            if traced:
                tracer = Tracer()
                with tracer.installed(self.fi):
                    timings, results = self.round(tracer.wrap_spec)
                self.traced.append(timings)
                self.judge(results, "traced")
                del results
                metrics, found = tracer.layer_metrics()
                self.layers.append(metrics)
                self.trace_problems.extend(found)
                if self.first_tracer is None:
                    self.first_tracer = tracer
            last = perf_counter() - t_pass

    def check_pins(self):
        """The canonical inputs must reproduce the pinned answers exactly."""
        pins = json.loads((HERE / "pins.json").read_text())[self.workload.name]
        cases = self.workload.cases(None)
        for case in cases:
            want = pins.get(case["label"])
            try:
                got = _normal(self.workload.signature(
                    self.workload.solve(self.fi, case, _identity)))
            except (self.fi.SolverError, ValueError) as exc:
                got = f"{type(exc).__name__}: {exc}"
            problems = [] if got == want else [f"pinned {want!r}, got {got!r}"]
            self.record(f"pinned {case['label']}", problems)


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _time_to_solution(rounds) -> float:
    """The sum over the workload's solves of each solve's median over the
    rounds, at reference speed (see _probe)."""
    return sum(_at_reference_speed(samples) for samples in zip(*rounds))


def _end_to_end(h: Harness) -> dict:
    return {
        "wall_s": _time_to_solution(h.plain),
        "setup_s": statistics.median(h.setup_times),
        "final_error_max": max(h.errors) if h.errors else float("nan"),
        "solved_share": (h.attempted - len(h.failures)) / h.attempted,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(h: Harness) -> dict:
    out = {name: statistics.median(r[name] for r in h.layers) for name in h.layers[0]}
    # the vdp-stiff check references run in set-up, not in the rounds
    ref, _ = h.setup_tracer.layer_metrics()
    out["bench.reference_s"] += ref["bench.reference_s"]
    out["bench.reference_self_conv"] = max(out["bench.reference_self_conv"],
                                           ref["bench.reference_self_conv"])
    out["trace.overhead_share"] = (_time_to_solution(h.traced)
                                   / _time_to_solution(h.plain) - 1.0)
    return out


def _overrun(signum, frame):
    raise SystemExit(f"FAILED the run took more than {WATCHDOG_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(WATCHDOG_S)

    if not (ROOT / "src" / "filtered_ie23").is_dir():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_specs()
    sys.path.insert(0, str(ROOT / "src"))

    h = Harness(WORKLOADS[args.workload], args.seed, args.seconds)
    problems = []
    h.loop(traced=bool(args.trace))
    h.check_pins()

    if any(m == "scipy" or m.startswith("scipy.") for m in sys.modules):
        problems.append("scipy was imported")

    if args.trace:
        values = _per_layer(h)
        problems.extend(sorted(set(h.trace_problems)))
        units = layer_units
        TRACE_DIR.mkdir(exist_ok=True)
        h.first_tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.csv")
        lines = h.first_tracer.solve_lines()
        if lines:
            print(f"{args.workload}: first traced round, per adaptive solve")
            print("\n".join(lines))
    else:
        values = _end_to_end(h)
        units = e2e_units
    missing = set(units) ^ set(values)
    if missing:
        problems.append(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    for failure in h.failures + problems:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(h.plain)} untraced rounds, "
          f"{h.attempted} solves, {len(h.failures)} failed")
    for case, samples in zip(h.cases, zip(*h.plain)):
        times = [s for s, _ in samples]
        print(f"  {case['label']}: measured median {statistics.median(times):.4f} s, "
              f"min {min(times):.4f} s, max {max(times):.4f} s over "
              f"{len(times)} untraced rounds; at reference speed "
              f"{_at_reference_speed(samples):.4f} s")
    probes = [p for r in h.plain for _, p in r]
    print(f"  probe: median {statistics.median(probes):.4f} s, min {min(probes):.4f} s, "
          f"max {max(probes):.4f} s (reference {PROBE_REF_S} s)")
    for name in units:
        if name in values:
            print(f"  {name:32s} {values[name]:.6g} {units[name]}")
    correct = not h.failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": h.attempted,
        "failed": len(h.failures) + len(problems),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
