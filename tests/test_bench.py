import dataclasses
import json
import math
from pathlib import Path

import pytest

from filtered_ie23 import (Method, OdeProblem, Trajectory, adaptive_run,
                           compare_adaptive_constant, constant_run,
                           convergence_table, emit_csv, make_problem,
                           quasi_periodic_problem, read_csv)
from filtered_ie23 import bench, steppers
from filtered_ie23.problems import ProblemSpec

MODEL = make_problem("model")
QP = quasi_periodic_problem()


class TestConstantRun:
    def test_wiring(self):
        run = constant_run(Method.IE_PRE_POST_3, MODEL, 40)
        assert len(run.trajectory) == 41
        assert list(run.trajectory.ks[1:4]) == [0.05] * 3
        assert run.trajectory.est[-1] > 0.0
        assert run.trajectory.final_time() == 2.0

    def test_range_override(self):
        # the run follows the spec's range
        spec = dataclasses.replace(MODEL, default_range=(0.0, 1.0))
        run = constant_run(Method.RK4_REF, spec, 10)
        assert list(run.trajectory.ks[1:]) == [0.1] * 10
        assert run.trajectory.final_time() == 1.0


class TestConvergenceTable:
    def test_rows_orders_and_hidden_level(self):
        report = convergence_table(Method.IE_PRE_POST_3, MODEL, [40, 80])
        assert report.problem == "model"
        assert [r.steps for r in report.rows] == [40, 80]
        # the last row still gets a ratio, from a hidden run at 160 steps
        for row in report.rows:
            assert row.ratio is not None
            assert row.order == pytest.approx(math.log2(row.ratio))
            assert row.order == pytest.approx(3.0, abs=0.2)
        assert report.rows[0].ratio == pytest.approx(
            report.rows[0].error / report.rows[1].error)

    def test_requires_steps(self):
        with pytest.raises(ValueError, match="empty"):
            convergence_table(Method.IE_PRE_POST_3, MODEL, [])

    def test_requires_increasing_steps(self):
        with pytest.raises(ValueError):
            convergence_table(Method.IE_PRE_POST_3, MODEL, [80, 40])

    def test_requires_exact_solution(self):
        vdp = make_problem("van-der-pol")
        with pytest.raises(ValueError):
            convergence_table(Method.IE_PRE_POST_3, vdp, [40, 80])

    def test_roundoff_rows_lose_ratio(self):
        # a problem the method solves exactly: errors sit at zero, so
        # ratios and orders are meaningless and reported as None
        const = ProblemSpec(
            problem=OdeProblem(1, lambda t, y: (0.0,), lambda t, y: ((0.0,),),
                               lambda t: (5.0,), name="const"),
            default_range=(0.0, 1.0),
            default_initial_state=(5.0,),
        )
        report = convergence_table(Method.IE_PRE_POST_3, const, [8, 16])
        for row in report.rows:
            assert row.error < 1e-13
            assert row.ratio is None and row.order is None


class TestCompare:
    def test_row_structure(self):
        rows = compare_adaptive_constant(MODEL, 0.005, 0.01)
        (alabel, asteps, aerr), (clabel, csteps, cerr) = rows
        assert alabel == "filtered-ie23"
        assert clabel == "ie-pre-post-3"
        assert csteps == asteps + 3
        # both third-order solvers land close to the true solution
        assert aerr < 1e-4 and cerr < 1e-4


class TestFrozenModelRuns:
    """Bit-level regression pins for the adaptive model runs (the bands
    the acceptance tests check are much wider)."""

    def test_loose_tolerance_run(self, bench_model):
        run = bench_model.value[0]
        s = run.stats
        assert (s.accepted, s.rejected, s.doublings) == (197, 0, 0)
        assert run.final_error == pytest.approx(1.5495617123661987e-05, rel=1e-12)
        assert s.max_k_used == 0.01

    def test_tight_tolerance_run(self, bench_model):
        run = bench_model.value[1]
        s = run.stats
        assert (s.accepted, s.rejected, s.doublings) == (1998, 1543, 1544)
        assert run.final_error == pytest.approx(1.595843190926871e-08, rel=1e-12)

    def test_labels(self, bench_model):
        assert [r.label for r in bench_model.value] == [
            "model tol=5e-3", "model tol=2.5e-4"]


class TestFrozenQuasiPeriodicRuns:
    def test_adaptive_run(self, bench_qp):
        run = bench_qp.value
        s = run.stats
        assert (s.accepted, s.rejected, s.doublings) == (1997, 52, 53)
        assert run.final_error == pytest.approx(2.115586729291019e-03, rel=1e-12)

    def test_constant_step_reference_rows(self):
        # frozen final position errors for the third-order constant-step
        # method at three resolutions
        for n, want in ((200, 1.98829e+00), (400, 2.86552e-01),
                        (2000, 2.11669e-03)):
            run = constant_run(Method.IE_PRE_POST_3, QP, n)
            err = run.trajectory.final_error(QP.problem.exact, 0)
            assert err == pytest.approx(want, rel=0.1)


class TestFrozenAnalogRuns:
    EXPECT = {
        1.0: (12531, 12313, 12318, 1.3014202849e-07),
        3.0: (89621, 28890, 28894, 1.8892785817e-06),
        5.0: (49997, 22035, 22037, 3.4714431330e-10),
    }

    def test_counts_and_errors(self, bench_analog):
        for run in bench_analog.value:
            gamma = run.spec.parameters["gamma"]
            acc, rej, dbl, err = self.EXPECT[gamma]
            s = run.stats
            assert (s.accepted, s.rejected, s.doublings) == (acc, rej, dbl)
            assert run.final_error == pytest.approx(err, rel=1e-9)


class TestFrozenVanDerPolRuns:
    EXPECT = {
        1.0: (10272, 662, 660, -2.0075075924, 2.1838e-04),
        10.0: (265155, 106599, 106595, -1.9519993875, 1.4804e-02),
        100.0: (82438, 28504, 28517, 1.8833019677, 3.7503e-02),
    }

    def test_counts_finals_and_reference_distance(self, bench_vdp):
        for comp in bench_vdp.value:
            acc, rej, dbl, x_final, diff = self.EXPECT[comp.mu]
            s = comp.run.stats
            assert (s.accepted, s.rejected, s.doublings) == (acc, rej, dbl)
            assert comp.run.trajectory.final_state()[0] == pytest.approx(
                x_final, rel=1e-9)
            assert comp.difference == pytest.approx(diff, rel=1e-3)
            # the reference itself must be internally validated
            assert comp.self_convergence < bench.VDP_REFERENCE_RTOL


class TestPerfbenchPins:
    """perfbench/pins.json pins the benchmark's canonical answers bit for
    bit.  The session fixtures solve the same inputs: analog gamma =
    1/3/5, model at tol 2.5e-4 and van der Pol at mu = 100; the
    constant-step quasi-periodic table is solved here."""

    @staticmethod
    def _signature(run):
        s = run.stats
        return [s.accepted, s.rejected, s.doublings, s.newton_failures,
                s.min_k_used, s.max_k_used, len(run.trajectory),
                list(run.trajectory.final_state())]

    @staticmethod
    def _pins():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def test_fixtures_reproduce_the_pins(self, bench_model, bench_analog, bench_vdp):
        pins = self._pins()
        scalar = {f"model-analog gamma={run.spec.parameters['gamma']!r}": run
                  for run in bench_analog.value}
        scalar["model tol=2.5e-4"] = bench_model.value[1]
        assert {label: self._signature(run) for label, run in scalar.items()} \
            == pins["scalar-analog"]
        vdp = {comp.mu: comp.run for comp in bench_vdp.value}
        assert self._signature(vdp[100.0]) == pins["vdp-stiff"]["van-der-pol mu=100"]

    def test_reference_reproduces_the_pin_without_a_trajectory(self, monkeypatch):
        class Unbuildable:
            def __init__(self, dimension):
                raise AssertionError("vdp_reference built a Trajectory")

        monkeypatch.setattr(steppers, "Trajectory", Unbuildable)
        fine, conv = bench.vdp_reference(1.0)
        assert [list(fine), conv] \
            == self._pins()["constant-step"]["vdp_reference mu=1.0"]

    def test_quasi_periodic_table_reproduces_the_pin(self):
        # the generic (d = 4) Newton stage over 15k steps, 1000 to 8000
        table = convergence_table(Method.IE_PRE_POST_3, QP, [1000, 2000, 4000])
        assert [[r.steps, r.error, r.ratio, r.order] for r in table.rows] \
            == self._pins()["constant-step"]["ie-pre-post-3 table base=1000"]


class TestVdpReference:
    def test_rejects_unconverged_reference(self, monkeypatch):
        monkeypatch.setattr(bench, "VDP_REFERENCE_DT", 0.1)
        monkeypatch.setattr(bench, "VDP_REFERENCE_RTOL", 0.0)
        with pytest.raises(ValueError, match="reference step 0.1 too coarse"):
            bench.vdp_reference(1.0)


class TestSettingsTables:
    def test_keys(self):
        assert set(bench.ANALOG_SETTINGS) == {1.0, 3.0, 5.0}
        assert set(bench.VDP_SETTINGS) == {1.0, 10.0, 100.0}

    def test_adaptive_run_without_exact_solution(self):
        spec = make_problem("van-der-pol")
        run = adaptive_run(spec, 1e-2, 1e-2, t_range=(0.0, 1.0))
        assert run.final_error is None
        assert run.label == "van-der-pol"


class TestCsv:
    def _traj(self):
        return constant_run(Method.IE_PRE_POST_3, QP, 50).trajectory

    def test_round_trip_is_exact(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "traj.csv"
        emit_csv(traj, path)
        back = read_csv(path)
        assert back.dimension == traj.dimension
        assert back.times == traj.times
        assert back.states == traj.states
        assert back.est == traj.est
        assert back.ks == traj.ks

    def test_round_trip_across_block_moves(self, tmp_path):
        traj = Trajectory(2)
        for i in range(1537):    # three full blocks of 512 rows and one more
            traj.append(i / 3.0, (math.sin(i), -1.0 / (i + 1)), i * 1e-17, 1.0 / 3.0)
        path = tmp_path / "long.csv"
        emit_csv(traj, path)
        back = read_csv(path)
        for column in ("times", "est", "ks"):
            assert getattr(back, column).tobytes() == getattr(traj, column).tobytes()
        assert back.states == traj.states
        assert back.state(-513) == traj.state(1024)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "traj.csv"
        emit_csv(self._traj(), path)
        with open(path) as fh:
            assert fh.readline().strip() == "t,y0,y1,y2,y3,est,k"

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bogus.csv"
        # a header with no state column used to give a dimension-0 trajectory
        for text in ("time,y0,est,k\n0.0,1.0,0.0,0.0\n", "t,est,k\n0.0,0.0,0.0\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="unrecognized trajectory header"):
                read_csv(path)

    @pytest.mark.parametrize("row", ["0.1,1.0,0.0", "0.1,1.0,0.0,0.1,7.0"])
    def test_read_rejects_a_row_of_the_wrong_length(self, tmp_path, row):
        # a short row used to raise a bare IndexError, and a long one lost
        # its extra field silently
        path = tmp_path / "ragged.csv"
        path.write_text(f"t,y0,est,k\n0.0,1.0,0.0,0.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(path)

    def test_read_names_the_line_of_a_time_that_does_not_advance(self, tmp_path):
        # a repeated time used to raise NonMonotonicTimes, with no line
        path = tmp_path / "repeated.csv"
        path.write_text("t,y0,est,k\n0.0,1.0,0.0,0.0\n0.1,1.1,0.0,0.1\n0.1,1.2,0.0,0.1\n")
        with pytest.raises(ValueError, match="line 4: time 0.1 does not advance past 0.1"):
            read_csv(path)

    def test_read_names_the_line_of_a_field_that_is_not_a_number(self, tmp_path):
        path = tmp_path / "garbled.csv"
        path.write_text("t,y0,est,k\n0.0,1.0,0.0,0.0\n0.1,abc,0.0,0.1\n")
        with pytest.raises(ValueError, match="line 3: .*'abc'"):
            read_csv(path)
