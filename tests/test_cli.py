import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import filtered_ie23
from filtered_ie23 import read_csv
from filtered_ie23.cli import main


class TestProblemsCommand:
    def test_lists_every_problem(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        for name in ("model", "quasi-periodic", "model-analog", "van-der-pol"):
            assert name in out
        assert "dim 4" in out
        assert "reference only" in out   # van der Pol has no closed form


class TestSolveCommand:
    def test_adaptive_summary(self, capsys):
        code = main(["solve", "--problem", "model",
                     "--tol", "0.005", "--dt0", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "197 accepted" in out
        assert "final error" in out

    def test_adaptive_uses_the_solve_config(self, capsys):
        # dt0 = 0.3 is above the default k_max = span / 10 = 0.2; solve
        # raises k_max to dt0 for every method, the adaptive one included
        code = main(["solve", "--problem", "model", "--dt0", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("model: 957 accepted, 837 rejected")
        assert "final error" in out

    def test_constant_method_with_csv_output(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        code = main(["solve", "--problem", "model", "--method", "ie-pre-post-3",
                     "--dt0", "0.05", "--out", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "40 steps" in out
        assert "wrote 41 rows" in out
        traj = read_csv(path)
        assert len(traj) == 41
        assert traj.final_time() == 2.0

    def test_rk4_reference_method(self, capsys):
        assert main(["solve", "--problem", "model", "--method", "rk4-ref",
                     "--dt0", "0.01"]) == 0
        assert "200 steps" in capsys.readouterr().out

    def test_problem_without_exact_solution(self, capsys):
        code = main(["solve", "--problem", "van-der-pol", "--t1", "5.0",
                     "--dt0", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "van-der-pol:" in out
        assert "final error" not in out

    def test_problem_parameters(self, capsys):
        assert main(["solve", "--problem", "van-der-pol", "--param", "mu=10",
                     "--t1", "2.0", "--dt0", "0.01"]) == 0

    def test_unsolvable_tolerance_is_a_solver_failure(self, capsys):
        code = main(["solve", "--problem", "model", "--tol", "1e-300",
                     "--dt0", "0.01"])
        assert code == 1
        assert "solver failure" in capsys.readouterr().err

    def test_step_below_resolution_of_t_is_a_solver_failure(self, capsys):
        code = main(["solve", "--problem", "model", "--t0", "1e12",
                     "--t1", "1000000000001", "--tol", "1e-9"])
        assert code == 1
        assert "is below the resolution of t=1000000000000.015" in capsys.readouterr().err

    def test_underflowing_steps_are_a_solver_failure(self, capsys):
        # used to exit 2 with "usage error: float division by zero"
        code = main(["solve", "--problem", "model", "--t1", "4e-82", "--dt0", "1e-83"])
        assert code == 1
        assert "solver failure: step fell to" in capsys.readouterr().err

    def test_nan_residual_is_a_solver_failure(self, capsys):
        # mu * (1 - x**2) overflows to -inf at x = 2, and -inf * v is nan at
        # v = 0: the first implicit stage sees a NaN in component 1 only
        code = main(["solve", "--problem", "van-der-pol", "--param", "mu=1e308",
                     "--t1", "0.1", "--method", "ie-pre-2"])
        assert code == 1
        assert "non-finite residual" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_problem(self, capsys):
        assert main(["solve", "--problem", "lorenz"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_method_choice(self, capsys):
        assert main(["solve", "--problem", "model", "--method", "bogus"]) == 2

    def test_malformed_parameter(self, capsys):
        assert main(["solve", "--problem", "model", "--param", "lam"]) == 2
        assert main(["solve", "--problem", "model", "--param", "lam=abc"]) == 2

    @pytest.mark.parametrize("problem, param, message", [
        *[pytest.param("van-der-pol", f"mu={mu}", "mu must be positive and finite",
                       id=mu) for mu in ("0", "inf", "nan")],
        *[pytest.param(problem, f"{name}={value}", f"{name} must be finite",
                       id=f"{name}={value}")
          for problem, name in (("model", "lam"), ("model-analog", "gamma"))
          for value in ("nan", "inf", "-inf")],
    ])
    def test_parameter_out_of_range(self, problem, param, message, capsys):
        assert main(["solve", "--problem", problem, "--param", param,
                     "--t1", "0.1", "--method", "ie-pre-2"]) == 2
        assert message in capsys.readouterr().err

    def test_inverted_time_range(self, capsys):
        assert main(["solve", "--problem", "model",
                     "--t0", "2.0", "--t1", "1.0"]) == 2

    def test_zero_step_count(self, capsys):
        assert main(["convergence", "--problem", "model", "--steps", "0,1"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "step count must be at least 1, got 0" in err

    def test_unwritable_output_path(self, capsys, tmp_path):
        # rejected before the solve: nothing of the run is printed
        out = str(tmp_path / "missing-dir" / "x.csv")
        assert main(["solve", "--problem", "model", "--out", out]) == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err
        assert captured.out == ""


class TestConvergenceCommand:
    def test_table_output(self, capsys):
        code = main(["convergence", "--problem", "model", "--steps", "40,80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Steps" in out and "Order" in out
        assert out.count("\n") == 4   # banner, header, two rows

    def test_rejects_unordered_steps(self, capsys):
        assert main(["convergence", "--problem", "model",
                     "--steps", "80,40"]) == 2

    @pytest.mark.parametrize("steps", [",", ""])
    def test_rejects_empty_steps(self, steps, capsys):
        assert main(["convergence", "--problem", "model", "--steps", steps]) == 2
        assert "usage error: steps_list must not be empty" in capsys.readouterr().err


class TestCompareCommand:
    def test_equal_work_rows(self, capsys):
        code = main(["compare", "--problem", "model",
                     "--tol", "0.005", "--dt0", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "filtered-ie23" in out
        assert "ie-pre-post-3" in out

    def test_dt0_above_a_tenth_of_the_span(self, capsys):
        # the default k_max = max(span / 10, dt0) admits dt0 = 0.3 on [0, 2]
        code = main(["compare", "--problem", "model",
                     "--tol", "5e-3", "--dt0", "0.3"])
        assert code == 0
        assert "filtered-ie23      119" in capsys.readouterr().out


def _readme_commands():
    """(command, stdout) pairs of the README's command-line block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1]
    block = block.split("```", 1)[0]
    pairs = []
    for chunk in block.split("$ filtered-ie23 ")[1:]:
        command, _, out = chunk.partition("\n")
        pairs.append((command, out.rstrip("\n") + "\n"))
    return pairs


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("command, stdout", README_COMMANDS,
                         ids=[command for command, _ in README_COMMANDS])
def test_readme_command_block(command, stdout, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("argv, code", [
    (["problems"], 0),
    (["solve", "--problem", "lorenz"], 2),
])
def test_module_entry_point(argv, code):
    # python -m filtered_ie23 runs the CLI from a source checkout
    src = str(Path(filtered_ie23.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "filtered_ie23", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def test_installed_console_script():
    exe = shutil.which("filtered-ie23")
    assert exe is not None, "console script should be on PATH after install"
    proc = subprocess.run([exe, "problems"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "model" in proc.stdout
