import dataclasses
import math

import mpmath
import pytest
from click.testing import CliRunner

from anomdet import verify
from anomdet.cli import main
from anomdet.verify import SCOPES, run_scope


@pytest.fixture
def runner():
    return CliRunner()


def _rows(output: str) -> list[list[str]]:
    lines = [l for l in output.strip().splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]  # skip header


class TestSpectrumCommand:
    def test_exact_table(self, runner):
        result = runner.invoke(main, ["spectrum", "--n", "4", "--k", "2", "--c", "1/2", "--exact"])
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert rows == [["0", "33/16", "1"], ["1", "15/16", "3"], ["2", "9/16", "2"]]
        assert "trace check" in result.output and "ok" in result.output

    def test_float_single_anomaly(self, runner):
        result = runner.invoke(main, ["spectrum", "--n", "4", "--k", "1", "--c", "0.5"])
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert [r[0] for r in rows] == ["0", "1"]
        assert float(rows[0][1]) == pytest.approx(1.75)
        assert float(rows[1][1]) == pytest.approx(0.75)
        assert rows[1][2] == "3"

    def test_zero_overlap(self, runner):
        result = runner.invoke(main, ["spectrum", "--n", "6", "--k", "2", "--c", "0"])
        assert result.exit_code == 0
        assert all(float(r[1]) == 1.0 for r in _rows(result.output))

    def test_k_above_half_by_complement(self, runner):
        result = runner.invoke(main, ["spectrum", "--n", "6", "--k", "4", "--c", "1/2", "--exact"])
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert rows == [["0", "27/8", "1"], ["1", "21/16", "5"], ["2", "9/16", "9"]]
        assert all(int(r[2]) >= 0 for r in rows)
        assert "complement symmetry" in result.output and "ok" in result.output

    @pytest.mark.parametrize("c", ["0.1", "0.3", "0.5", "0.7", "0.9"])
    def test_float_trace_check(self, runner, c):
        # a relative residual against a tolerance, not an exact comparison of rounded floats
        result = runner.invoke(main, ["spectrum", "--n", "10", "--k", "3", "--c", c])
        assert result.exit_code == 0
        trace = result.output.strip().splitlines()[-1]
        assert trace.startswith("# trace check: sum m_j*lambda_j = N = 120: ok (relative residual ")
        assert "tolerance 1e-12" in trace and "MISMATCH" not in result.output

    def test_invalid_parameters_exit_2(self, runner):
        assert runner.invoke(main, ["spectrum", "--n", "4", "--k", "9", "--c", "0.5"]).exit_code == 2
        assert runner.invoke(main, ["spectrum", "--n", "4", "--k", "2", "--c", "1.5"]).exit_code == 2


class TestSingleValueCommands:
    def test_minerr(self, runner):
        result = runner.invoke(main, ["minerr", "--n", "4", "--k", "2", "--c", "0.5"])
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(0.947662716995912, abs=1e-11)

    def test_unambiguous(self, runner):
        result = runner.invoke(main, ["unambiguous", "--n", "6", "--k", "2", "--c", "0.5"])
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(9 / 16)

    def test_unambiguous_k_above_half(self, runner):
        result = runner.invoke(main, ["unambiguous", "--n", "6", "--k", "4", "--c", "0.5"])
        assert result.exit_code == 0
        assert result.output.strip() == "0.5625"  # (1 - c^2)^(n-k)

    def test_minerr_all_anomalous(self, runner):
        result = runner.invoke(main, ["minerr", "--n", "5", "--k", "5", "--c", "0.5"])
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    @pytest.mark.parametrize("command", ["spectrum"])
    def test_overflow_exit_2_without_traceback(self, runner, command):
        # lambda_0 itself exceeds the float range, so the table cannot be printed
        result = runner.invoke(main, [command, "--n", "5000", "--k", "210", "--c", "0.8"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "OverflowError" in result.output

    @pytest.mark.parametrize("n,k,c", [(5000, 210, "0.8"), (20000, 300, "0.5")])
    def test_minerr_beyond_float_range(self, runner, n, k, c):
        # N and lambda_0 exceed the float range; the probability does not
        result = runner.invoke(main, ["minerr", "--n", str(n), "--k", str(k), "--c", c])
        assert result.exit_code == 0
        with mpmath.workdps(50):
            z = mpmath.mpf(float(c)) ** 2
            amplitude = mpmath.fsum(
                (math.comb(n, j) - (math.comb(n, j - 1) if j else 0))
                * mpmath.sqrt((1 - z) ** j * mpmath.hyp2f1(j - k, j - n + k, 1, z))
                for j in range(k + 1)
            ) / math.comb(n, k)
            reference = float(amplitude**2)
        assert float(result.output) == pytest.approx(reference, rel=1e-10)

    def test_universal(self, runner):
        result = runner.invoke(main, ["universal", "--n", "4", "--k", "1", "--d", "2", "--exact"])
        assert result.exit_code == 0
        assert result.output.strip() == "7/16"

    def test_universal_invalid(self, runner):
        assert runner.invoke(main, ["universal", "--n", "3", "--k", "2", "--d", "2"]).exit_code == 2


class TestSweepCommand:
    def test_minerr_curve_with_asymptote_rows(self, runner, tmp_path):
        out = tmp_path / "fig.csv"
        args = ["sweep", "--protocol", "minerr", "--n-range", "5:45:10",
                "--k", "2", "--c-grid", "0.5", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "n,k,c_or_d,protocol,value"
        rows = _rows(text)
        limits = [float(r[4]) for r in rows if r[3] == "minerr_limit"]
        assert limits == [0.5625] * len(limits)
        values = [float(r[4]) for r in rows if r[3] == "minerr"]
        assert all(a > b for a, b in zip(values, values[1:]))  # decreasing in n

    def test_byte_stability(self, runner, tmp_path):
        args = ["sweep", "--protocol", "universal", "--n-range", "2:30:4", "--k", "1", "--d", "2"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_universal_curve(self, runner):
        result = runner.invoke(
            main, ["sweep", "--protocol", "universal", "--n-range", "2:20:2", "--k", "1", "--d", "2"]
        )
        rows = _rows(result.output)
        values = [float(r[4]) for r in rows if r[3] == "universal"]
        assert values[0] == pytest.approx(0.5)
        # monotone increasing once past the shallow dip after n = 2
        assert all(a < b for a, b in zip(values[1:], values[2:]))
        asymptotes = {float(r[4]) for r in rows if r[3] == "universal_asymptote"}
        assert asymptotes == {0.5}

    def test_unwritable_path_exit_3(self, runner):
        args = ["sweep", "--protocol", "unambiguous", "--n-range", "4:6:1",
                "--k", "1", "--out", "/nonexistent-dir/x.csv"]
        assert runner.invoke(main, args).exit_code == 3

    def test_bad_range_exit_2(self, runner):
        args = ["sweep", "--protocol", "minerr", "--n-range", "10:5:1", "--k", "2"]
        assert runner.invoke(main, args).exit_code == 2

    def test_bad_overlap_exit_2(self, runner):
        args = ["sweep", "--protocol", "minerr", "--n-range", "4:6:1", "--k", "1",
                "--c-grid", "0.5,1.5"]
        assert runner.invoke(main, args).exit_code == 2


class TestVerifyCommand:
    def test_output_is_the_registry(self, runner):
        # line-for-line equality does not depend on max_n; the gate runs the rows at 9
        result = runner.invoke(main, ["verify", "--scope", "all", "--max-n", "4"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines == [r.line() for r in run_scope("all", 4)]

    def test_help_lists_registry_scopes(self, runner):
        result = runner.invoke(main, ["verify", "--help"])
        assert f"[{'|'.join(['all', *SCOPES])}]" in result.output
        assert set(SCOPES) == {"scheme", "gram", "detection", "universal"}

    def test_bad_max_n_exit_2(self, runner, monkeypatch):
        import anomdet.cli as cli_mod

        def unreachable(scope, max_n):
            raise AssertionError("registry run for a rejected --max-n")

        monkeypatch.setattr(cli_mod, "run_scope", unreachable)
        # 15 exceeds the explicit-state oracles' qubit cap (oracle.STATE_QUBITS_CAP)
        for max_n in ("1", "15"):
            result = runner.invoke(main, ["verify", "--max-n", max_n])
            assert result.exit_code == 2
            assert "--max-n must be in [2, 14]" in result.output

    def test_raising_residual_is_an_error_line(self, runner, monkeypatch):
        target = next(check for check in verify.CHECKS if check.name == "spectrum-equivalence")

        def raises(**inst):
            raise ArithmeticError("planted")

        planted = dataclasses.replace(target, residual=raises)
        monkeypatch.setattr(
            verify, "CHECKS", tuple(planted if c is target else c for c in verify.CHECKS)
        )
        result = runner.invoke(main, ["verify", "--scope", "gram", "--max-n", "4"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        errors = [l for l in lines if l.startswith("ERROR")]
        assert errors and all(
            l.startswith("ERROR spectrum-equivalence n=") and l.endswith(" ArithmeticError: planted")
            for l in errors
        )
        assert all(l.startswith("PASS") for l in lines if l not in errors)
        assert f"# {len(lines) - len(errors)}/{len(lines)} checks passed" in result.output
