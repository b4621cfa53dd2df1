import dataclasses
import math

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("command", ["spectrum", "minerr", "unambiguous"])
    @pytest.mark.parametrize("c, exact", [("1.5", False), ("-0.25", False), ("nan", False),
                                          ("3/2", True)])
    def test_overlap_out_of_range_exit_2(self, runner, command, c, exact):
        # the range check is ProblemInstance's, the one every caller gets
        args = [command, "--n", "4", "--k", "2", "--c", c] + ["--exact"] * exact
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith("error: overlap c must be in [0, 1], got ")

    @pytest.mark.parametrize("command", ["spectrum", "minerr", "unambiguous"])
    @pytest.mark.parametrize("c, exact", [("1/0", True), ("1/0", False), ("abc", False),
                                          ("abc", True)])
    def test_unparseable_overlap_exit_2(self, runner, command, c, exact):
        # a zero denominator is a malformed overlap, not a value out of the float range
        args = [command, "--n", "4", "--k", "2", "--c", c] + ["--exact"] * exact
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == f"error: invalid overlap c '{c}'\n"


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

    def test_minerr_without_anomalies_at_identical_states(self, runner):
        args = ["sweep", "--protocol", "minerr", "--n-range", "2:5", "--k", "0",
                "--c-grid", "0.5,1"]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert len(rows) == 4 * 2 * 3  # n, c, (minerr, asymptote, limit)
        assert all(float(r[4]) == 1.0 for r in rows)

    def test_arithmetic_error_exit_2(self, runner, monkeypatch):
        import anomdet.cli as cli_mod

        def overflows(inst):
            raise OverflowError("planted")

        monkeypatch.setattr(cli_mod, "min_error_success", overflows)
        args = ["sweep", "--protocol", "minerr", "--n-range", "4:6", "--k", "1"]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 2
        assert "value not representable (OverflowError: planted)" in result.output

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


# argv fuzzing: every outcome is a result (0), a parameter error (2) or an I/O
# error (3), printed without a traceback.  Each argv holds valid values except
# at most one option, drawn from values of every kind, so that a bad value
# reaches the deepest check it can.
_ANY_COUNT = st.one_of(st.integers(-3, 60), st.sampled_from(["", "x", "2.5", "1/2", "-0", "1e3"]))
_ANY_OVERLAP = st.one_of(
    st.floats(0, 1).map(repr),
    st.fractions(0, 1, max_denominator=40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(min_value=-2, max_value=2, max_denominator=40).map(str),
    st.sampled_from(["1/0", "-1/2", "3/2", "0/5", "abc", "", "0.5.5", "1/2/3", "nan", "-inf",
                     "1e999", "0x1p-1", " 0.5 "]),
    st.text(alphabet="0123456789./-+eEinfa x", max_size=6),
)
_ANY_GRID = st.lists(_ANY_OVERLAP.filter(lambda t: "," not in t), max_size=3).map(",".join)
_ANY_DIMENSION = st.one_of(st.integers(-2, 8), st.sampled_from(["", "x", "2.5", "3/1"]))
_ANY_RANGE = st.one_of(
    st.builds(lambda a, span, step: f"{a}:{a + span}:{step}",
              st.integers(-2, 58), st.integers(-1, 2), st.integers(-1, 2)),
    st.sampled_from(["", "5", "x:y", "1:2:3:4", "4:6"]),
)
_ANY = {"--n": _ANY_COUNT, "--k": _ANY_COUNT, "--c": _ANY_OVERLAP, "--d": _ANY_DIMENSION,
        "--n-range": _ANY_RANGE, "--c-grid": _ANY_GRID}
_ODD = {"spectrum": ["--n", "--k", "--c"], "minerr": ["--n", "--k", "--c"],
        "unambiguous": ["--n", "--k", "--c"], "universal": ["--n", "--k", "--d"],
        "sweep": ["--n-range", "--k", "--c-grid", "--d"]}


@st.composite
def _argv(draw, command, odd):
    exact = command != "sweep" and draw(st.booleans())
    n = draw(st.integers(1, 60))
    k = draw(st.integers(0, min(n, 4)))
    c = draw(st.fractions(0, 1, max_denominator=40) if exact else st.floats(0, 1))
    options = {"--n": n, "--k": k, "--c": c, "--d": draw(st.integers(2, 5))}
    if command == "sweep":
        a = draw(st.integers(max(2 * k, 1), 58))
        options = {"--protocol": draw(st.sampled_from(["minerr", "unambiguous", "universal",
                                                       "average"])),
                   "--n-range": f"{a}:{a + draw(st.integers(0, 2))}", "--k": k,
                   "--c-grid": ",".join(repr(draw(st.floats(0, 1))) for _ in range(2)),
                   "--d": options["--d"]}
    elif command == "universal":
        del options["--c"]
    else:
        del options["--d"]
    if odd is not None:
        options[odd] = draw(_ANY[odd])
    return [command, *(str(part) for item in options.items() for part in item)] + ["--exact"] * exact


@pytest.mark.parametrize("command, odd", [(command, odd) for command, names in _ODD.items()
                                          for odd in [None, *names]])
@settings(max_examples=8)
@given(data=st.data())
def test_random_argv_exits_cleanly(command, odd, data):
    argv = data.draw(_argv(command, odd))
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code in (0, 2, 3), (argv, result.output)
    assert "Traceback" not in result.output
