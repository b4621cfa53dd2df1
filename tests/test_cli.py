import ast
import dataclasses
import hashlib
import math
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import anomdet.cli as cli_mod
from anomdet import verify
from anomdet.cli import main
from anomdet.gram import ProblemInstance, closed_form_spectrum
from anomdet.universal import UniversalInstance, universal_success
from anomdet.verify import SCOPES, run_scope


@pytest.fixture
def runner():
    return CliRunner()


# CliRunner's output holds stderr and stdout together: an output of this line alone
# leaves stdout empty
_DIGIT_LIMIT_ERROR = (f"error: a value exceeds Python's {sys.get_int_max_str_digits()}-digit "
                      "int-to-str limit")


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

    def test_exact_value_beyond_the_digit_limit_exit_2(self, runner):
        # lambda_0, just above 1, has a numerator and a denominator of 4320 digits:
        # every line is formatted before the first is printed, so only the error is output
        args = ["spectrum", "--n", "150", "--k", "72", "--c", f"1/{10**30}", "--exact"]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 2
        assert result.output == _DIGIT_LIMIT_ERROR + "; drop --exact to print the float value\n"

    def test_float_value_at_the_same_instance(self, runner):
        result = runner.invoke(main, ["spectrum", "--n", "150", "--k", "72", "--c", "1e-30"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1].startswith(
            f"# trace check: sum m_j*lambda_j = N = {math.comb(150, 72)}: ok (relative residual ")

    def test_multiplicity_beyond_the_digit_limit_in_scientific_notation(self, runner):
        # the float path prints each multiplicity and N in full where str() can, and
        # past the digit limit rounded to 12 significant digits, as it prints a float
        n, k = 1000000, 1400
        args = ["spectrum", "--n", str(n), "--k", str(k), "--c", "0.001"]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0
        lines = result.output.splitlines()
        rows, trace = _rows(result.output), lines[-1]
        printed = [row[2] for row in rows] + [trace.split(" = ")[2].split(":")[0]]
        counts = [math.comb(n, j) - (math.comb(n, j - 1) if j else 0) for j in range(k + 1)]
        limit = 10 ** sys.get_int_max_str_digits()  # str() refuses an int from here on
        for text, count in zip(printed, counts + [math.comb(n, k)], strict=True):
            assert ("e+" in text) == (count >= limit), (text[:20], count.bit_length())
            if count < limit:
                assert int(text) == count
                continue
            mantissa, exponent = text.split("e+")
            digits = mantissa.replace(".", "")
            assert 1 <= len(digits) <= 12 and not digits.endswith("0") and digits[0] != "0"
            # correctly rounded: |count - digits * 10^(e - len + 1)| <= 10^(e - 11) / 2
            scale = int(exponent) - len(digits) + 1
            assert 2 * abs(count - int(digits) * 10**scale) <= 10 ** (int(exponent) - 11)
        assert "e+" in printed[-1] and printed[0] == "1"  # N, and m_0 in full
        assert trace.startswith("# trace check: sum m_j*lambda_j = N = ")
        assert ": ok (relative residual " in trace

    @pytest.mark.parametrize("planted, trace", [
        (Fraction(5, 8), "6.125"),
        (Fraction(9, 16) + Fraction(1, 34), "6.0588235294117645"),
    ])
    def test_exact_trace_mismatch(self, runner, monkeypatch, planted, trace):
        # one wrong exact lambda_2 (multiplicity 2; the true value is 9/16), its denominator
        # among the others' or not: the trace check prints the exact trace, rounded once
        def planted_spectrum(inst):
            spec = closed_form_spectrum(inst)
            return dataclasses.replace(spec, values=spec.values[:2] + (planted,))

        monkeypatch.setattr("anomdet.gram.closed_form_spectrum", planted_spectrum)
        result = runner.invoke(main, ["spectrum", "--n", "4", "--k", "2", "--c", "1/2", "--exact"])
        assert result.exit_code == 1  # a verification failure
        assert result.output.splitlines()[-2:] == [
            f"2,{planted},2", f"# trace check: sum m_j*lambda_j = N = 6: MISMATCH {trace}"]

    def test_float_trace_mismatch_exit_1(self, runner, monkeypatch):
        # one wrong float lambda_2 (the true value is 0.5625): the whole table is
        # printed, and the failed trace check sets the exit code
        def planted_spectrum(inst):
            spec = closed_form_spectrum(inst)
            return dataclasses.replace(spec, values=spec.values[:2] + (0.625,))

        monkeypatch.setattr("anomdet.gram.closed_form_spectrum", planted_spectrum)
        result = runner.invoke(main, ["spectrum", "--n", "4", "--k", "2", "--c", "0.5"])
        assert result.exit_code == 1
        assert result.output.splitlines()[-2] == "2,0.625,2"
        assert result.output.splitlines()[-1].startswith(
            "# trace check: sum m_j*lambda_j = N = 6: MISMATCH (relative residual ")

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
                                          ("abc", True), ("1e999999999", True),
                                          ("1e-999999999", True)])
    def test_unparseable_overlap_exit_2(self, runner, command, c, exact):
        # a zero denominator is a malformed overlap, not a value out of the float range;
        # an exact exponent beyond EXACT_EXPONENT_CAP is refused before Fraction builds 10**e
        args = [command, "--n", "4", "--k", "2", "--c", c] + ["--exact"] * exact
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == f"error: invalid overlap c '{c}'\n"

    @pytest.mark.parametrize("c", ["1e4299", "1e4300"])
    def test_huge_exact_overlap_range_message_is_short(self, runner, c):
        # the exact overlap is rendered by sign and decimal order, never as its
        # 4300 digits, and str() of a 4301-digit int is never attempted
        result = runner.invoke(main, ["minerr", "--n", "4", "--k", "2", "--c", c, "--exact"])
        assert result.exit_code == 2
        assert result.output == f"error: overlap c must be in [0, 1], got about 10^{c[2:]}\n"
        assert "[0, 1]" in result.output and len(result.output) < 200

    @pytest.mark.parametrize("c, code", [("1e-4300", 0), ("1E-0_4_300", 0), ("1e-4301", 2),
                                         ("1e+0_4_301", 2)])
    def test_exact_exponent_cap(self, runner, c, code):
        result = runner.invoke(main, ["minerr", "--n", "4", "--k", "2", "--c", c, "--exact"])
        assert result.exit_code == code
        if code:
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
        assert float(result.output) == pytest.approx(reference, rel=1e-10, abs=0)

    @pytest.mark.parametrize("args", [
        ["minerr", "--n", "100000", "--k", "500", "--c", "0.9"],  # 1.24878e-355
        ["minerr", "--n", "100000", "--k", "50000", "--c", "1"],  # 1/C(100000, 50000)
        ["unambiguous", "--n", "100000", "--k", "50000", "--c", "0.999"],  # (1 - 0.999^2)^50000
        # sweep's rows go through the same guard, the asymptote and the limit
        # 0.19^500 (about 1e-361) included, also where the min-error value does not underflow
        ["sweep", "--protocol", "minerr", "--n-range", "100000:100000", "--k", "500",
         "--c-grid", "0.9"],
        ["sweep", "--protocol", "minerr", "--n-range", "1000:1000", "--k", "500", "--c-grid", "0.9"],
        ["sweep", "--protocol", "unambiguous", "--n-range", "100000:100000", "--k", "50000",
         "--c-grid", "0.999"],
    ])
    def test_positive_value_below_the_float_range_exit_2(self, runner, args):
        # the value is positive and rounds to 0.0: one error line, nothing on stdout
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 2
        assert result.output == ("error: value not representable (FloatingPointError: "
                                 "positive value below the float range rounds to 0)\n")

    @pytest.mark.parametrize("exact", [False, True])
    def test_unambiguous_zero_at_identical_states(self, runner, exact):
        # (1 - c^2)^m is exactly 0 at c = 1 with m > 0, and exactly 1 at m = 0
        for k, value in ((50000, "0"), (100000, "1")):
            args = ["unambiguous", "--n", "100000", "--k", str(k), "--c", "1"] + ["--exact"] * exact
            result = runner.invoke(main, args, catch_exceptions=False)
            assert (result.exit_code, result.output) == (0, value + "\n")

    def test_universal(self, runner):
        result = runner.invoke(main, ["universal", "--n", "4", "--k", "1", "--d", "2", "--exact"])
        assert result.exit_code == 0
        assert result.output.strip() == "7/16"

    def test_universal_exact_beyond_the_digit_limit_exit_2(self, runner):
        args = ["universal", "--n", "1000", "--k", "500", "--d", str(2**40), "--exact"]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 2
        assert result.output == _DIGIT_LIMIT_ERROR + "; drop --exact to print the float value\n"

    def test_universal_invalid(self, runner):
        assert runner.invoke(main, ["universal", "--n", "3", "--k", "4", "--d", "2"]).exit_code == 2

    def test_universal_k_above_half(self, runner):
        # two anomalies among three: the value of one, by complement symmetry
        result = runner.invoke(main, ["universal", "--n", "3", "--k", "2", "--d", "2", "--exact"])
        assert result.exit_code == 0
        assert result.output.strip() == "4/9"

    def test_universal_with_large_dimension(self, runner):
        # a few milliseconds: 200 Horner steps on small factors, no binomial of 2e6 bits
        start = time.perf_counter()
        result = runner.invoke(main, ["universal", "--n", "1000000", "--k", "200", "--d", "1000000"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        expected = universal_success(UniversalInstance(10**6, 200, 10**6))
        assert result.output == f"{float(expected):.12g}\n"

    @pytest.mark.parametrize("n, k, d", [("1000000", "500000", "2"), ("100000", "10000", "2")])
    def test_universal_beyond_the_bit_cap_exit_2_at_once(self, runner, n, k, d):
        # without the cap these ran for seconds to minutes: Horner pairs of
        # about 5e7 and 2e6 bits
        start = time.perf_counter()
        result = runner.invoke(main, ["universal", "--n", n, "--k", k, "--d", d])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.output == ("error: universal_success: exact evaluation needs integers "
                                 f"beyond 150000 bits, got n={n}, k={k}, d={d}\n")


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

    def test_minerr_zero_rows_at_identical_states(self, runner):
        # at c = 1 with k >= 1 the asymptote and the limit are exactly 0, and printed
        args = ["sweep", "--protocol", "minerr", "--n-range", "4:6", "--k", "2", "--c-grid", "1"]
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0
        assert [r[4] == "0" for r in _rows(result.output)] == [False, True, True] * 3

    def test_minerr_curve_through_n_equal_k(self, runner):
        # at n = k the asymptote is undefined: only its row is left out
        def sweep(n_range):
            args = ["sweep", "--protocol", "minerr", "--n-range", n_range, "--k", "3"]
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0
            return result.output.splitlines()

        lines = sweep("3:6")
        assert lines[1:3] == ["3,3,0.5,minerr,1", "3,3,0.5,minerr_limit,0.421875"]
        assert [lines[0]] + lines[3:] == sweep("4:6")

    def test_arithmetic_error_exit_2(self, runner, monkeypatch):
        def overflows(inst):
            raise OverflowError("planted")

        monkeypatch.setattr("anomdet.protocols.min_error_success", overflows)
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

    def test_universal_curve_from_k_above_half(self, runner):
        # n = 2 < 2k: the value at k = n, then n - k = 0 anomalies read through the complement
        args = ["sweep", "--protocol", "universal", "--n-range", "2:30:4", "--k", "2", "--d", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        rows = [r for r in _rows(result.output) if r[3] == "universal"]
        assert [int(r[0]) for r in rows] == list(range(2, 31, 4))
        assert float(rows[0][4]) == 1.0

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
        def unreachable(check, max_n):
            raise AssertionError("registry row run for a rejected --max-n")

        monkeypatch.setattr(verify.Check, "run", unreachable)
        # run_scope refuses 15, above the explicit-state oracles' qubit cap
        # (oracle.STATE_QUBITS_CAP), before it runs any row
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


# stdout sha256 and exit code of each argv, taken before the CLI's print paths were
# merged into one: a change to any printed byte fails here
_FROZEN = [
    ("sweep --protocol minerr --n-range 5:400:5 --k 2 --c-grid 0.5",
     "bb2e47398ec5b576814f067f0ea9079ee1daea5cebabe2e29054420f07e6078d"),
    ("sweep --protocol universal --n-range 2:60:1 --k 1 --d 2",
     "2e1bd892260dfa46b3d6102495af89b6108cfe993a0c48fdf6f302a4e657507b"),
    ("sweep --protocol unambiguous --n-range 4:40:3 --k 2 --c-grid 0.1,0.5,1",
     "7c44aad4e4c05ad5c25bc6793c2163f7fe0a12d41d88030583a7feac68648557"),
    ("sweep --protocol average --n-range 2:30:7 --k 2 --d 3",
     "0e68722b1a3f8483656c1031879d59b3c39101bc932e1e1cdfa904d5748ae743"),
    ("sweep --protocol minerr --n-range 2:9 --k 0 --c-grid 0.5,1",
     "b73a7842a50504eb46f45fe064c860725a9aaa4168cc7b8dbe7a041d72df9205"),
    ("spectrum --n 12 --k 5 --c 0.3", "4b547065ac374f3024b900efdbda8740158c4bc40117525009d98fe48c5b95bf"),
    ("spectrum --n 12 --k 7 --c 3/7 --exact",
     "1458ad3cef8c0f766b156fb9229c759019ff65fe1dfa4f0fb761ffa89a85cf1a"),
    ("minerr --n 10 --k 2 --c 0.5", "fa1974f5da53663d422cdf7f3d5ed177758c441fe8e86013882261ae348d2da4"),
    ("unambiguous --n 10 --k 2 --c 0.5",
     "fba4918d1bf7fbdebfdff9d452ceed2d663a61f9f77d52f2df1700d036ff5439"),
    ("universal --n 10 --k 2 --d 2 --exact",
     "eb0cf62eb0894f2ae7df853c28c651c8b67053c54b2b67aa02f05963667d33e0"),
    ("universal --n 10 --k 2 --d 2", "cfddb6ccc3576e40ffe5a57c15159aad62a1355e3b29c1bbd75f7c6d72a48f0c"),
]


@pytest.mark.parametrize("argv, digest", _FROZEN)
def test_frozen_stdout(argv, digest):
    result = CliRunner().invoke(main, argv.split(), catch_exceptions=False)
    assert (result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest()) == (0, digest)


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
        a = draw(st.integers(max(k, 1), 58))
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


_LOADED = "print(sorted(m for m in sys.modules if m.startswith('anomdet.')), 'numpy' in sys.modules)"


def test_import_loads_no_hash_module(fresh):
    # the SRM oracle keys its support bases by the pattern itself, so the
    # CLI's import path loads neither hashlib nor OpenSSL's _hashlib
    code = "import sys, anomdet.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    assert fresh(code) == "[]\n"


def test_package_import_loads_no_submodule(fresh):
    assert fresh(f"import sys, anomdet; {_LOADED}") == "[] False\n"


def test_cli_import_loads_combin_and_numpy_only(fresh):
    # numpy comes with combin; gram, johnson, protocols, universal, oracle and
    # verify wait for the command that runs them
    assert fresh(f"import sys, anomdet.cli; {_LOADED}") == "['anomdet.cli', 'anomdet.combin'] True\n"


@pytest.mark.parametrize("argv, loaded", [
    ("spectrum --n 12 --k 5 --c 0.3", ["gram"]),
    ("spectrum --n 12 --k 7 --c 3/7 --exact", ["gram"]),
    ("minerr --n 10 --k 2 --c 0.5", ["gram", "protocols"]),
    ("unambiguous --n 10 --k 2 --c 0.5", ["gram", "protocols"]),
    ("universal --n 10 --k 2 --d 2", ["gram", "protocols", "universal"]),
    ("sweep --protocol minerr --n-range 5:20:5 --k 2", ["gram", "protocols", "universal"]),
])
def test_command_loads_only_what_it_runs(fresh, argv, loaded):
    # no closed-form command compiles johnson, oracle or verify
    code = ("import sys\nfrom anomdet.cli import main\ntry:\n    main(sys.argv[1:])\n"
            f"except SystemExit as exit:\n    assert exit.code == 0\n{_LOADED}")
    expected = sorted(["anomdet.cli", "anomdet.combin", *(f"anomdet.{m}" for m in loaded)])
    assert fresh(code, *argv.split()).splitlines()[-1] == f"{expected} True"


def test_cli_imports_by_layer():
    # module level: the stdlib, click and .combin; each command imports what it runs
    tree = ast.parse(Path(cli_mod.__file__).read_text(encoding="utf-8"))
    top = {alias.name.split(".")[0] for node in tree.body if isinstance(node, ast.Import)
           for alias in node.names}
    top |= {node.module.split(".")[0] for node in tree.body
            if isinstance(node, ast.ImportFrom) and not node.level}
    assert top - set(sys.stdlib_module_names) == {"click"}
    relative = [(node.module, [alias.name for alias in node.names]) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == [("combin", ["SCOPES", "_counts"])]
    inner = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in function.body:
                if isinstance(node, ast.ImportFrom):
                    inner.setdefault(function.name, set()).update(
                        [node.module] if node.module else [alias.name for alias in node.names])
    assert inner == {"spectrum": {"gram"}, "_single_value": {"gram", "protocols"},
                     "universal": {"universal"}, "sweep": {"gram", "protocols", "universal"},
                     "verify": {"verify"}}


def test_scope_choices_are_the_registry_scopes():
    # the CLI lists them from combin without importing verify; they are the
    # registry's scopes in run order
    assert SCOPES == tuple(dict.fromkeys(check.scope for check in verify.CHECKS))


@pytest.mark.parametrize("n, k", [(16000, 8000), (40000, 20000)])
def test_unprintable_exact_spectrum_refused_before_the_recurrence(runner, monkeypatch, n, k):
    # lambda_m's denominator 4^m has 4817 and 12042 digits: the refusal needs no recurrence
    def unreachable(*args):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr("anomdet.gram._exact_eigenvalues", unreachable)
    argv = ["spectrum", "--exact", "--n", str(n), "--k", str(k), "--c", "1/2"]
    result = runner.invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.output == f"{_DIGIT_LIMIT_ERROR}; drop --exact to print the float value\n"


def test_early_digit_limit_refusal_is_a_late_one(runner, monkeypatch):
    # at the smallest digit limit, over exact overlaps whose q^m (c^2 = p/q) straddles
    # it: an instance refused before the recurrence is one the printer refuses after
    # it, and output and exit code are the same with the early check and without it
    overlaps = {
        "1/100000000000000000000": range(14, 18),  # q = 10^40: q^16 = 10^640 has 641 digits
        "7/205891132094649": range(21, 25),  # q = 3^60: q^22 has 630 digits, q^23 658
        "1/2": range(1062, 1065),  # q = 4: 4^1063 has 640 digits, 4^1064 641
    }
    limit, outcomes = sys.get_int_max_str_digits(), []
    sys.set_int_max_str_digits(640)
    try:
        for c, ms in overlaps.items():
            for m in ms:
                for n, k in ((2 * m, m), (2 * m + 3, m), (2 * m + 3, m + 3)):
                    argv = ["spectrum", "--n", str(n), "--k", str(k), "--c", c, "--exact"]
                    early = runner.invoke(main, argv, catch_exceptions=False)
                    with monkeypatch.context() as patch:
                        patch.setattr(cli_mod, "_prints_exactly", lambda inst: True)
                        late = runner.invoke(main, argv, catch_exceptions=False)
                    assert (early.exit_code, early.output) == (late.exit_code, late.output), argv
                    refused = not cli_mod._prints_exactly(ProblemInstance(n, k, Fraction(c)))
                    assert early.exit_code == 2 or not refused, argv
                    outcomes.append((refused, early.exit_code))
    finally:
        sys.set_int_max_str_digits(limit)
    # refused early; refused late only, at c = 1/2, m <= 1063, where a numerator
    # trips first; printed
    assert Counter(outcomes) == {(True, 2): 15, (False, 2): 6, (False, 0): 12}
