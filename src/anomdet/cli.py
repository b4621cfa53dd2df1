"""Command-line front end.

Subcommands: spectrum, minerr, unambiguous, universal, sweep, verify.
Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 I/O failure.  All floats are printed with 12 significant digits so
that sweep output is byte-stable.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction

import click

from .gram import ProblemInstance, closed_form_spectrum
from .oracle import STATE_QUBITS_CAP
from .protocols import min_error_success, min_error_asymptotic, unambiguous_success
from .universal import (
    UniversalInstance,
    average_min_error_curve,
    universal_asymptote,
    universal_success,
)
from .verify import SCOPES, run_scope

EXIT_VERIFY_FAIL = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
TRACE_RTOL = 1e-12


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _parse_range(spec: str) -> list[int]:
    try:
        parts = [int(p) for p in spec.split(":")]
    except ValueError as exc:
        raise ValueError(f"bad range {spec!r}, expected A:B:STEP") from exc
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or parts[2] <= 0 or parts[1] < parts[0]:
        raise ValueError(f"bad range {spec!r}, expected A:B:STEP")
    return list(range(parts[0], parts[1] + 1, parts[2]))


def _parse_overlap(text: str, exact: bool) -> Fraction | float:
    """An overlap argument as a Fraction (--exact) or a float.

    Raises ValueError naming the text when it is neither, a zero
    denominator (1/0) included.
    """
    try:
        return Fraction(text) if exact else float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid overlap c {text!r}") from None


def _describe(exc: Exception) -> str:
    """Error text; arithmetic failures (e.g. float overflow at large k) are named as such."""
    if isinstance(exc, ArithmeticError):
        return f"value not representable ({type(exc).__name__}: {exc})"
    return str(exc)


def _fail_params(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_BAD_PARAMS)


@click.group()
def main() -> None:
    """Optimal detection of anomalous preparations in a state series."""


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--c", type=str, required=True, help="overlap in [0,1]; a fraction like 1/2 with --exact")
@click.option("--exact", is_flag=True, help="exact rational arithmetic (c parsed as a fraction)")
def spectrum(n: int, k: int, c: str, exact: bool) -> None:
    """Distinct Gram eigenvalues with multiplicities, plus the trace check."""
    try:
        inst = ProblemInstance(n=n, k=k, c=_parse_overlap(c, exact))
        spec = closed_form_spectrum(inst)
    except (ValueError, ArithmeticError) as exc:
        _fail_params(_describe(exc))
    click.echo("j,eigenvalue,multiplicity")
    for j, (value, m) in enumerate(zip(spec.values.tolist(), spec.multiplicities)):
        click.echo(f"{j},{value if exact else _fmt(value)},{m}")
    if 2 * k > n:
        click.echo(f"# k > n/2: evaluated at n-k = {n - k} (complement symmetry)")
    click.echo(f"# trace check: sum m_j*lambda_j = N = {inst.N}: {_trace_status(spec, exact)}")


def _trace_status(spec, exact: bool) -> str:
    """'ok' or 'MISMATCH ...' for tr G = N: exact equality on Fractions,
    a relative residual |sum (m_j/N) lambda_j - 1| within TRACE_RTOL on floats."""
    N, pairs = spec.instance.N, zip(spec.values.tolist(), spec.multiplicities)
    if exact:
        trace = sum(value * m for value, m in pairs)
        return "ok" if trace == N else f"MISMATCH {float(trace)}"
    # m_j/N first: N and m_j may exceed the float range while the eigenvalues do not
    residual = abs(math.fsum(m / N * value for value, m in pairs) - 1)
    status = "ok" if residual <= TRACE_RTOL else "MISMATCH"
    return f"{status} (relative residual {residual:.3g}, tolerance {TRACE_RTOL:g})"


def _single_value_command(name: str, compute):
    @main.command(name=name)
    @click.option("--n", type=int, required=True)
    @click.option("--k", type=int, required=True)
    @click.option("--c", type=str, required=True)
    @click.option("--exact", is_flag=True)
    def cmd(n: int, k: int, c: str, exact: bool) -> None:
        try:
            inst = ProblemInstance(n=n, k=k, c=_parse_overlap(c, exact))
            value = compute(inst)
        except (ValueError, ArithmeticError) as exc:
            _fail_params(_describe(exc))
        click.echo(_fmt(value))

    cmd.__doc__ = compute.__doc__
    return cmd


_single_value_command("minerr", lambda inst: min_error_success(inst).value)
_single_value_command("unambiguous", lambda inst: unambiguous_success(inst).value)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--exact", is_flag=True, help="print the exact rational value")
def universal(n: int, k: int, d: int, exact: bool) -> None:
    """Success probability of the states-unknown universal protocol."""
    try:
        value = universal_success(UniversalInstance(n=n, k=k, d=d))
    except ValueError as exc:
        _fail_params(str(exc))
    click.echo(str(value) if exact else _fmt(value))


@main.command()
@click.option("--protocol", type=click.Choice(["minerr", "unambiguous", "universal", "average"]),
              required=True)
@click.option("--n-range", type=str, required=True, help="A:B:STEP")
@click.option("--k", type=int, required=True)
@click.option("--c-grid", type=str, default="0.5", help="comma-separated overlaps (known-states protocols)")
@click.option("--d", type=int, default=2, help="local dimension (universal/average)")
@click.option("--out", "out_path", type=str, default="-", help="output CSV path, - for stdout")
def sweep(protocol: str, n_range: str, k: int, c_grid: str, d: int, out_path: str) -> None:
    """Emit success-probability curves (plus asymptote rows) as CSV."""
    try:
        ns = _parse_range(n_range)
        cs = [_parse_overlap(v, exact=False) for v in c_grid.split(",") if v]
        if k < 0 or d < 2 or not cs:
            raise ValueError("need k >= 0, d >= 2 and a non-empty c grid")
        for c in cs:
            if not 0 <= c <= 1:
                raise ValueError(f"overlap {c} outside [0, 1]")
    except ValueError as exc:
        _fail_params(str(exc))

    rows: list[str] = ["n,k,c_or_d,protocol,value"]
    try:
        for n in ns:
            if protocol in ("minerr", "unambiguous"):
                for c in cs:
                    inst = ProblemInstance(n=n, k=k, c=c)
                    if protocol == "minerr":
                        rows.append(f"{n},{k},{_fmt(c)},minerr,"
                                    f"{_fmt(min_error_success(inst).value)}")
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            asym = min_error_asymptotic(inst).value
                        rows.append(f"{n},{k},{_fmt(c)},minerr_asymptote,{_fmt(asym)}")
                        rows.append(f"{n},{k},{_fmt(c)},minerr_limit,"
                                    f"{_fmt((1 - c * c) ** k)}")
                    else:
                        rows.append(f"{n},{k},{_fmt(c)},unambiguous,"
                                    f"{_fmt(unambiguous_success(inst).value)}")
            elif protocol == "universal":
                value = universal_success(UniversalInstance(n=n, k=k, d=d))
                rows.append(f"{n},{k},{d},universal,{_fmt(value)}")
                rows.append(f"{n},{k},{d},universal_asymptote,"
                            f"{_fmt(universal_asymptote(k, d))}")
            else:  # average of the known-states curve over the overlap measure
                value = average_min_error_curve(n, k, d)
                rows.append(f"{n},{k},{d},average,{_fmt(value)}")
                rows.append(f"{n},{k},{d},average_asymptote,"
                            f"{_fmt(universal_asymptote(k, d))}")
    except (ValueError, ArithmeticError) as exc:
        _fail_params(_describe(exc))

    text = "\n".join(rows) + "\n"
    if out_path == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc}", err=True)
        sys.exit(EXIT_IO)


@main.command()
@click.option("--scope", type=click.Choice(["all", *SCOPES]), default="all")
@click.option("--max-n", type=int, default=8)
def verify(scope: str, max_n: int) -> None:
    """Run the check registry; one PASS/FAIL/ERROR line per check instance."""
    if not 2 <= max_n <= STATE_QUBITS_CAP:
        _fail_params(f"--max-n must be in [2, {STATE_QUBITS_CAP}] "
                     f"(the explicit-state oracles' qubit cap), got {max_n}")
    results = run_scope(scope, max_n)
    failures = 0
    for r in results:
        click.echo(r.line())
        failures += not r.passed
    click.echo(f"# {len(results) - failures}/{len(results)} checks passed")
    if failures:
        sys.exit(EXIT_VERIFY_FAIL)


if __name__ == "__main__":
    main()
