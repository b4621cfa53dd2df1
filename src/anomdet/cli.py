"""Command-line front end.

Subcommands: spectrum, minerr, unambiguous, universal, sweep, verify.
Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 I/O failure.  All floats are printed with 12 significant digits so
that sweep output is byte-stable.

Import rule: at module level only the stdlib, click and .combin.  Each
command imports what it runs, once and never per row: spectrum gram;
minerr and unambiguous also protocols; universal and sweep also universal;
verify verify.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from decimal import Context
from fractions import Fraction

import click

from .combin import SCOPES, _counts

EXIT_VERIFY_FAIL = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
TRACE_RTOL = 1e-12
EXACT_EXPONENT_CAP = 4300  # Python's default digit limit for an int parsed from text
_EXPONENT = re.compile(r"e[-+]?([\d_]*)\s*\Z", re.IGNORECASE)  # an exact overlap's exponent
_DIGIT_LIMIT = ("a value exceeds Python's {}-digit int-to-str limit; "
                "drop --exact to print the float value")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_count(m: int) -> str:
    """m in full, or as _fmt prints a float where str() refuses it (the int-to-str digit limit)."""
    try:
        return str(m)
    except ValueError:  # a Decimal reads an int of any size
        return format(Context(prec=12).create_decimal(m).normalize(), "g")


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
    denominator (1/0) included.  Fraction('1e999999999') would build
    10**999999999 before the range check could reject it, so an exact
    overlap whose exponent exceeds EXACT_EXPONENT_CAP in magnitude is
    refused unbuilt.
    """
    try:
        if not exact:
            return float(text)
        exponent = _EXPONENT.search(text)
        if exponent:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(EXACT_EXPONENT_CAP)) or int(digits or 0) > EXACT_EXPONENT_CAP:
                raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid overlap c {text!r}") from None


def _fail_params(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_BAD_PARAMS)


def _run(compute, out_path: str = "-") -> None:
    """The one path from a command's parameters to its output: `compute()` returns
    the lines, which may format lazily, and the exit code.  Every line is formed
    before any is printed, so a bad parameter, a value outside the float range or
    an int over the int-to-str digit limit exits 2 with one `error:` line and an
    empty stdout; an unwritable `out_path` exits 3."""
    try:
        lines, code = compute()
    except (ValueError, ArithmeticError) as exc:  # the latter e.g. float overflow at large k
        _fail_params(f"value not representable ({type(exc).__name__}: {exc})"
                     if isinstance(exc, ArithmeticError) else str(exc))
    try:
        text = "".join(f"{line}\n" for line in lines)
    except ValueError:
        _fail_params(_DIGIT_LIMIT.format(sys.get_int_max_str_digits()))
    if out_path == "-":
        click.echo(text, nl=False)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            click.echo(f"error: cannot write {out_path}: {exc}", err=True)
            sys.exit(EXIT_IO)
    sys.exit(code)


def _known_value(protocols, row: str, inst) -> float:
    """The value of one known-states row of the ProblemInstance inst, from the
    protocols module the command imported: `minerr`, `unambiguous`, or the
    min-error curve's `minerr_asymptote` (k < n) or `minerr_limit`, (1-c^2)^k.
    Raises FloatingPointError on a 0.0 that stands for a positive value:
    min-error always, the others (powers of 1 - c^2) short of c = 1."""
    if row == "minerr":
        value = protocols.min_error_success(inst).value
    elif row == "unambiguous":
        value = protocols.unambiguous_success(inst).value
    elif row == "minerr_limit":
        value = (1 - inst.c2) ** inst.k
    else:
        with warnings.catch_warnings():  # a curve runs the asymptote at every k/n
            warnings.simplefilter("ignore")
            value = protocols.min_error_asymptotic(inst).value
    if value == 0 and (row == "minerr" or inst.c2 < 1):
        raise FloatingPointError("positive value below the float range rounds to 0")
    return value


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
    from .gram import ProblemInstance, closed_form_spectrum

    count = str if exact else _fmt_count

    def compute():
        inst = ProblemInstance(n=n, k=k, c=_parse_overlap(c, exact))
        if exact and not _prints_exactly(inst):
            raise ValueError(_DIGIT_LIMIT.format(sys.get_int_max_str_digits()))
        spec = closed_form_spectrum(inst)
        status = _trace_status(spec, exact)

        def lines():
            yield "j,eigenvalue,multiplicity"
            for j, (value, m) in enumerate(zip(spec.values, spec.multiplicities)):
                yield f"{j},{value if exact else _fmt(value)},{count(m)}"
            if inst.m < inst.k:
                yield f"# k > n/2: evaluated at n-k = {inst.m} (complement symmetry)"
            yield f"# trace check: sum m_j*lambda_j = N = {count(inst.N)}: {status}"

        return lines(), 0 if status.startswith("ok") else EXIT_VERIFY_FAIL

    _run(compute)


def _prints_exactly(inst) -> bool:
    """False when lambda_m = (q-p)^m / q^m (c^2 = p/q, in lowest terms) has a
    denominator str() refuses, so the O(m)-step recurrence need not run.  True
    does not promise that every line prints.  q^m stays below 2^(8 limit)."""
    limit, q, m = sys.get_int_max_str_digits(), inst.c2.denominator, inst.m
    return not limit or m * (q.bit_length() - 1) <= 4 * limit and q**m < 10**limit


def _trace_status(spec, exact: bool) -> str:
    """'ok' or 'MISMATCH ...' for tr G = N: exact equality on Fractions,
    a relative residual |sum (m_j/N) lambda_j - 1| within TRACE_RTOL on floats."""
    N, pairs = spec.instance.N, list(zip(spec.values, spec.multiplicities))
    if exact:  # one sum of ints over the denominators' lcm (q^m for c^2 = p/q), no Fraction sum
        L = math.lcm(*(value.denominator for value, _ in pairs))
        trace = sum(value.numerator * (L // value.denominator) * m for value, m in pairs)
        return "ok" if trace == N * L else f"MISMATCH {trace / L}"
    # m_j/N first: N and m_j may exceed the float range while the eigenvalues do not
    residual = abs(math.fsum(m / N * value for value, m in pairs) - 1)
    status = "ok" if residual <= TRACE_RTOL else "MISMATCH"
    return f"{status} (relative residual {residual:.3g}, tolerance {TRACE_RTOL:g})"


for _row in ("minerr", "unambiguous"):
    @main.command(name=_row)
    @click.option("--n", type=int, required=True)
    @click.option("--k", type=int, required=True)
    @click.option("--c", type=str, required=True)
    @click.option("--exact", is_flag=True)
    def _single_value(n: int, k: int, c: str, exact: bool, row: str = _row) -> None:
        from . import protocols
        from .gram import ProblemInstance

        def compute():
            inst = ProblemInstance(n=n, k=k, c=_parse_overlap(c, exact))
            return [_fmt(_known_value(protocols, row, inst))], 0

        _run(compute)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--exact", is_flag=True, help="print the exact rational value")
def universal(n: int, k: int, d: int, exact: bool) -> None:
    """Success probability of the states-unknown universal protocol."""
    from .universal import UniversalInstance, universal_success

    _run(lambda: (map(str if exact else _fmt, [universal_success(UniversalInstance(n, k, d))]), 0))


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
    from . import protocols
    from .gram import ProblemInstance
    from .universal import (UniversalInstance, average_min_error_curve, universal_asymptote,
                            universal_success)

    def compute():
        ns = _parse_range(n_range)
        cs = [_parse_overlap(v, exact=False) for v in c_grid.split(",") if v]
        _counts(k=k, d=d)
        if not cs:
            raise ValueError("need a non-empty c grid")
        for c in cs:
            if not 0 <= c <= 1:
                raise ValueError(f"overlap {c} outside [0, 1]")
        known = ("minerr", "minerr_asymptote", "minerr_limit") if protocol == "minerr" else (protocol,)
        rows = ["n,k,c_or_d,protocol,value"]
        for n in ns:
            if protocol in ("minerr", "unambiguous"):
                for c in cs:  # the asymptote is left out at k = n, where it is undefined
                    inst = ProblemInstance(n=n, k=k, c=c)
                    rows += (f"{n},{k},{_fmt(c)},{row},{_fmt(_known_value(protocols, row, inst))}"
                             for row in known if row != "minerr_asymptote" or k < n)
            else:  # universal, or average: the known-states curve averaged over the overlap
                value = (universal_success(UniversalInstance(n=n, k=k, d=d))
                         if protocol == "universal" else average_min_error_curve(n, k, d))
                rows.append(f"{n},{k},{d},{protocol},{_fmt(value)}")
                rows.append(f"{n},{k},{d},{protocol}_asymptote,{_fmt(universal_asymptote(k, d))}")
        return rows, 0

    _run(compute, out_path)


@main.command()
@click.option("--scope", type=click.Choice(["all", *SCOPES]), default="all")
@click.option("--max-n", type=int, default=8)
def verify(scope: str, max_n: int) -> None:
    """Run the check registry; one PASS/FAIL/ERROR line per check instance."""
    from .verify import run_scope

    def compute():
        results = run_scope(scope, max_n)
        failures = sum(not r.passed for r in results)
        lines = [r.line() for r in results]
        lines.append(f"# {len(results) - failures}/{len(results)} checks passed")
        return lines, EXIT_VERIFY_FAIL if failures else 0

    _run(compute)


if __name__ == "__main__":
    main()
