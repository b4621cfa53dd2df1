"""Property tests over the whole small domain 0 <= k <= n <= 10, and of the
exact spectrum's trace identities at n <= 300.

Overlaps are drawn from {0, 1} (ints, on the exact path), floats in
[0, 1] (the log-domain float path, its c = 0 and c = 1 special cases
included) and Fractions p/q with q <= 12 (the exact path).  The overlap
domain test draws c of every numeric type, in range or not, and of
types that are not numbers at all.  The known-states closed forms and
the universal entry points draw their counts n, k and d of every numeric
type, in range or not, with n up to 10^6.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anomdet.combin import binomial
from anomdet.gram import ProblemInstance, closed_form_spectrum, direct_spectrum, gram_matrix
from anomdet.oracle import all_hypothesis_states, srm_success_oracle
from anomdet.protocols import (
    explicit_success_k123,
    min_error_success,
    unambiguous_success,
    verify_unambiguous_certificates,
)
from anomdet.universal import (
    UniversalInstance,
    average_known_success,
    average_min_error_curve,
    universal_asymptote,
    universal_success,
)

overlaps = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.integers(min_value=2, max_value=12).flatmap(
        lambda q: st.integers(min_value=1, max_value=q - 1).map(lambda p: Fraction(p, q))
    ),
)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=0, max_value=n))
    return ProblemInstance(n, k, draw(overlaps))


@settings(max_examples=150)
@given(instances())
def test_spectrum_matches_dense_oracle(inst):
    spec = closed_form_spectrum(inst)
    assert all(m >= 0 for m in spec.multiplicities)
    assert sum(spec.multiplicities) == inst.N == binomial(inst.n, inst.k)
    dense = direct_spectrum(gram_matrix(inst))
    closed = spec.as_multiset()
    assert np.abs(closed - dense).max() <= 1e-9 * max(1.0, float(spec.values[0]))


exact_overlaps = st.integers(min_value=1, max_value=12).flatmap(
    lambda q: st.integers(min_value=0, max_value=q).map(lambda p: Fraction(p, q))
)


@settings(max_examples=100)
@given(n=st.integers(min_value=1, max_value=300), data=st.data(), c=exact_overlaps)
def test_exact_spectrum_holds_both_trace_identities(n, data, c):
    # tr G = N and tr G^2 = N sum_i C(k, i) C(n-k, i) z^(2i): each row of G holds
    # C(k, i) C(n-k, i) entries z^i; neither identity reads the recurrence
    k = data.draw(st.integers(min_value=0, max_value=n))
    spec = closed_form_spectrum(ProblemInstance(n, k, c))
    z, N = c * c, math.comb(n, k)
    pairs = list(zip(spec.values, spec.multiplicities))
    assert all(type(value) is Fraction for value, _ in pairs)
    assert sum(m * value for value, m in pairs) == N
    assert sum(m * value * value for value, m in pairs) == N * sum(
        math.comb(k, i) * math.comb(n - k, i) * z ** (2 * i) for i in range(min(k, n - k) + 1)
    )


@settings(max_examples=80)
@given(instances())
def test_min_error_matches_srm_oracle(inst):
    value = min_error_success(inst).value
    oracle_value = srm_success_oracle(all_hypothesis_states(inst)).success
    assert abs(value - oracle_value) <= 1e-10


any_overlap = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([np.int64, np.int32, np.uint8]).flatmap(
        lambda t: st.integers(min_value=0, max_value=3).map(t)),
    st.floats(min_value=-0.5, max_value=1.5),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(min_value=0.0, max_value=1.0, width=32).map(np.float32),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.decimals(min_value=-1, max_value=2, places=3),
    st.sampled_from([Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")]),
    st.sampled_from([True, np.bool_(False), None, "0.5", b"1", 0.5j, np.complex128(0.25), [0.5]]),
)

VALUE_FUNCTIONS = {
    "min_error_success": lambda inst: min_error_success(inst).value,
    "explicit_success_k123": lambda inst: explicit_success_k123(inst).value,
    "unambiguous_success": lambda inst: unambiguous_success(inst).value,
    "certificate_primal_value": lambda inst: verify_unambiguous_certificates(inst).primal_value,
}


def _trace_holds(inst: ProblemInstance) -> bool:
    """tr G = N from the closed-form spectrum: exact on Fractions, relative 1e-12 on floats."""
    spec = closed_form_spectrum(inst)
    pairs = list(zip(spec.values, spec.multiplicities))
    if inst.exact:
        return sum(value * m for value, m in pairs) == inst.N
    return abs(math.fsum(m / inst.N * value for value, m in pairs) - 1) <= 1e-12


@pytest.mark.parametrize("name", VALUE_FUNCTIONS)
@settings(max_examples=150)
@given(n=st.integers(min_value=1, max_value=8), data=st.data(), c=any_overlap)
def test_every_overlap_gets_a_value_or_a_clear_error(name, n, data, c):
    # the overlap half of the domain contract: each public value function on
    # any c returns a finite value in [0, 1] or raises ValueError/ArithmeticError
    k = data.draw(st.integers(min_value=0, max_value=n))
    try:
        inst = ProblemInstance(n, k, c)
        assert _trace_holds(inst)
        value = VALUE_FUNCTIONS[name](inst)
    except (ValueError, ArithmeticError) as exc:
        assert str(exc)
        return
    assert type(value) is float and 0 <= value <= 1, value


def counts(top: int):
    """A count up to `top`, or a little below 0: three times in four as an int
    or numpy integer, else as a float, Fraction or Decimal, or a bool, a
    non-integral or a non-finite number."""
    value = st.integers(min_value=-2, max_value=top)
    integers = st.one_of(
        value,
        st.sampled_from([np.int64, np.int32]).flatmap(value.map),
        st.integers(min_value=0, max_value=top).map(np.uint32),
    )
    others = st.one_of(
        st.booleans(),
        st.booleans().map(np.bool_),
        value.map(float),
        st.floats(allow_nan=True, allow_infinity=True),
        value.map(Fraction),
        st.fractions(min_value=-2, max_value=top, max_denominator=12),
        value.map(Decimal),
        st.decimals(allow_nan=True, allow_infinity=True, places=2),
    )
    return st.integers(min_value=0, max_value=3).flatmap(lambda i: integers if i else others)


KNOWN_STATE_FUNCTIONS = {
    "closed_form_spectrum": _trace_holds,
    **{name: VALUE_FUNCTIONS[name]
       for name in ("min_error_success", "explicit_success_k123", "unambiguous_success")},
}


@pytest.mark.parametrize("name", KNOWN_STATE_FUNCTIONS)
@settings(max_examples=150)
@given(n=counts(10**6), k=counts(64), c=any_overlap)
def test_every_count_gets_a_known_state_value_or_a_clear_error(name, n, k, c):
    # the count half of the domain contract for the known-states closed forms,
    # n up to 10^6 (the certificate, which builds N x N matrices, has its own
    # test below).  Each returns a value in [0, 1], or a spectrum whose
    # trace check holds, or raises ValueError/ArithmeticError with a message
    try:
        value = KNOWN_STATE_FUNCTIONS[name](ProblemInstance(n, k, c))
    except (ValueError, ArithmeticError) as exc:
        assert str(exc)
        return
    if name == "closed_form_spectrum":
        assert value is True
    else:
        assert type(value) is float and 0 <= value <= 1, value


@settings(max_examples=150)
@given(n=counts(12), k=counts(12), c=any_overlap)
def test_every_count_gets_a_certificate_or_a_clear_error(n, k, c):
    # the certificate's domain contract: an optimal report whose primal value
    # is the zero-error value, or ValueError/ArithmeticError with a message;
    # N = C(n, k) is held to 500, as every example builds N x N matrices
    try:
        inst = ProblemInstance(n, k, c)
        assume(inst.N <= 500)
        report = verify_unambiguous_certificates(inst)
    except (ValueError, ArithmeticError) as exc:
        assert str(exc)
        return
    assert report.optimal and report.gap <= 1e-10, report
    assert report.primal_value == unambiguous_success(inst).value


UNIVERSAL_FUNCTIONS = {
    # name: (function, strategies of its counts); each example stays cheap:
    # universal_success's Horner loop runs min(k, n-k) steps on small factors,
    # whatever d, and the curve evaluates min_error_success at
    # 16 (log2(2n) + 1) overlaps
    "universal_success": (lambda n, k, d: universal_success(UniversalInstance(n, k, d)),
                          (counts(10**6), counts(64), counts(10**6))),
    "universal_asymptote": (universal_asymptote, (counts(10**6), counts(10**6))),
    "average_known_success": (average_known_success, (counts(10**6), counts(10**6))),
    "average_min_error_curve": (average_min_error_curve, (counts(200), counts(200), counts(64))),
}


@pytest.mark.parametrize("name", UNIVERSAL_FUNCTIONS)
@settings(max_examples=100)
@given(data=st.data())
def test_every_count_gets_a_value_or_a_clear_error(name, data):
    # the count half of the domain contract for the universal entry points:
    # a value in [0, 1] (an exact Fraction from the closed forms) or
    # ValueError/ArithmeticError with a message
    function, strategies = UNIVERSAL_FUNCTIONS[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        value = function(*args)
    except (ValueError, ArithmeticError) as exc:
        assert str(exc)
        return
    expected = Fraction if name in ("universal_success", "universal_asymptote") else float
    assert type(value) is expected and 0 <= value <= 1, value
