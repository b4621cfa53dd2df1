"""Property tests over the whole small domain 0 <= k <= n <= 10.

Overlaps are drawn from {0, 1} (ints, on the exact path), floats in
[0, 1] (the log-domain float path, its c = 0 and c = 1 special cases
included) and Fractions p/q with q <= 12 (the exact path).
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anomdet.combin import binomial
from anomdet.gram import ProblemInstance, closed_form_spectrum, direct_spectrum, gram_matrix
from anomdet.oracle import all_hypothesis_states, srm_success_oracle
from anomdet.protocols import min_error_success

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


def _srm_oracle_error_bound(inst: ProblemInstance, value: float) -> float:
    """Error the SRM oracle itself may make on value = (sum_j w_j sqrt(lambda_j))^2.

    The oracle square-roots the eigenvalues of G found by a dense
    eigensolver, each within delta = N eps lambda_0.  That moves
    sqrt(lambda_j) by at most min(sqrt(delta), delta / (2 sqrt(lambda_j))):
    negligible for well-separated eigenvalues, but ~sqrt(delta) for those
    at the noise floor, which G has at and near c = 1.
    """
    spec = closed_form_spectrum(inst)
    lams = spec.values.astype(float).tolist()
    delta = inst.N * np.finfo(float).eps * lams[0]
    shift = sum(
        m / inst.N * min(math.sqrt(delta), delta / (2 * math.sqrt(lam)) if lam else math.inf)
        for m, lam in zip(spec.multiplicities, lams)
    )
    return 2 * math.sqrt(value) * shift + shift * shift


@settings(max_examples=80)
@given(instances())
def test_min_error_matches_srm_oracle(inst):
    value = min_error_success(inst).value
    oracle_value = srm_success_oracle(all_hypothesis_states(inst)).success
    assert abs(value - oracle_value) <= 1e-10 + _srm_oracle_error_bound(inst, value)
