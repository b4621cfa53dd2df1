"""Optimal identification of anomalous states in a series of preparations.

Closed-form success probabilities (minimum-error, zero-error, and the
states-unknown universal protocol) built on the association scheme of
k-subsets, with independent brute-force linear-algebra oracles for every
closed form.
"""

from .combin import (
    binomial,
    distance_matrix,
    enumerate_patterns,
)
from .gram import (
    ProblemInstance,
    Spectrum,
    closed_form_spectrum,
    direct_spectrum,
    gram_matrix,
)
from .johnson import (
    Eigenmatrices,
    SchemeBasis,
    eigenmatrices,
    hahn_polynomial,
    scheme_basis,
    scheme_projector,
    verify_bose_mesner_closure,
)
from .protocols import (
    CertificateReport,
    ProtocolResult,
    explicit_success_k123,
    min_error_asymptotic,
    min_error_success,
    unambiguous_success,
    verify_unambiguous_certificates,
)
from .universal import (
    UniversalInstance,
    average_known_success,
    average_min_error_curve,
    universal_asymptote,
    universal_success,
)
from .oracle import (
    srm_success_oracle,
    universal_success_oracle,
)

__version__ = "0.1.0"
