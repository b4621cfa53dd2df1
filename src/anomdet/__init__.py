"""Optimal identification of anomalous states in a series of preparations.

Closed-form success probabilities (minimum-error, zero-error, and the
states-unknown universal protocol) built on the association scheme of
k-subsets, with independent brute-force linear-algebra oracles for every
closed form.

Import rule: `import anomdet` imports no submodule.  Each public name, and
each of the six submodules it comes from, is imported on first access
(PEP 562 module `__getattr__`), through the one table _EXPORTS.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "combin": ("binomial", "distance_matrix", "enumerate_patterns"),
    "gram": ("ProblemInstance", "Spectrum", "closed_form_spectrum", "direct_spectrum",
             "gram_matrix"),
    "johnson": ("Eigenmatrices", "SchemeBasis", "eigenmatrices", "hahn_polynomial",
                "scheme_basis", "scheme_projector", "verify_bose_mesner_closure"),
    "protocols": ("CertificateReport", "ProtocolResult", "explicit_success_k123",
                  "min_error_asymptotic", "min_error_success", "unambiguous_success",
                  "verify_unambiguous_certificates"),
    "universal": ("UniversalInstance", "average_known_success", "average_min_error_curve",
                  "universal_asymptote", "universal_success"),
    "oracle": ("srm_success_oracle", "universal_success_oracle"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
