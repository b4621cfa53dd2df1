import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import anomdet
from anomdet import combin, protocols, verify


def test_reexports_are_public_and_all_entries_exist():
    for info in pkgutil.iter_modules(anomdet.__path__):
        module = importlib.import_module(f"anomdet.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    # the package serves its re-exports lazily, from one name -> module table
    assert anomdet._EXPORTS
    for module_name, names in anomdet._EXPORTS.items():
        module = importlib.import_module(f"anomdet.{module_name}")
        for name in names:
            assert name in module.__all__, f"{name} is not in {module.__name__}.__all__"
            assert getattr(anomdet, name) is getattr(module, name)


# the package's public names, as they were when __init__ imported its six modules eagerly
_PUBLIC = [
    "CertificateReport", "Eigenmatrices", "ProblemInstance", "ProtocolResult", "SchemeBasis",
    "Spectrum", "UniversalInstance", "average_known_success", "average_min_error_curve",
    "binomial", "closed_form_spectrum", "combin", "direct_spectrum", "distance_matrix",
    "eigenmatrices", "enumerate_patterns", "explicit_success_k123", "gram", "gram_matrix",
    "hahn_polynomial", "johnson", "min_error_asymptotic", "min_error_success", "oracle",
    "protocols", "scheme_basis", "scheme_projector", "srm_success_oracle", "unambiguous_success",
    "universal", "universal_asymptote", "universal_success", "universal_success_oracle",
    "verify_bose_mesner_closure", "verify_unambiguous_certificates",
]


def test_dir_and_star_import_give_the_public_names(fresh):
    # in a fresh interpreter, where no other test has imported cli or verify
    code = ("import anomdet; print([n for n in dir(anomdet) if not n.startswith('_')]); "
            "ns = {}; exec('from anomdet import *', ns); print(sorted(set(ns) - {'__builtins__'}))")
    assert fresh(code).splitlines() == [repr(_PUBLIC)] * 2


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'anomdet' has no attribute 'no_such_name'$"):
        anomdet.no_such_name
    assert not hasattr(anomdet, "_no_such_private_name")


def test_package_imports_only_stdlib_numpy_and_click():
    # mpmath and sympy are for the tests only: the package needs numpy and click
    allowed = set(sys.stdlib_module_names) | {"numpy", "click", "anomdet"}
    for path in Path(anomdet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside = {name for name in names if name.split(".")[0] not in allowed}
            assert not outside, f"{path.name} imports {sorted(outside)}"


def _functools_memo(node) -> bool:
    """Whether node names functools.lru_cache or functools.cache, called or not."""
    node = node.func if isinstance(node, ast.Call) else node
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "functools" \
            and node.attr in ("lru_cache", "cache")
    return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")


def test_only_the_srm_run_memo_is_a_functools_cache():
    # every per-(n, k) table sits behind combin._bounded_cache; verify._srm, the
    # run memo of the detection rows, is the one functools cache, as a decorator
    decorated, named = [], 0
    for path in sorted(Path(anomdet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorated += [f"{path.stem}.{node.name}" for d in node.decorator_list
                              if _functools_memo(d)]
            named += isinstance(node, (ast.Name, ast.Attribute)) and _functools_memo(node)
    assert decorated == ["verify._srm"]
    assert named == len(decorated), "a functools cache is applied outside a decorator"


def test_registry_holds_every_cache_once(cold):
    # one entry per @_bounded_cache of the package, and verify's run memo, so that
    # no cache escapes combin._clear_caches, which empties every one
    for info in pkgutil.iter_modules(anomdet.__path__):
        importlib.import_module(f"anomdet.{info.name}")
    decorated = [f"anomdet.{path.stem}.{node.name}"
                 for path in Path(anomdet.__file__).parent.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)
                 and "_bounded_cache" in map(ast.unparse, node.decorator_list)]
    registered = sorted(f"{memo.__module__}.{memo.__name__}" for memo in combin._CACHES)
    assert len(decorated) == 8 and registered == sorted([*decorated, "anomdet.verify._srm"])
    combin.distance_matrix(5, 2)
    protocols._dual_witness(5, 2)
    verify._srm(4, 2, 0.5)
    assert combin._distances.cache and protocols._dual_witness.cache
    assert verify._srm.cache_info().currsize == 1
    combin._clear_caches()
    assert not any(memo.cache_info().currsize if memo is verify._srm else memo.cache
                   for memo in combin._CACHES)
