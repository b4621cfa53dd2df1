"""Test-suite settings (hypothesis runs derandomized) and fixtures.  Every test module
starts on cold caches (`cold_module`); `cold` empties every cache before and after one test,
as a plant that reaches a cached builder must.  A test clears one cache by hand only to assert
its bound, order or contents.  `fresh` runs code in a new interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import anomdet
from anomdet import combin

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True, scope="module")
def cold_module():
    combin._clear_caches()


@pytest.fixture
def cold():
    combin._clear_caches()
    yield
    combin._clear_caches()


@pytest.fixture
def fresh():
    """Standard output of `python -c code argv...` in a fresh interpreter on this anomdet."""
    path = os.pathsep.join([str(Path(anomdet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])

    def run(code: str, *argv: str) -> str:
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True).stdout

    return run
