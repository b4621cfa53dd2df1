"""Test-suite settings (hypothesis runs derandomized, so the suite is deterministic) and
the `fresh` fixture, which runs code in a new interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import anomdet

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh():
    """Standard output of `python -c code argv...` in a fresh interpreter on this anomdet."""
    path = os.pathsep.join([str(Path(anomdet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])

    def run(code: str, *argv: str) -> str:
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True).stdout

    return run
