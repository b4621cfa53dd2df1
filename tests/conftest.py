"""Test-suite settings: hypothesis runs derandomized, so the suite is deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
