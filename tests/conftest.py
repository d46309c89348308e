"""Shared fixtures for the whole suite."""

import pytest

from accelcert import acceptance


@pytest.fixture(autouse=True)
def cold_acceptance_cache():
    """Each test starts and ends with the acceptance suite's run cache
    empty, so a run made under one test's monkeypatch (a corrupted
    coefficient, say) is never read by another."""
    for cached in (acceptance._suite_run, acceptance._suite):
        cached.cache_clear()
    yield
    for cached in (acceptance._suite_run, acceptance._suite):
        cached.cache_clear()
