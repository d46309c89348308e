"""Shared fixtures for the whole suite."""

import pytest

from accelcert import acceptance, harness


def _clear_caches():
    for cached in (acceptance._suite_run, acceptance._suite):
        cached.cache_clear()
    harness._last_objective.clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts and ends with the acceptance suite's run cache and
    the harness's kept objective empty, so a run or an objective made under
    one test's monkeypatch (a corrupted coefficient, say) is never read by
    another."""
    _clear_caches()
    yield
    _clear_caches()
