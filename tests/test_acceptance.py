"""Acceptance gate: every criterion below must pass at its pinned tolerance.

Each test prints one pass/fail line; the same checks back ``accelcert
suite acceptance`` (exit 0 only when all pass).
"""

import pytest

from accelcert import acceptance
from accelcert.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[c.__name__ for c in CRITERIA])
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number:2d} {status} - {result.title}")
    for line in result.lines:
        print(f"    {line}")
    assert result.passed, f"criterion {result.number}: {result.title}"


@pytest.mark.parametrize("criterion", CRITERIA[:6],
                         ids=[c.__name__ for c in CRITERIA[:6]])
def test_shared_runs_leave_lines_unchanged(criterion):
    # criteria 1-5 read cached suite runs: a criterion run from a cold
    # cache and again once every shared run is cached gives the same lines
    cold = criterion()
    for label in acceptance._suite():
        for method in ("iv-phase", "gc-phase"):
            for frac in (1.0, 0.5):
                acceptance._suite_run(label, method, frac)
    warm = criterion()
    assert (warm.passed, warm.lines) == (cold.passed, cold.lines)


def test_cached_suite_run_is_read_only():
    traj = acceptance._suite_run("quad-ill", "iv-phase", 1.0)
    assert acceptance._suite_run("quad-ill", "iv-phase", 1.0) is traj
    for col in (traj.xs, traj.ys, traj.vs, traj.f_gap, traj.grad_sq):
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0.0
