"""Acceptance gate: every criterion below must pass at its pinned tolerance.

Each test prints one pass/fail line; the same checks back ``accelcert
suite acceptance`` (exit 0 only when all pass).
"""

import functools

import pytest

from accelcert import acceptance, analysis, hires_ode, lyapunov
from accelcert.acceptance import CRITERIA


def test_certificate_tolerances_pinned():
    # the gate's verdicts rest on these; each is the one constant its
    # certificate reads, so a change here is a change of every verdict
    assert analysis.BOUND_SLACK == 1e-10
    assert lyapunov.CONTRACTION_SLACK == 1e-10
    assert hires_ode.BOUND_TOL == 1e-6
    assert hires_ode.DECAY_TOL == 1e-8


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


def test_criterion_6_reads_suite_run_prefixes_bit_for_bit(monkeypatch):
    # criterion 6 takes the margins and slack of its iv-phase and gc-phase
    # runs as the first 500 entries of the cached 1000-step suite runs':
    # those are a fresh 500-step run's, bit for bit, and from a cold cache
    # the criterion's lines are those of fresh 500-step runs
    for label, (f, x0) in acceptance._suite().items():
        for method in ("iv-phase", "gc-phase"):
            cached = acceptance._suite_run(label, method, 1.0)
            fresh = acceptance.run(f, method, x0, 1.0 / f.lipschitz, 500)
            assert (acceptance.gradient_step_margins(cached)[:500].tobytes()
                    == acceptance.gradient_step_margins(fresh).tobytes()), (
                label, method)
            assert (cached.f_gap[:500].tobytes()
                    == fresh.f_gap[:500].tobytes()), (label, method)

    monkeypatch.setattr(acceptance, "_suite_run",
                        functools.cache(acceptance._suite_run.__wrapped__))
    cold = acceptance.criterion_6()

    def fresh_run(label, method, frac):
        f, x0 = acceptance._suite()[label]
        return acceptance.run(f, method, x0, frac / f.lipschitz, 500)

    monkeypatch.setattr(acceptance, "_suite_run", fresh_run)
    fresh = acceptance.criterion_6()
    assert (fresh.passed, fresh.lines) == (cold.passed, cold.lines)
