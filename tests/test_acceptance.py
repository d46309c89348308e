"""Acceptance gate: every criterion below must pass at its pinned tolerance.

Each test prints one pass/fail line; the same checks back ``accelcert
suite acceptance`` (exit 0 only when all pass).
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from accelcert import acceptance, analysis, cli, harness, hires_ode, lyapunov
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


@pytest.mark.parametrize("method, gap, cause", [
    ("gd", 1.0, "iterations to 1e-8: gd not reached"),
    ("iv-phase", np.nan, "r(iv)=undefined")], ids=["gd-stalls", "iv-nan"])
def test_criterion_10_fails_where_a_fit_or_hitting_time_is_missing(
        monkeypatch, method, gap, cause):
    # gd gaps that stay at 1.0 never reach 1e-8, and NaN iv-phase gaps
    # leave no record to fit: the criterion fails and names the cause,
    # with no iteration ratio to grow
    real_run = acceptance.run

    def run(f, name, *args):
        traj = real_run(f, name, *args)
        if name == method:
            traj = replace(traj, f_gap=np.full_like(traj.f_gap, gap))
        return traj

    monkeypatch.setattr(acceptance, "run", run)
    result = acceptance.criterion_10()
    assert not result.passed
    assert any(cause in line for line in result.lines), result.lines
    assert result.lines[-1].endswith("over 100x kappa: undefined")


@pytest.mark.parametrize("fails, passed, line", [
    ("scheme", True, "quad-ill: scheme v1 violates at k=3; literal-corollary "
                     "v1 passes (reported, not failed)"),
    ("both", False, "quad-ill: both v1 conventions violate the bound")],
    ids=["scheme-fails", "both-fail"])
def test_criterion_4_falls_back_to_the_corollary_v1(monkeypatch, fails,
                                                    passed, line):
    # the criterion checks each objective's scheme v1 run, then its
    # literal-corollary v1 run: on every objective, fail the first and
    # pass the second, or fail both
    real_check_bound = analysis.check_bound
    calls = []

    def check_bound(traj, theorem):
        report = real_check_bound(traj, theorem)
        scheme = len(calls) % 2 == 0
        calls.append(theorem)
        if scheme or fails == "both":
            return replace(report, n_failed=1, first_failure=3)
        return replace(report, n_failed=0, first_failure=None)

    monkeypatch.setattr(analysis, "check_bound", check_bound)
    result = acceptance.criterion_4()
    assert calls == ["rate-iv-x"] * 2 * len(acceptance._suite())
    assert result.passed is passed
    assert result.lines[0] == line
    assert len(result.lines) == len(acceptance._suite())


def stub(number, passed):
    """A criterion that reports ``passed`` and two lines."""
    return lambda: acceptance._result(number, f"stub {number}", passed,
                                      [f"line {number}a", f"line {number}b"])


def test_run_all_prints_verdicts_and_writes_the_summary(monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", (stub(1, True), stub(2, False)))
    assert acceptance.run_all(tmp_path) == 1
    # only a failed criterion's lines are printed, indented under it
    assert capsys.readouterr().out.splitlines() == [
        "criterion  1 PASS - stub 1",
        "criterion  2 FAIL - stub 2",
        "    line 2a",
        "    line 2b",
        "acceptance: 1/2 criteria passed"]
    assert (tmp_path / "acceptance_summary.txt").read_text() == (
        "criterion_1: pass\n  line 1a\n  line 1b\n"
        "criterion_2: fail\n  line 2a\n  line 2b\n")


@pytest.mark.parametrize("second, status", [(True, 0), (False, 1)])
def test_suite_acceptance_exit_status(monkeypatch, tmp_path, capsys, second,
                                      status):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        (stub(1, True), stub(2, second)))
    assert harness.suite("acceptance", out_root=tmp_path / "api") == status
    assert cli.main(["suite", "acceptance",
                     "--out", str(tmp_path / "cli")]) == status
    out = capsys.readouterr().out
    assert out.count(f"acceptance: {2 - status}/2 criteria passed\n") == 2
    assert ((tmp_path / "api" / "acceptance_summary.txt").read_bytes()
            == (tmp_path / "cli" / "acceptance_summary.txt").read_bytes())
