"""Per-layer metrics from one traced pass (spans and aggregated leaves).

Self time is a span's duration minus the time its child spans and its
leaf oracle calls cover.  ``*_self_s`` sums self time over every span of
that function; ``*_s`` without ``self`` is inclusive time.
"""

from __future__ import annotations

from collections import defaultdict

CRITERIA = 11


def self_times(spans, leaves) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for parent, name, calls, busy, nbytes in leaves:
        if parent >= 0:
            covered[parent] += busy
    return [(end - start) - covered[i]
            for i, (name, start, end, parent, _) in enumerate(spans)]


def metrics(trace: dict) -> tuple[dict, dict]:
    """(per-layer metrics, facts for the self-check) of one traced pass.
    ``trace.overhead_s`` needs the untraced wall time and is added by the
    caller."""
    spans, leaves = trace["spans"], trace["leaves"]
    selfs = self_times(spans, leaves)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    post = defaultdict(float)
    for (name, start, end, parent, value), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        incl_s[name] += end - start
        post[name] += value or 0
    oracle = {"grad": [0, 0.0], "value": [0, 0.0]}
    nbytes = 0
    for parent, name, n, busy, b in leaves:
        oracle[name][0] += n
        oracle[name][1] += busy
        nbytes += b

    iters = int(post["optimizers.run"])
    rk4 = int(post["hires_ode.integrate"])
    grad_calls = oracle["grad"][0]
    m = {
        "objectives.grad_calls": grad_calls,
        "objectives.value_calls": oracle["value"][0],
        "objectives.grad_per_iter": grad_calls / (iters + rk4) if iters + rk4 else 0.0,
        "objectives.grad_busy_s": oracle["grad"][1],
        "objectives.value_busy_s": oracle["value"][1],
        "objectives.resolve_minimizer_s": incl_s["objectives.resolve_minimizer"],
        "objectives.oracle_bytes_computed": nbytes,
        "optimizers.run_calls": calls["optimizers.run"],
        "optimizers.iters": iters,
        "optimizers.run_self_s": self_s["optimizers.run"],
        "optimizers.us_per_iter": (1e6 * self_s["optimizers.run"] / iters
                                   if iters else 0.0),
        "lyapunov.energies_calls": calls["lyapunov.energies"],
        "lyapunov.energies_self_s": self_s["lyapunov.energies"],
        "lyapunov.certify_contraction_self_s":
            self_s["lyapunov.certify_contraction"],
        "analysis.check_bound_calls": calls["analysis.check_bound"],
        "analysis.check_bound_self_s": self_s["analysis.check_bound"],
        "analysis.monotonicity_scan_self_s": self_s["analysis.monotonicity_scan"],
        "analysis.empirical_rate_self_s": self_s["analysis.empirical_rate"],
        "hires_ode.rk4_steps": rk4,
        "hires_ode.integrate_self_s": self_s["hires_ode.integrate"],
        "hires_ode.samples_checked": int(post["hires_ode.check_continuous_bound"]),
        "hires_ode.check_continuous_bound_self_s":
            self_s["hires_ode.check_continuous_bound"],
        "harness.execute_calls": calls["harness.execute"],
        "harness.execute_self_s": self_s["harness.execute"],
        "harness.csv_write_s": (incl_s["harness.write_trajectory_csv"]
                                + incl_s["harness.write_ode_csv"]),
        "harness.csv_bytes": int(post["harness.write_trajectory_csv"]
                                 + post["harness.write_ode_csv"]),
    }
    for i in range(1, CRITERIA + 1):
        m[f"acceptance.criterion_{i:02d}_s"] = incl_s[f"acceptance.criterion_{i}"]

    roots = [end - start for name, start, end, parent, _ in spans if parent < 0]
    facts = {
        "traced_total_s": sum(roots),
        "min_self_s": min(selfs, default=0.0),
        "sum_self_s": sum(selfs) + oracle["grad"][1] + oracle["value"][1],
        "grad_calls": grad_calls,
        "value_calls": oracle["value"][0],
        "iters": iters,
    }
    return m, facts
