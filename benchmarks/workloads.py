"""The benchmark's three workloads, driven through accelcert's public API.

A workload is a set-up step (timed as ``setup_s``) followed by a list of
operations run one after another by a single caller (a closed loop; their
summed time is ``wall_s``).  An operation is one acceptance criterion, one
``harness.execute`` config, or one stage of the ODE pipeline.  Each
operation returns its raw result; ``summarize`` turns that into a flat dict
of verdicts and key scalars, which ``check.py`` compares with the recorded
reference.  ``summarize`` reads attributes and plain numpy only, never an
objective's oracles, so it adds no calls to a traced or counted pass.

Importing this module imports numpy and accelcert, so the worker imports it
inside the timed set-up.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import accelcert
from accelcert import acceptance, harness, hires_ode, objectives

#: Inputs are drawn from ``seed % REFERENCE_SLOTS``; reference.json holds the
#: expected outputs of every slot.
REFERENCE_SLOTS = 16

ROT_DIM = 1000
ROT_STEPS = 2000
ROT_CONFIGS = (("iv-phase", "iv", "rate-iv"), ("gc-phase", "gc", "rate-gc"))

ODE_DATA = dict(n_samples=2000, dim=20, reg=0.1)
ODE_T = 5.0
ODE_H = 1e-3
X0_RADIUS = 2.0

#: Optimizer steps (sum of K over ``run`` calls) plus RK4 steps of one pass:
#: the work ``iters_per_s`` divides by ``wall_s``.  The acceptance figure is
#: the count made at the commit that defined the benchmark; the traced pass
#: reports the live count as ``optimizers.iters`` + ``hires_ode.rk4_steps``.
NOMINAL_ITERS = {
    "acceptance": 236_100 + 21_300,
    "execute-rot1000": len(ROT_CONFIGS) * ROT_STEPS,
    "ode-logistic": round(ODE_T / ODE_H),
}

#: The calibration kernel (worker.calibrate) that each workload's times are
#: scaled by: what bounds it.  execute-rot1000 spends about 3/4 of its time
#: in dense d = 1000 matvecs; the others in per-step interpreter overhead
#: around small arrays.
CALIBRATION = {"acceptance": "interpreter", "execute-rot1000": "matvec",
               "ode-logistic": "interpreter"}


def slot(seed: int) -> int:
    return seed % REFERENCE_SLOTS


def reference_key(workload: str, seed: int) -> str:
    """Where reference.json keeps this run's expected outputs."""
    return "any" if workload == "acceptance" else str(slot(seed))


def _draws(seed: int, tag: int, n: int) -> list[int]:
    """``n`` independent 31-bit integers derived from (slot, tag)."""
    rng = np.random.default_rng([slot(seed), tag])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------- acceptance

def setup_acceptance(seed: int, out_dir: Path):
    # The criteria pin their own inputs; the seed does not apply.
    return [(f"criterion_{i:02d}", criterion)
            for i, criterion in enumerate(acceptance.CRITERIA, start=1)]


def _summarize_criterion(result) -> dict:
    return {"passed": result.passed, "lines": list(result.lines)}


# ----------------------------------------------------------- execute-rot1000

def rot_configs(seed: int) -> list:
    rotation_seed, x0_seed = _draws(seed, 1, 2)
    spectrum = [float(v) for v in np.logspace(0, 4, ROT_DIM)]
    configs = []
    for method, energy, bound in ROT_CONFIGS:
        configs.append(harness.ExperimentConfig(
            objective="quad-rot",
            objective_params={"spectrum": spectrum,
                              "rotation_seed": rotation_seed},
            method=method, s="1/L", K=ROT_STEPS, seed=x0_seed,
            x0={"random_ball": {"radius": X0_RADIUS}},
            lyapunov=energy, bound=bound,
            output_path=f"rot1000_{method}.csv"))
    return configs


def setup_execute(seed: int, out_dir: Path):
    # execute() builds and resolves its objective itself, so the rotated
    # quadratic's construction is part of each operation, not of set-up.
    return [(config.method, lambda config=config:
             harness.execute(config, out_root=out_dir))
            for config in rot_configs(seed)]


def _summarize_execute(result) -> dict:
    summary = result.summary
    out = {"ok": result.ok, "status": summary["status"],
           "final_f_gap": float(summary["final_f_gap"]),
           "final_grad_norm": float(summary["final_grad_norm"]),
           "bound_violations": summary["bound_violations"],
           "lyapunov_contraction_violations":
               summary["lyapunov_contraction_violations"]}
    for report in result.reports:
        out[f"{report.name}.n_failed"] = report.n_failed
        out[f"{report.name}.first_failure"] = report.first_failure
        out[f"{report.name}.worst_margin"] = float(report.worst_margin)
    with open(result.csv_path) as fh:
        out["csv_rows"] = sum(1 for _ in fh) - 1
    return out


# -------------------------------------------------------------- ode-logistic

def setup_ode(seed: int, out_dir: Path):
    data_seed, x0_seed = _draws(seed, 2, 2)
    f = objectives.resolve_minimizer(
        objectives.make_reg_logistic(data_seed, **ODE_DATA))
    x0 = objectives.sample_in_ball(np.random.default_rng(x0_seed), f.dim,
                                   X0_RADIUS)
    s = 1.0 / f.lipschitz
    csv_path = out_dir / "ode_logistic.csv"
    state = {}

    def integrate():
        state["solution"] = hires_ode.integrate(f, x0, s, ODE_T, ODE_H,
                                                which="simplified")
        return f, state["solution"]

    def check():
        return hires_ode.check_continuous_bound(state["solution"], f, s, f.mu)

    def write_csv():
        harness.write_ode_csv(state["solution"], f, s, f.mu, csv_path)
        return state.pop("solution"), csv_path

    return [("integrate", integrate), ("check", check), ("csv", write_csv)]


def _summarize_integrate(result) -> dict:
    f, solution = result
    last = solution[-1]
    return {"samples": len(solution), "t_end": last.t,
            "dist_end": float(np.linalg.norm(last.X - f.minimizer)),
            "speed_end": float(np.linalg.norm(last.Xdot)),
            "dist_0": float(np.linalg.norm(solution[0].X - f.minimizer)),
            "finite": all(np.all(np.isfinite(st.X)) and np.all(np.isfinite(st.Xdot))
                          for st in solution)}


def _summarize_check(report) -> dict:
    return {"passed": report.passed, "n_checked": report.n_checked,
            "n_failed": report.n_failed, "first_failure": report.first_failure,
            "bound_failures": report.details["bound_failures"],
            "decay_failures": report.details["decay_failures"],
            "worst_margin": float(report.worst_margin),
            "worst_energy_ratio": float(report.details["worst_energy_ratio"])}


def _summarize_csv(result) -> dict:
    """Row count, and the first and last solution states read back exactly
    (the writer uses shortest round-trip formatting)."""
    solution, path = result
    d = len(solution[0].X)
    with open(path) as fh:
        lines = fh.read().splitlines()
    exact = True
    for line, state in ((lines[1], solution[0]), (lines[-1], solution[-1])):
        cells = line.split(",")
        want = [state.t, *state.X, *state.Xdot]
        exact = exact and [float(c) for c in cells[:1 + 2 * d]] == want
    return {"rows": len(lines) - 1, "columns": len(lines[0].split(",")),
            "states_exact": exact, "bytes": path.stat().st_size}


# ------------------------------------------------------------------ registry

SETUP = {"acceptance": setup_acceptance, "execute-rot1000": setup_execute,
         "ode-logistic": setup_ode}

_SUMMARIZE = {"integrate": _summarize_integrate, "check": _summarize_check,
              "csv": _summarize_csv, "iv-phase": _summarize_execute,
              "gc-phase": _summarize_execute}


def summarize(op: str, raw) -> dict:
    if op.startswith("criterion_"):
        return _summarize_criterion(raw)
    return _SUMMARIZE[op](raw)


def environment() -> dict:
    """Library location and numeric-stack versions of this process."""
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"library": accelcert.__file__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}
