"""Per-step cost of each step kernel inside ``run`` and of one RK4 step of
``integrate``, before and after a change, and on the per-coordinate lane
against the array path, measured in one process.

    python tools/bench_kernels.py --before <git rev> [--out BENCH_kernels.json]

The library at ``--before`` (extracted with ``git archive``) and the one in
``src/`` are imported side by side as two packages, and every case is timed
on both in alternation, the order flipping each round, so that drift in
machine speed hits both alike.  A case is one call, timed with
``perf_counter`` and divided by its step count:

* ``run`` of each method in ``STEPS`` for K steps at s = 1/L on the diagonal
  quadratic with spectrum ``logspace(0, 2, d)``, d = 2, 20 and 1000, from a
  seeded start (the fused oracle is one elementwise product);
* ``integrate`` of the simplified equation for n steps: on quad [1, 4] at
  s = 0.25, h = 1e-3 from (1, 0.5), acceptance criterion 7's problem, and
  on the ode-logistic workload's objective, ``make_reg_logistic(seed, 2000,
  20, 0.1)`` after ``resolve_minimizer``, at s = 1/L, h = 1e-3.

Each version builds its own objectives, so its oracles are timed too.  The
report gives, per case and version, the min and the median in microseconds
per step, the median over the rounds of the after/before ratio of the
round's pair, and the ``tracemalloc`` peak of one call in bytes, which
unlike the times is the same on every run.  BLAS runs on one thread.

The ``lane`` section times the library in ``src/`` alone, each case once
on the per-coordinate lane and once on the array path, in alternation:

* on the diagonal quadratic with spectrum ``logspace(0, 2, d)`` at d = 1,
  2, 4, 8 and 12, ``run`` of each method for K steps at s = 1/L and
  ``integrate`` of the simplified equation at s = 1/L, h = 1e-3;
* on the coupled objectives, which ``run`` steps on floats with one oracle
  call a step, ``run`` of each method for K steps at s = 1/L: the
  quadratic with that spectrum rotated by ``rotation_seed`` 11 at the same
  d, and ``make_reg_logistic(3, 50, d, 0.1)`` after ``resolve_minimizer``
  at d = 2 and 8.

For the one the cutoffs ``optimizers._LANE_MAX_DIM`` and
``_COUPLED_LANE_MAX_DIM`` are set to the largest d and every method takes
the coupled lane, and for the other both cutoffs are set to 0, so both
time the same objective; the report gives each path's min and median and
the median lane/array ratio, which places the cutoffs.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter
from unittest import mock

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIMS = (2, 20, 1000)
#: Steps per timed ``run`` call, by dimension.
RUN_STEPS = {2: 2000, 20: 2000, 1000: 500}
ODE_STEPS = {"quad[1,4]": 2000, "ode-logistic": 300}
#: Timed rounds per case and version.
ALTERNATIONS = 100
LANE_DIMS = (1, 2, 4, 8, 12)
LOGISTIC_LANE_DIMS = (2, 8)
LANE_STEPS = {"run": 2000, "integrate": 1000}


def load(src: Path, name: str):
    """The package under ``src/accelcert`` imported as ``name``."""
    init = src / "accelcert" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(ac) -> dict:
    """{case: (call, steps)} on the package ``ac``."""
    out = {}
    for d in DIMS:
        f = ac.make_quadratic(np.logspace(0, 2, d))
        x0 = ac.sample_in_ball(np.random.default_rng(d), d, 2.0)
        K = RUN_STEPS[d]
        for method in ac.optimizers.METHODS:
            out[f"run {method} d={d}"] = (
                lambda f=f, x0=x0, K=K, method=method:
                ac.run(f, method, x0, 1.0 / f.lipschitz, K), K)
    quad = ac.make_quadratic([1.0, 4.0])
    n = ODE_STEPS["quad[1,4]"]
    out["integrate quad[1,4]"] = (
        lambda: ac.integrate(quad, np.array([1.0, 0.5]), 0.25, n * 1e-3, 1e-3),
        n)
    logistic = ac.resolve_minimizer(ac.make_reg_logistic(7, 2000, 20, 0.1))
    x0 = ac.sample_in_ball(np.random.default_rng(8), 20, 2.0)
    n = ODE_STEPS["ode-logistic"]
    out["integrate ode-logistic"] = (
        lambda: ac.integrate(logistic, x0, 1.0 / logistic.lipschitz,
                             n * 1e-3, 1e-3), n)
    return out


def lane_cases(ac) -> dict:
    """{case: (call, steps)} of the lane section on the package ``ac``."""
    out = {}
    for d in LANE_DIMS:
        f = ac.make_quadratic(np.logspace(0, 2, d))
        x0 = ac.sample_in_ball(np.random.default_rng(d), d, 2.0)
        s, K, n = 1.0 / f.lipschitz, LANE_STEPS["run"], LANE_STEPS["integrate"]
        for method in ac.optimizers.METHODS:
            out[f"run {method} d={d}"] = (
                lambda f=f, x0=x0, s=s, method=method:
                ac.run(f, method, x0, s, K), K)
        out[f"integrate d={d}"] = (
            lambda f=f, x0=x0, s=s: ac.integrate(f, x0, s, n * 1e-3, 1e-3), n)
    coupled = {f"quad-rot d={d}": ac.make_quadratic(np.logspace(0, 2, d),
                                                   rotation_seed=11)
               for d in LANE_DIMS}
    coupled.update({f"logistic d={d}": ac.resolve_minimizer(
        ac.make_reg_logistic(3, 50, d, 0.1)) for d in LOGISTIC_LANE_DIMS})
    for label, f in coupled.items():
        x0 = ac.sample_in_ball(np.random.default_rng(f.dim), f.dim, 2.0)
        s, K = 1.0 / f.lipschitz, LANE_STEPS["run"]
        for method in ac.optimizers.METHODS:
            out[f"run {method} {label}"] = (
                lambda f=f, x0=x0, s=s, method=method:
                ac.run(f, method, x0, s, K), K)
    return out


def on_path(ac, lane: bool, call, steps: int) -> float:
    """``timed(call, steps)`` with the lane cutoffs of ``ac`` set so that
    every case takes a lane, or none does."""
    cutoff = max(LANE_DIMS) if lane else 0
    with mock.patch.multiple(ac.optimizers, _LANE_MAX_DIM=cutoff,
                             _COUPLED_LANE_MAX_DIM=cutoff):
        return timed(call, steps)


def timed(call, steps: int) -> float:
    t0 = perf_counter()
    call()
    return (perf_counter() - t0) / steps * 1e6


def summary(by_side: dict, num: str, den: str) -> dict:
    """The min and median of each side's samples, and the median over the
    rounds of the ``num``/``den`` ratio of the round's pair."""
    return {**{side: {"min_us": round(min(t), 3),
                      "median_us": round(statistics.median(t), 3)}
               for side, t in by_side.items()},
            "median_ratio": round(statistics.median(
                a / b for a, b in zip(by_side[num], by_side[den])), 4)}


def peak_bytes(call) -> int:
    """The peak memory ``tracemalloc`` traces during one ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def extract(rev: str, into: Path) -> Path:
    """``src/`` of git revision ``rev``, extracted under ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", required=True, help="git revision to compare")
    p.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        versions = {"before": load(extract(args.before, Path(tmp)),
                                   "accelcert_before"),
                    "after": load(ROOT / "src", "accelcert_after")}
        built = {name: cases(ac) for name, ac in versions.items()}
        names = list(built["after"])
        samples = {name: {v: [] for v in versions} for name in names}
        with np.errstate(all="ignore"):
            for name in names:  # one untimed warm-up call each
                for v in versions:
                    built[v][name][0]()
            peaks = {name: {v: peak_bytes(built[v][name][0])
                            for v in versions} for name in names}
            for i in range(ALTERNATIONS):
                order = list(versions) if i % 2 == 0 else list(versions)[::-1]
                for name in names:
                    for v in order:
                        samples[name][v].append(timed(*built[v][name]))
            after = versions["after"]
            lanes = lane_cases(after)
            paths = {"lane": True, "array": False}
            lane_samples = {name: {p: [] for p in paths} for name in lanes}
            for name, case in lanes.items():  # one untimed warm-up call each
                for lane in paths.values():
                    on_path(after, lane, *case)
            for i in range(ALTERNATIONS):
                order = list(paths) if i % 2 == 0 else list(paths)[::-1]
                for name, case in lanes.items():
                    for p in order:
                        lane_samples[name][p].append(
                            on_path(after, paths[p], *case))

    report = {name: {**summary(samples[name], "after", "before"),
                     "peak_bytes": peaks[name]} for name in names}
    lane_report = {name: summary(by_path, "lane", "array")
                   for name, by_path in lane_samples.items()}
    out = {
        "about": __doc__.split("\n\n")[0].replace("\n", " "),
        "unit": "us/step; peak_bytes in B per call",
        "before": args.before,
        "after": "src/ of the working tree",
        "alternations": ALTERNATIONS,
        "run_steps": RUN_STEPS,
        "integrate_steps": ODE_STEPS,
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "cpus": os.cpu_count(),
                    "processor": platform.machine(),
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "cases": report,
        "lane_steps": LANE_STEPS,
        "lane": lane_report,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for name, r in report.items():
        print(f"{name:32s} {r['before']['median_us']:9.3f} -> "
              f"{r['after']['median_us']:9.3f} us/step  "
              f"(ratio {r['median_ratio']:.3f})  "
              f"{r['peak_bytes']['before']:>10,} -> "
              f"{r['peak_bytes']['after']:>10,} B peak")
    for name, r in lane_report.items():
        print(f"{name:32s} {r['array']['median_us']:9.3f} array "
              f"{r['lane']['median_us']:9.3f} lane us/step  "
              f"(ratio {r['median_ratio']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
