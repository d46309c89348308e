"""One pass of one workload, in a fresh process.

    python3 benchmarks/worker.py --workload NAME --seed N --mode MODE --out-dir DIR

Modes: ``plain`` times set-up and the operations with nothing patched;
``setup`` stops after set-up; ``trace`` patches the library with
``tracer.Tracer`` and writes the spans to DIR/trace.json; ``count`` runs
the counting-only pass.  ``calibrate()`` runs after set-up and after every
operation, and each time is also given at calibration speed (``*norm_s``).
The last line of standard output is one JSON object.  ``run.py`` starts
this script with the BLAS thread count pinned.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

#: Median seconds of ``calibrate(kind)`` on the machine that defined the
#: benchmark (see README.md): the speed that normalised times refer to.
CAL_REF_S = {"interpreter": 0.088, "matvec": 0.039}


@dataclass
class _State:
    x: object
    v: object
    k: int


def calibrate(kind: str) -> float:
    """Seconds for fixed work that does not depend on the program.

    Machines shared with other tenants change speed by 10-30% over seconds
    to minutes, and not every kind of code slows alike, so the work matches
    what bounds the workload (``workloads.CALIBRATION``).  ``interpreter``
    is a bare interpreter loop plus a momentum-style loop of small numpy
    operations and dataclass copies.  ``matvec`` is dense products with an
    8 MB matrix, like the d = 1000 oracle; the matrix is allocated before
    the clock starts and freed after, between operations, when the pass is
    below its peak resident memory.
    """
    import numpy as np
    if kind == "matvec":
        m = np.ones((1000, 1000))
        v = np.ones(1000)
        t = perf_counter()
        for _ in range(100):
            v = m @ v * 1e-3
        return perf_counter() - t
    t = perf_counter()
    s = 0
    for i in range(600_000):
        s += i * i
    h = np.diag(np.linspace(1.0, 10.0, 20))
    state = _State(np.ones(20), np.zeros(20), 0)
    for k in range(4000):
        g = h @ state.x
        v = state.v - 0.01 * g
        state = replace(state, x=state.x + 0.01 * v, v=v, k=k + 1)
        float(np.linalg.norm(g))
    return perf_counter() - t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "setup", "trace", "count"),
                        required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = perf_counter()
    import accelcert  # noqa: F401  (timed: part of set-up)
    tracer = counter = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    elif args.mode == "count":
        from tracer import Counter
        counter = Counter()
        counter.install()
    import workloads
    setup = workloads.SETUP[args.workload]
    if tracer is not None:
        ops = tracer.root("setup", lambda: setup(args.seed, args.out_dir))
    else:
        ops = setup(args.seed, args.out_dir)
    setup_s = perf_counter() - t0

    # set-up is import-bound: interpreter speed scales it
    calibrate("interpreter")  # warm-up
    cal = calibrate("interpreter")
    out = {"setup_s": setup_s,
           "setup_norm_s": setup_s * CAL_REF_S["interpreter"] / cal,
           "iters": workloads.NOMINAL_ITERS[args.workload],
           "reference_key": workloads.reference_key(args.workload, args.seed)}
    if args.mode != "setup":
        kind = workloads.CALIBRATION[args.workload]
        calibrate(kind)  # warm-up
        cal = calibrate(kind)
        out["ops"] = []
        for name, fn in ops:
            op = run_op(name, fn, tracer)
            cal_after = calibrate(kind)
            op["norm_s"] = op["s"] * CAL_REF_S[kind] / (0.5 * (cal + cal_after))
            op["cal_s"] = [cal, cal_after]
            cal = cal_after
            out["ops"].append(op)
        out["wall_s"] = sum(op["s"] for op in out["ops"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        import layers
        trace = tracer.dump()
        (args.out_dir / "trace.json").write_text(json.dumps(trace))
        out["layers"], out["facts"] = layers.metrics(trace)
        out["stale_sites"] = trace["stale_sites"]
    if counter is not None:
        out["counts"] = counter.counts
    out["env"] = workloads.environment()
    print(json.dumps(out))
    return 0


def run_op(name: str, fn, tracer) -> dict:
    """Time one operation; an exception or a summary that cannot be made
    marks it failed."""
    import workloads
    op = {"name": name, "error": None, "outputs": {}}
    t = perf_counter()
    try:
        raw = tracer.root(f"op.{name}", fn) if tracer is not None else fn()
    except Exception:
        op["s"] = perf_counter() - t
        op["error"] = traceback.format_exc(limit=3)
        return op
    op["s"] = perf_counter() - t
    try:
        op["outputs"] = workloads.summarize(name, raw)
    except Exception:
        op["error"] = traceback.format_exc(limit=3)
    return op


if __name__ == "__main__":
    sys.exit(main())
