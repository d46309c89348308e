"""accelcert benchmark: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the repository root; the library is imported from ``src/``.
Every workload pass runs in a fresh process (``worker.py``) with the BLAS
thread count pinned, so ``setup_s`` and ``peak_rss_mb`` are per pass.

``--trace 0`` repeats passes for about ``--seconds`` and reports the
medians of the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one traced pass, one counting-only pass and untraced
passes, and reports the per-layer metrics; it self-checks the trace.
Either way every operation's outputs are checked against reference.json.
The last line of standard output is one JSON object; the lines before it,
and a record under ``.bench_out/results/``, give the sample counts,
spreads, ``fail_share`` and the pinned environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402

OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"

#: BLAS threads for every pass.  One, because with two OpenBLAS threads a
#: 1000 x 1000 matvec on the 2-CPU machine that defined the benchmark took
#: either 0.24 ms or 8 ms, depending on whether the helper thread was awake:
#: noise that has nothing to do with the program.  With one it takes a
#: steady 0.39 ms.
BLAS_THREADS = 1

MIN_PASSES = 3
#: set-up samples per run: the passes' own, topped up by set-up-only passes
SETUP_SAMPLES = 9
#: no pass starts once one more would end later than this, and none runs
#: past RUN_LIMIT_S, counted from the workload's start (the limit for a
#: whole run is 180 s)
HARD_LIMIT_S = 140.0
RUN_LIMIT_S = 170.0

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def machine() -> dict:
    """CPU, core count and cache sizes of this machine, as Linux reports
    them; missing files leave a field out."""
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "blas_threads": BLAS_THREADS}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"l{level}"] = size
    l3 = info.get("l3", "")
    if l3.endswith("K"):
        # execute-rot1000's dense Hessian is 8 * 1000^2 bytes
        info["rot1000_hessian_l3_resident"] = int(l3[:-1]) * 1024 > 8 * 1000**2
    return info


def launch(workload: str, seed: int, mode: str, tag: str,
           deadline: float) -> dict:
    """Run one worker pass; it is killed at ``deadline`` (time.monotonic)."""
    out_dir = OUT / "passes" / f"{workload}-{seed}-{os.getpid()}-{tag}"
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--out-dir", str(out_dir)],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} timed out") from exc
    finally:
        if mode == "trace" and (out_dir / "trace.json").exists():
            shutil.copy(out_dir / "trace.json",
                        OUT / "results" / f"trace-{workload}-seed{seed}.json")
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["mode"] = mode
    library = Path(result["env"]["library"]).resolve()
    if ROOT / "src" not in library.parents:
        raise BenchError(f"accelcert imported from {library}, not from src/")
    return result


def run_passes(workload: str, seed: int, seconds: float, modes: list) -> tuple:
    """Run the given passes, then plain passes until ``seconds`` is spent:
    at least MIN_PASSES of them, or one after the given passes."""
    start = time.monotonic()
    passes, lengths = [], []

    def one(mode):
        t = time.monotonic()
        passes.append(launch(workload, seed, mode, str(len(passes)),
                             start + RUN_LIMIT_S))
        lengths.append(time.monotonic() - t)

    for mode in modes:
        one(mode)
    needed = 1 if modes else MIN_PASSES
    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(lengths) if lengths else 0.0
        if elapsed + typical > HARD_LIMIT_S:
            break
        n_plain = sum(p["mode"] == "plain" for p in passes)
        if n_plain >= needed and elapsed + typical > seconds:
            break
        one("plain")
    return passes, start + RUN_LIMIT_S


def judge(workload: str, passes: list, reference: dict) -> tuple:
    """(attempted, failed, failure notes) over every operation of every pass."""
    attempted = failed = 0
    notes = []
    for p in passes:
        ref_ops = reference[workload][p["reference_key"]]
        for op in p["ops"]:
            attempted += 1
            why = op["error"] or ", ".join(
                check.nonfinite(op["outputs"])
                + check.mismatches(ref_ops.get(op["name"], {}), op["outputs"]))
            if why:
                failed += 1
                notes.append(f"{workload} {p['mode']} {op['name']}: {why}")
    return attempted, failed, notes


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    return f"n={n}; p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f}"


def end_to_end(passes: list, setups: list) -> dict:
    """Medians over the run, in seconds at the calibration speed (see
    ``worker.calibrate``).  ``wall_s`` sums each operation's median time
    across passes: the passes run the same operations in the same order,
    and a burst of interference from other processes on the machine then
    moves one sample of one operation instead of a whole pass."""
    times = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(op["name"], []).append(op["norm_s"])
    wall = sum(statistics.median(t) for t in times.values())
    return {"wall_s": wall,
            "setup_s": statistics.median(setups),
            "iters_per_s": passes[0]["iters"] / wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def self_check(spec: dict, traced: dict, counted: dict, per_layer: dict,
               interactions: dict) -> list[str]:
    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.fullmatch(m["name"]):
                problems.append(f"bad metric name {m['name']!r}")
    declared = [m["name"] for m in spec["per_layer"]]
    problems += [f"{n}: no interaction entry" for n in declared
                 if n not in interactions["per_layer"]]
    if set(per_layer) != set(declared):
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"{sorted(set(per_layer) ^ set(declared))}")
    facts = traced["facts"]
    if facts["min_self_s"] < -1e-9:
        problems.append(f"negative self time {facts['min_self_s']}")
    if facts["sum_self_s"] > facts["traced_total_s"] + 1e-9:
        problems.append("self times sum beyond the traced wall time")
    counts = counted["counts"]
    for traced_key, count_key in (("grad_calls", "grad"), ("value_calls", "value"),
                                  ("iters", "iters")):
        if facts[traced_key] != counts[count_key]:
            problems.append(f"traced {traced_key} {facts[traced_key]} != "
                            f"counted {counts[count_key]}")
    if traced["stale_sites"]:
        problems.append(f"unpatched binding sites: {traced['stale_sites']}")
    return problems


def bench(workload: str, seed: int, seconds: float, trace: bool,
          spec: dict, reference: dict) -> dict:
    passes, deadline = run_passes(workload, seed, seconds,
                                  ["trace", "count"] if trace else [])
    plain = [p for p in passes if p["mode"] == "plain"]
    setups = [p["setup_norm_s"] for p in plain]
    if not trace:
        for i in range(SETUP_SAMPLES - len(setups)):
            setups.append(launch(workload, seed, "setup", f"s{i}",
                                 deadline)["setup_norm_s"])
    attempted, failed, notes = judge(workload, passes, reference)
    e2e = end_to_end(plain, setups)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "machine": machine(), "env": passes[0]["env"],
              "end_to_end": e2e, "fail_share": failed / attempted,
              "walls": [p["wall_s"] for p in plain], "setups": setups,
              "failures": notes, "passes": passes}
    if trace:
        traced = next(p for p in passes if p["mode"] == "trace")
        counted = next(p for p in passes if p["mode"] == "count")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (sum(op["norm_s"] for op in traced["ops"])
                                      - e2e["wall_s"])
        interactions = json.loads((HERE / "interactions.json").read_text())
        record["per_layer"] = layers
        record["self_check"] = self_check(spec, traced, counted, layers,
                                          interactions)
        metrics = layers
    else:
        record["self_check"] = []
        metrics = e2e
    record["attempted"], record["failed"] = attempted, failed
    record["metrics"] = metrics
    return record


def report_lines(record: dict, units: dict) -> list[str]:
    w = record["workload"]
    e2e = record["end_to_end"]
    walls = record["walls"]
    lines = [f"{w}: wall_s {e2e['wall_s']:.4f} s (sum of operation medians, "
             f"at calibration speed; as measured: pass median "
             f"{statistics.median(walls):.4f} s, {tail(walls)})",
             f"{w}: setup_s median {e2e['setup_s']:.4f} s (at calibration "
             f"speed, n={len(record['setups'])})"]
    for name in ("iters_per_s", "peak_rss_mb"):
        lines.append(f"{w}: {name} {e2e[name]:.4f} {units[name]}")
    lines.append(f"{w}: fail_share {record['fail_share']:.4f} "
                 f"({record['failed']}/{record['attempted']} operations)")
    if record["trace"]:
        for name, value in record["per_layer"].items():
            lines.append(f"{w}: {name} {value:.6g} {units[name]}")
    lines += [f"{w}: FAILED {note}" for note in record["failures"]]
    lines += [f"{w}: SELF-CHECK {p}" for p in record["self_check"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "accelcert" / "__init__.py").is_file():
        raise BenchError(f"no accelcert sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        raise BenchError(f"unknown workload {args.workload!r}; expected one "
                         f"of {names} or 'all'")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    records = [bench(w, args.seed, args.seconds, bool(args.trace), spec,
                     reference) for w in chosen]
    for record in records:
        path = OUT / "results" / (f"{record['workload']}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
        path.write_text(json.dumps(record, indent=1))
        print("\n".join(report_lines(record, units)))

    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for name, value in record["metrics"].items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["self_check"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
