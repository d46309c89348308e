"""Mutation census of the claims: does a claim made weaker die by meaning?

    python tools/mutants.py [--full] [--out BENCH_mutants.json]

Each mutant in ``MUTANTS`` is a one-line substitution (file, old, new) that
weakens one claim of ``accelcert.analysis``'s tables, the way a
certificate reads it, or the slack and margins every certificate scans.
Each names the tier-1 test that must kill it, one that checks a verdict
rather than pins a value.  For each mutant, the tool copies the repository
into a temporary directory, applies the substitution there (``old`` must
occur exactly once) and reports the verdict of its test: "killed" when it
fails, "survived" when it passes.  With ``--full`` it also reports the
verdicts of ``accelcert suite acceptance`` and of the tier-1 tests
without the byte pins (``tests/test_golden_digests.py`` and
``tests/test_demos.py``), which a re-recorded digest cannot protect.

The ODE damping mutant 2 sqrt(mu) -> sqrt(mu) is a control, run only
with ``--full``: it changes no claim, so it names no test, and the
acceptance gate kills it.  An unmutated copy is checked first and must
pass every check that is run, or the census means nothing.

The report goes to ``--out``.  The exit status is 1 when the unmutated copy
fails a check, when a mutant survives the test it names, or, with
``--full``, when the gate lets the control through.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ANALYSIS = "src/accelcert/analysis.py"
HIRES = "src/accelcert/hires_ode.py"
LYAPUNOV = "src/accelcert/lyapunov.py"
REPORT = "src/accelcert/report.py"
CLAIMS = "tests/test_claims.py"
SIXTEEN_RHO = ("tests/test_lyapunov.py::TestCertifyContraction::"
               "test_suite_run_fails_sixteen_times_the_claim")
HUNDREDTH = ("tests/test_analysis.py::TestCheckBound::"
             "test_suite_run_fails_a_hundredth_of_rate_iv")

#: (id, file, old, new, the test that must kill it; None for the control).
#: A "/8" in an id is a rate of sqrt(mu s)/8 or sqrt(mu)/8 where the claim
#: has /4.
MUTANTS = [
    ("rho/8", ANALYSIS,
     "    return math.sqrt(mu * s) / 4.0",
     "    return math.sqrt(mu * s) / 8.0",
     CLAIMS),
    ("rho-iv/8", ANALYSIS,
     '"iv": Claim(_IV, "y", _rho)',
     '"iv": Claim(_IV, "y", lambda mu, L, s: _rho(mu, L, s) / 2.0)',
     CLAIMS),
    ("rho-gc/8", ANALYSIS,
     '"gc": Claim(_GC, "y", _rho)',
     '"gc": Claim(_GC, "y", lambda mu, L, s: _rho(mu, L, s) / 2.0)',
     CLAIMS),
    ("rate-iv*2", ANALYSIS,
     '"rate-iv": Claim(_IV, "y", _rho, (0.0, 0.0, 4.0)),',
     '"rate-iv": Claim(_IV, "y", _rho, (0.0, 0.0, 8.0)),',
     CLAIMS),
    ("rate-iv-x*1.5", ANALYSIS,
     "                       (2.0, 1.0, 0.0)),",
     "                       (3.0, 1.5, 0.0)),",
     CLAIMS),
    ("rate-gc/8", ANALYSIS,
     '"rate-gc": Claim(_GC, "x", _rho,',
     '"rate-gc": Claim(_GC, "x", lambda mu, L, s: _rho(mu, L, s) / 2.0,',
     CLAIMS),
    ("gd/2", ANALYSIS,
     '"gd": Claim(("gd",), "y", lambda mu, L, s: mu * s,',
     '"gd": Claim(("gd",), "y", lambda mu, L, s: mu * s / 2.0,',
     CLAIMS),
    ("classic/2", ANALYSIS,
     'lambda mu, L, s: math.sqrt(mu * s),',
     'lambda mu, L, s: math.sqrt(mu * s) / 2.0,',
     CLAIMS),
    ("envelope/8", HIRES,
     "envelope = numerator * _exp(-rate * solution.t)",
     "envelope = numerator * _exp(-rate / 2.0 * solution.t)",
     CLAIMS),
    ("decay/8", HIRES,
     "limit = _exp(-rate * np.diff(solution.t)) + DECAY_TOL",
     "limit = _exp(-rate / 2.0 * np.diff(solution.t)) + DECAY_TOL",
     CLAIMS),
    ("slack*1e6", REPORT,
     "    return tol * np.fmax(1.0, scale)",
     "    return 1e6 * tol * np.fmax(1.0, scale)",
     SIXTEEN_RHO),
    ("margin>=slack", REPORT,
     "failures = np.flatnonzero(~(margins >= -slack))",
     "failures = np.flatnonzero(~(margins >= slack))",
     "tests/test_lyapunov.py::TestCertifyContraction::"
     "test_optimum_start_trivially_certified"),
    ("bound-margin-sign", ANALYSIS,
     "return margin_report(f\"bound_{theorem}\", curve - gaps, slack,",
     "return margin_report(f\"bound_{theorem}\", gaps - curve, slack,",
     HUNDREDTH),
    ("contraction-margin-sign", LYAPUNOV,
     "e[:-1] / (1.0 + rho) - e[1:],",
     "e[1:] - e[:-1] / (1.0 + rho),",
     SIXTEEN_RHO),
    ("ode-damping-control", HIRES,
     "damping, = _operands(-2.0 * math.sqrt(f.mu))",
     "damping, = _operands(-1.0 * math.sqrt(f.mu))",
     None),
]

PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
#: The named test is a mutant's own; on the unmutated copy, all of them.
CHECKS = {
    "named_test": PYTEST,
    "gate": [sys.executable, "-m", "accelcert.cli", "suite", "acceptance"],
    "tier1_without_byte_pins": PYTEST + [
        "--continue-on-collection-errors",
        "--ignore=tests/test_golden_digests.py",
        "--ignore=tests/test_demos.py"],
}
SKIP = shutil.ignore_patterns(".git", ".bench_out", ".bench_build",
                              "__pycache__", ".pytest_cache", ".hypothesis",
                              "*.egg-info")


def census(mutant, checks) -> dict:
    """Whether each check passes, and its wall seconds, on a copy with
    ``mutant`` applied (None: the unmutated copy)."""
    tests = ([mutant[4]] if mutant is not None
             else sorted({m[4] for m in MUTANTS if m[4] is not None}))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if mutant is not None:
            _, file, old, new, _ = mutant
            path = copy / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{mutant[0]}: {old!r} occurs "
                                 f"{text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "ACCELCERT_OUT": str(copy)}
        out = {}
        for name in checks:
            t0 = perf_counter()
            command = CHECKS[name] + (tests if name == "named_test" else [])
            code = subprocess.run(command, cwd=copy, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            out[name] = {"passed": code == 0,
                         "seconds": round(perf_counter() - t0, 2)}
            print(f"  {name}: {'passed' if code == 0 else 'failed'} "
                  f"({out[name]['seconds']} s)", flush=True)
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--full", action="store_true",
                   help="also run the acceptance gate and tier-1 without "
                        "the byte pins")
    p.add_argument("--out", default=str(ROOT / "BENCH_mutants.json"))
    args = p.parse_args(argv)
    checks = list(CHECKS) if args.full else ["named_test"]

    print("unmutated", flush=True)
    baseline = census(None, checks)
    bad = [f"unmutated copy fails {name}" for name, r in baseline.items()
           if not r["passed"]]
    rows = []
    for mutant in MUTANTS:
        ident, file, old, new, test = mutant
        if test is None and not args.full:
            continue
        print(ident, flush=True)
        mutant_checks = [c for c in checks
                         if test is not None or c != "named_test"]
        verdicts = {name: {"verdict": "survived" if r["passed"] else "killed",
                           "seconds": r["seconds"]}
                    for name, r in census(mutant, mutant_checks).items()}
        rows.append({"id": ident, "file": file, "old": old, "new": new,
                     "test": test, "checks": verdicts})
        if test is not None and verdicts["named_test"]["verdict"] == "survived":
            bad.append(f"{ident} survives {test}")
        if test is None and verdicts["gate"]["verdict"] == "survived":
            bad.append(f"the gate lets the control {ident} through")
    report = {
        "about": __doc__.split("\n\n")[0],
        "checks": {name: " ".join(CHECKS[name][1:]) + (
            " <the mutant's test>" if name == "named_test" else "")
            for name in checks},
        "machine": {"python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "unmutated": baseline,
        "mutants": rows,
        "problems": bad,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for line in bad:
        print(f"FAIL: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
