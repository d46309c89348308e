"""Golden SHA-256 digests of byte-stable outputs.

The digests pin the five ``figures`` suite CSVs, the CSV, summary and
config-echo files of three small ``execute`` configs, the ODE CSV of two
solutions together with their continuous-bound reports, and the CSV and
summary files of ``accelcert ode``, so that a refactor cannot drift the
numbers silently.  They read the same with OpenBLAS at
one and at two threads.

Update rule: a change that alters any digest is a change to the library's
floating-point results.  It says so in CHANGES.md, reports the max
absolute and relative difference of the affected columns against the
previous outputs, and only then records the new digests here.
"""

import hashlib
import json

import numpy as np
import pytest

from accelcert import (check_continuous_bound, integrate, make_quadratic,
                       make_reg_logistic, resolve_minimizer)
from accelcert.cli import main
from accelcert.harness import (figures_suite, execute, parse_config,
                               write_ode_csv)

FIGURE_DIGESTS = {
    "fig_gap_gd.csv":
        "c42c38a8b67565c7831a977b1bd5a61568e319ea138ab36ee584b5d4078bcedf",
    "fig_gap_heavy-ball.csv":
        "a1be8809f4ce79e83b058938b4117d539219ed7cc93249601ec32495318c7215",
    "fig_gap_nag-classic.csv":
        "329068cb0a0c314eedb2193434a7150b034adf82bfad2dbe83c221a72e4bd836",
    "fig_gap_nag-modified.csv":
        "396a6d380195e7a3f6d4268da92a691fe88cc84e7e9b3b877f0a65b172b6cb86",
    "fig_gap_iv-phase.csv":
        "8be02a571d0e049d3a1cb1d8178bd73e4de647ceb1bf84f7c73eddbd336f7824",
}

#: name -> (config document, {output suffix: digest})
EXECUTE_CASES = {
    "diag20-iv": (
        {"objective": "quad", "spectrum": [float(v) for v in np.logspace(0, 2, 20)],
         "method": "iv-phase", "s": "1/L", "K": 150, "seed": 5,
         "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "iv",
         "bound": "rate-iv"},
        {".csv": "492df4a54255688e5e3e5ba3b394a95fde4b250e6b75cf9ec0a8b52a4fc6954c",
         ".summary.txt": "11546b9d0258f08515174e0efff0fe96a1a6652778ef04a4cac122367b7065f5",
         ".config.json": "09ca604efb55b46698145c5e858130bbe8c784fcefb769da5ef9c3e8ccd5a45d"}),
    "rot2-gc": (
        {"objective": "quad-rot", "spectrum": [0.5, 3.0], "rotation_seed": 11,
         "method": "gc-phase", "s": "1/L", "K": 150, "seed": 6,
         "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "gc",
         "bound": "rate-gc"},
        {".csv": "8d5b73771834a396ba4d105b582c7793c51d277f0315c9f1c4a191d83e26643c",
         ".summary.txt": "db84c865433b0f5cc7b0391b8ea1ed76504fbb6c1b3084acd6569a2b3e290d8c",
         ".config.json": "52a221c5986858cfb61dab9821515291849ea2093d68622f2fcdd68fbc07da5b"}),
    "logistic2-nag": (
        {"objective": "reg-logistic", "data_seed": 3, "n_samples": 50, "dim": 2,
         "reg": 0.1, "method": "nag-modified", "s": "1/L", "K": 150, "seed": 7,
         "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "iv",
         "bound": "rate-iv"},
        {".csv": "1e52cbe09c65fd69a244a9603ba19ea5c1d327de1cdcde3db899b8617d53cabf",
         ".summary.txt": "7a0d8f2854f9b33b2d0c2417ab11ae4d882c2ce0b800197659338ba64b2f6deb",
         ".config.json": "222ac7b94dd78a1867be94742bd0c67b0caf093bd0bf849d973d424123974398"}),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_figures_suite_digests(tmp_path):
    assert figures_suite(out_root=tmp_path) == 0
    got = {name: sha256(tmp_path / name) for name in FIGURE_DIGESTS}
    assert got == FIGURE_DIGESTS


@pytest.mark.parametrize("name", sorted(EXECUTE_CASES))
def test_execute_digests(tmp_path, name):
    doc, want = EXECUTE_CASES[name]
    config = parse_config(json.dumps({**doc, "output_path": f"{name}.csv"}))
    result = execute(config, out_root=tmp_path)
    assert result.ok
    got = {suffix: sha256(tmp_path / f"{name}{suffix}") for suffix in want}
    assert got == want


#: name -> (objective factory, x0, step size from f, CSV digest, report
#: fields).  T = 1, h = 1e-2: 101 samples.
ODE_CASES = {
    "quad14": (
        lambda: make_quadratic([1, 4]), [1.0, 0.5], lambda f: 0.25,
        "224352258643978f8f8141b03846000e5982412bd5305a0ca0513cc52c9c7895",
        dict(n_checked=101, n_failed=0, worst_margin=0.125, first_failure=None,
             details={"bound_failures": 0, "decay_failures": 0,
                      "worst_energy_ratio": 0.9882755905773176,
                      "numerator": 1.125})),
    "logistic": (
        lambda: resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), [1.0, 1.0],
        lambda f: 1.0 / f.lipschitz,
        "9f8af7ff517a804a74a439d6e28c1f02ad7ae22d5bd0c5bde75e52b22da90002",
        dict(n_checked=101, n_failed=55, worst_margin=-0.04866233016784749,
             first_failure=0,
             details={"bound_failures": 55, "decay_failures": 0,
                      "worst_energy_ratio": 0.9940922717612773,
                      "numerator": 0.2057798131516394})),
}

#: ``accelcert ode`` arguments -> (CSV digest, summary digest); every case
#: runs with --s 0.25 --T 1 --h 1e-2.
CLI_ODE_CASES = {
    "quad": (
        ["--objective", "quad"],
        "746fd05e523a9c82897264dfce9258d7c28ba3152edafb90a658003f7a2648e8",
        "7963e5438be30583eccb88dc979d94df79db00294532bdc2b6ba6bada0ccf8d3"),
    "quad-rot": (
        ["--objective", "quad-rot", "--spectrum", "0.5,3"],
        "1e51e190042f3a2f7eacc3ced404e7134bd3ac2353899f2cfd89ea185e3e4e79",
        "0986b379854bc57f51a21e0e6018908319781f48e6c5136248f44db46465b7f7"),
    "reg-logistic": (
        ["--objective", "reg-logistic"],
        "6fe77517a4c8110b6c3b71b796031346be9068e3793cf7bfd05d8aab8f9e8b30",
        "7f171a6ea0e773937a02ffcd190bafd5e58d73998b1d4322f460195fed0b9e7c"),
}


@pytest.mark.parametrize("name", sorted(ODE_CASES))
def test_ode_csv_and_report(tmp_path, name):
    make, x0, step, digest, fields = ODE_CASES[name]
    f = make()
    s = step(f)
    sol = integrate(f, np.array(x0), s, T=1.0, h=1e-2)
    path = tmp_path / f"{name}.csv"
    write_ode_csv(sol, f, s, f.mu, path)
    assert sha256(path) == digest
    report = check_continuous_bound(sol, f, s, f.mu)
    got = dict(n_checked=report.n_checked, n_failed=report.n_failed,
               worst_margin=report.worst_margin,
               first_failure=report.first_failure, details=report.details)
    assert got == fields


@pytest.mark.parametrize("name", sorted(CLI_ODE_CASES))
def test_cli_ode_digests(tmp_path, name):
    args, csv_digest, summary_digest = CLI_ODE_CASES[name]
    main(["ode", *args, "--s", "0.25", "--T", "1", "--h", "1e-2",
          "--out", str(tmp_path), "--output-path", f"{name}.csv"])
    assert sha256(tmp_path / f"{name}.csv") == csv_digest
    assert sha256(tmp_path / f"{name}.summary.txt") == summary_digest
