"""Golden SHA-256 digests of byte-stable outputs.

The digests pin the five ``figures`` suite CSVs and the CSV, summary and
config-echo files of three small ``execute`` configs, so that a refactor
cannot drift the numbers silently.  They read the same with OpenBLAS at
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

from accelcert.harness import figures_suite, execute, parse_config

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
