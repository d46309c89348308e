"""Golden SHA-256 digests of byte-stable outputs.

The digests pin the five ``figures`` suite CSVs, the CSV, summary and
config-echo files of three small ``execute`` configs, the ODE CSV of two
solutions together with their continuous-bound reports, the CSV and
summary files of ``accelcert ode`` for both equations, the CSV of
``accelcert scan``, and, on a d = 50 rotated quadratic, the energy
columns of both Lyapunov forms, the ``grad_norm`` column of every method
and the bound curve and ``check_bound`` report of every theorem pairing.
The gradient-step margins of acceptance criterion 6 are pinned for all
25 of its (objective, method) runs.  Together they keep a refactor from
drifting the numbers silently.  The report fields of
certificates that fail, or that check no pair at all, are pinned too.
They read the same with OpenBLAS at one and at two threads.

Update rule: a change that alters any digest is a change to the library's
floating-point results.  It says so in CHANGES.md, reports the max
absolute and relative difference of the affected columns against the
previous outputs, and only then records the new digests here.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from accelcert import (certify_contraction, check_bound,
                       check_continuous_bound, energies, hires_ode, integrate,
                       make_quadratic, make_reg_logistic, resolve_minimizer,
                       run, sample_in_ball)
from accelcert.acceptance import gradient_step_margins, suite_objectives
from accelcert.analysis import ENERGIES, attach_bound
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
        {".csv": "97523b7219763bcfb523a67563abc323dc93308c5cd2b674e5135e8062546bad",
         ".summary.txt": "6873a790a3b098e381307f947c3775f077d32a0861c6a3e15f87c8a6640bf586",
         ".config.json": "52a221c5986858cfb61dab9821515291849ea2093d68622f2fcdd68fbc07da5b"}),
    "logistic2-nag": (
        {"objective": "reg-logistic", "data_seed": 3, "n_samples": 50, "dim": 2,
         "reg": 0.1, "method": "nag-modified", "s": "1/L", "K": 150, "seed": 7,
         "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": "iv",
         "bound": "rate-iv"},
        {".csv": "2f71a67ec298ad72e0c711792cd87f3d89198bb00283c40d89cd1b59abee2998",
         ".summary.txt": "eb783d3cc19b9a0f99b2635b8f74e0fc5a9c9b2d2ac447bf21269704250d5c25",
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
                      "numerator": 1.125, "start_gap": 1.0,
                      "start_mu_dist_sq": 1.25})),
    "logistic": (
        lambda: resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), [1.0, 1.0],
        lambda f: 1.0 / f.lipschitz,
        "44e09ad385fb523d5cd6c1c8b28c57e29533ad157ec5980f000a9155bf3fd4c8",
        dict(n_checked=101, n_failed=55, worst_margin=-0.04866233016784749,
             first_failure=0,
             details={"bound_failures": 55, "decay_failures": 0,
                      "worst_energy_ratio": 0.9940922717612773,
                      "numerator": 0.2057798131516394,
                      "start_gap": 0.2544421433194869,
                      "start_mu_dist_sq": 0.1571174829837919})),
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
        "cfa0e8b6001b65611ef50e6d33c3955452df91df692af53df138407b6023d93e",
        "0986b379854bc57f51a21e0e6018908319781f48e6c5136248f44db46465b7f7"),
    "reg-logistic": (
        ["--objective", "reg-logistic"],
        "10e12504bda17f4fbf845a1b48a613f478cc046d9effb5c8da1c44929b97628f",
        "7f171a6ea0e773937a02ffcd190bafd5e58d73998b1d4322f460195fed0b9e7c"),
    "quad-original": (
        ["--objective", "quad", "--which", "original"],
        "01b14c3737f57fc90f36610e5ee0f402f53aae8c23a8508cc874cda3929f3b20",
        "06321b28bb6c3d7c19ff9afd829c371501a4bbc5085341615cea555b2478b20d"),
    "reg-logistic-original": (
        ["--objective", "reg-logistic", "--which", "original"],
        "49af6beb414f646958eab921532c1de4d341ecc3326baf7577239b8b58e5fb50",
        "9a5d6ac6088dec14bfbc37fed7b15ca53f4fd688d8aa099ab1d8a56ede59909b"),
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


#: ``accelcert scan`` arguments -> CSV digest.
CLI_SCAN_CASES = {
    "window": (
        ["--mu", "1", "--spectrum", "1,3", "--s-grid", "0.2,0.26,0.3,0.33",
         "--K", "200", "--seed", "8"],
        "6335c9740f6f7816b92664b0a4955ad0cdd93b49df12464689933194df52a0eb"),
    "aligned": (
        ["--mu", "0.1", "--spectrum", "0.1,2", "--s-grid", "0.05,0.5",
         "--x0", "0,1", "--K", "200"],
        "1bfba5a17a265b99650e028d1736717ff49e8d5fd5643e9c28de3a18be8b79d8"),
}


@pytest.mark.parametrize("name", sorted(CLI_SCAN_CASES))
def test_cli_scan_digests(tmp_path, name):
    args, digest = CLI_SCAN_CASES[name]
    main(["scan", *args, "--out", str(tmp_path), "--output-path", f"{name}.csv"])
    assert sha256(tmp_path / f"{name}.csv") == digest


#: (method, form) -> SHA-256 of ``energies(traj, form).tobytes()`` along a
#: K = 200 run at s = 1/L on a rotated quadratic with d = 50, where a
#: change in the order of a dot product's terms moves the last bits.
ENERGY_DIGESTS = {
    ("gc-phase", "gc"):
        "2e026edad4b5c8486a2a98c22086d678d742e0e2b5b3bc66b3d4d47b3b63c5cf",
    ("gc-modified", "gc"):
        "e9d8e730d773a75b642d84cfce1e6a51674dd4942bc280f9fe71c1d79da65442",
    ("iv-phase", "iv"):
        "02c552e616e04f922ef7269bf7f9b9b57bdadc01a2e61e2e55bc234c1c9f3776",
    ("nag-modified", "iv"):
        "20e23c29954223fe8d082e83b96ebe3baa4bdd02c69432750a65f3a240a25e06",
}


@pytest.fixture(scope="module")
def rot50():
    f = make_quadratic(np.logspace(0, 2, 50), rotation_seed=5)
    return f, sample_in_ball(np.random.default_rng(9), f.dim, 2.0)


@pytest.mark.parametrize("method,form", sorted(ENERGY_DIGESTS))
def test_energy_digests(rot50, method, form):
    f, x0 = rot50
    traj = run(f, method, x0, 1.0 / f.lipschitz, 200)
    digest = hashlib.sha256(energies(traj, form).tobytes()).hexdigest()
    assert digest == ENERGY_DIGESTS[method, form]


#: method -> SHA-256 of ``run(...).grad_norm.tobytes()`` on the same d = 50
#: run (s = 1/L, K = 200).
GRAD_NORM_DIGESTS = {
    "gc-modified":
        "79bfce0b3d2b028a635177cd2753c3a559fd4f6ef75fe4ad7d7024b139c59691",
    "gc-phase":
        "323cbc40a58a07510b9ae8e7915cf9eaac75fca4cbeb2c60c5f13e37084e37f3",
    "gd":
        "47c7154dd0b13713f4cd82108304e8e137ce7121e9af171fe6c40475a262d2ef",
    "heavy-ball":
        "76d5fca9178c9e985a42b006889290f4911c64cd9c1d8625b846648383891581",
    "iv-phase":
        "7cd640c8de859e11ad307d8ba94bde5ea0ca38d885613b4e8d82d1468ecfea48",
    "nag-classic":
        "8126509fdf697e18e57a86d3f090c5a8294846f30894a821c2c0e80a45919c30",
    "nag-modified":
        "9aa05956af17da9b317806e36130d0fcfd91639e74d6ea98307c733bdc030374",
}


@pytest.mark.parametrize("method", sorted(GRAD_NORM_DIGESTS))
def test_grad_norm_digests(rot50, method):
    f, x0 = rot50
    traj = run(f, method, x0, 1.0 / f.lipschitz, 200)
    digest = hashlib.sha256(traj.grad_norm.tobytes()).hexdigest()
    assert digest == GRAD_NORM_DIGESTS[method]


#: (suite objective, method) -> SHA-256 of
#: ``gradient_step_margins(traj).tobytes()`` along the K = 500 run at
#: s = 1/L that acceptance criterion 6 checks.
MARGIN_DIGESTS = {
    ("quad-20d", "gc-modified"):
        "1555c0c59df6b57e23e958254d3e863fbb5f99f7c7ddbae7614130e672922311",
    ("quad-20d", "gc-phase"):
        "9c3eaf4dd998b14ba91be440b2437fc17174073f01a2ad97da64d46e3586f712",
    ("quad-20d", "iv-phase"):
        "ee768d69a0b23a11b3d61a0c9b1fe8ce4ace684c109baed61da81eccb0419f06",
    ("quad-20d", "nag-classic"):
        "53963d35bf98cd18238d5b4a2d4894285af26883de97f22431c24d42ff5ddb9d",
    ("quad-20d", "nag-modified"):
        "42e55cc99ea67f34ee7bd7fb360c78f65f35b6b9272a728877c7b83eb68798b2",
    ("quad-ill", "gc-modified"):
        "b8d51eca1ec90f8b30f3957b7b0cc4c6212be40578b4d906807fb4e7b55dbbe4",
    ("quad-ill", "gc-phase"):
        "1643a0c8177803d53fcf7349d1e01c081fa8ddc8f5aa1dc8faf33f83b573080c",
    ("quad-ill", "iv-phase"):
        "00dbf9fe3efec2b0be0327218248c4bb36689b9e68a7c8eab1c36c3c1d2634c4",
    ("quad-ill", "nag-classic"):
        "7df1bb03671837ad25738c2e379b84bfe05a0d9f9f5fa992760cb5e52472600b",
    ("quad-ill", "nag-modified"):
        "0dbbcab8d630b21ed9ddf18b02c82b9939e52c6971319ee436c3c5f9aac8cc3d",
    ("quad-mild", "gc-modified"):
        "d7334a1a54da4be9276a2face31cf4c94c8352f4ff8af240aac1bf6c8069d5a5",
    ("quad-mild", "gc-phase"):
        "7355c65ddf08354d21a6730cc503d79bd4678ea3fe20d0ae111f8b0bd8951e89",
    ("quad-mild", "iv-phase"):
        "08e2d12c13a824ca4a4dfe3ca1fbbda0684175e6b87496dcc5bb2abc15760ac5",
    ("quad-mild", "nag-classic"):
        "125afe8010b612f9784138a86d969fba98e979ce8214e00dfd311d97a4b42aaa",
    ("quad-mild", "nag-modified"):
        "324eff81bfb0ab2b131c58bd45180a3d0045795e6c28de9c5cc318fe7ff15869",
    ("quad-rot", "gc-modified"):
        "af8a2d86d2249dfe173404eef5938289ef8ba0c8db9c54ea64d89773cf437b23",
    ("quad-rot", "gc-phase"):
        "90d04d4f7a260c2f2df5aaf9c1f96ae55ec022dbe38542315bb11323f138c8a7",
    ("quad-rot", "iv-phase"):
        "37b3e27aebee66d4ab18860a0a8b9a040f406e9c04bc63b914d51745875d4c79",
    ("quad-rot", "nag-classic"):
        "4b958e1f628d0a44cc1447a8da7a347bc6d404d0bb53eac346b7927f865434ed",
    ("quad-rot", "nag-modified"):
        "adce7560721f9d112f86b56e42f42dde9e7196ce871962d7328db73f223cda71",
    ("reg-logistic", "gc-modified"):
        "7f4028a03b6fe958e0b3b6dabe3a5179d227d5abb8ea6688f34d1672105ccc6e",
    ("reg-logistic", "gc-phase"):
        "abb898a68442a36ec57377aa8d1387b5f3bbaae4c9d7d0432093b484c3095be5",
    ("reg-logistic", "iv-phase"):
        "74a03be243c0d47fe0d0ebfbdf24d60c457d3851f56a6ec7ef37917dc9ffb11b",
    ("reg-logistic", "nag-classic"):
        "f424ed27b299b86fda1539664a4313772d28d5d6f6cec8d42ca97745e8c260f3",
    ("reg-logistic", "nag-modified"):
        "1f1548f3c28ba349af4f04672f62deea75de2eb584320a496ef2a6084e9dc844",
}


@pytest.fixture(scope="module")
def suite_starts():
    return {label: (f, x0) for label, f, x0 in suite_objectives()}


@pytest.mark.parametrize("label,method", sorted(MARGIN_DIGESTS))
def test_gradient_step_margin_digests(suite_starts, label, method):
    f, x0 = suite_starts[label]
    traj = run(f, method, x0, 1.0 / f.lipschitz, 500)
    digest = hashlib.sha256(gradient_step_margins(traj).tobytes()).hexdigest()
    assert digest == MARGIN_DIGESTS[label, method]


#: (theorem, method) -> (SHA-256 of the ``attach_bound`` curve, report
#: fields of ``check_bound``) on the d = 50 run (s = 1/L, K = 200).
BOUND_CASES = {
    ("classic", "nag-classic"): (
        "ed69abb9bdf4f2077d237a544a620e059bb93737352167f4f8ed84d415ff6f05",
        dict(n_checked=201, n_failed=0, worst_margin=2.416229118265838e-09,
             first_failure=None,
             details={"slack": 3.4248079733409086e-10,
                      "bound_at_0": 3.4248079733409083})),
    ("gd", "gd"): (
        "76a46755cdae4339b85d682b4ab57924cbb7782c0c0a564202ab3fd51ae49870",
        dict(n_checked=201, n_failed=0, worst_margin=0.0,
             first_failure=None,
             details={"slack": 3.2817293273899683e-10,
                      "bound_at_0": 3.2817293273899684})),
    ("rate-gc", "gc-modified"): (
        "ef97125d8975171c14743c5202fd7d1dde10658bcc00c0ef8e71b435ca715d1f",
        dict(n_checked=201, n_failed=0, worst_margin=0.05112907810805099,
             first_failure=None,
             details={"slack": 7.135773238583698e-10,
                      "bound_at_0": 7.135773238583697})),
    ("rate-gc", "gc-phase"): (
        "ef97125d8975171c14743c5202fd7d1dde10658bcc00c0ef8e71b435ca715d1f",
        dict(n_checked=201, n_failed=0, worst_margin=0.05112907810805099,
             first_failure=None,
             details={"slack": 7.135773238583698e-10,
                      "bound_at_0": 7.135773238583697})),
    ("rate-iv-x", "iv-phase"): (
        "a8a47c664f1899f02520badc7a9764ddf561044ccd3db2e67e1c70a1ccd713f2",
        dict(n_checked=201, n_failed=0, worst_margin=0.04907871046888209,
             first_failure=None,
             details={"slack": 6.849615946681817e-10,
                      "bound_at_0": 6.8496159466818165})),
    ("rate-iv-x", "nag-modified"): (
        "a8a47c664f1899f02520badc7a9764ddf561044ccd3db2e67e1c70a1ccd713f2",
        dict(n_checked=201, n_failed=0, worst_margin=0.04907871046888209,
             first_failure=None,
             details={"slack": 6.849615946681817e-10,
                      "bound_at_0": 6.8496159466818165})),
    ("rate-iv", "iv-phase"): (
        "74c0ecaac8770cbad78e3fc761d3b70289292641a7ec926cf1da6375a65050ec",
        dict(n_checked=201, n_failed=0, worst_margin=0.8201470556675658,
             first_failure=None,
             details={"slack": 1.14462916760752e-08,
                      "bound_at_0": 114.462916760752})),
    ("rate-iv", "nag-modified"): (
        "74c0ecaac8770cbad78e3fc761d3b70289292641a7ec926cf1da6375a65050ec",
        dict(n_checked=201, n_failed=0, worst_margin=0.8201470556675658,
             first_failure=None,
             details={"slack": 1.14462916760752e-08,
                      "bound_at_0": 114.462916760752})),
}


@pytest.mark.parametrize("theorem,method", sorted(BOUND_CASES))
def test_bound_digests(rot50, theorem, method):
    f, x0 = rot50
    digest, fields = BOUND_CASES[theorem, method]
    traj = run(f, method, x0, 1.0 / f.lipschitz, 200)
    curve = attach_bound(traj, theorem)
    assert hashlib.sha256(curve.tobytes()).hexdigest() == digest
    assert report_fields(check_bound(traj, theorem)) == fields


def report_fields(report) -> dict:
    return dict(n_checked=report.n_checked, n_failed=report.n_failed,
                worst_margin=report.worst_margin,
                first_failure=report.first_failure, details=report.details)


def same_fields(got: dict, want: dict) -> bool:
    """Field-by-field equality in which NaN equals NaN."""
    if got.keys() != want.keys():
        return False
    for key, w in want.items():
        g = got[key]
        if isinstance(w, dict):
            if not same_fields(g, w):
                return False
        elif not (g == w or (isinstance(w, float) and math.isnan(w)
                             and math.isnan(g))):
            return False
    return True


def test_contraction_failing_rho(monkeypatch):
    # rho = 10 sqrt(mu s) asks for far more contraction than iv-phase gives
    f = make_quadratic([1, 100])
    s = 0.01
    traj = run(f, "iv-phase", [1.0, 1.0], s, 500)
    monkeypatch.setitem(ENERGIES, "iv", ENERGIES["iv"]._replace(
        rate=lambda mu, L, s: 10 * math.sqrt(mu * s)))
    report = certify_contraction(traj, "iv")
    assert same_fields(report_fields(report), dict(
        n_checked=499, n_failed=96, worst_margin=-0.46135651764416763,
        first_failure=2,
        details={"rho": 1.0, "slack": 9.374644722222223e-09,
                 "worst_step_factor": 0.932877736852488,
                 "guaranteed_factor": 0.5, "energy_nonnegative": True,
                 "initial_energy": 93.74644722222223}))


#: (form, K) -> report fields on [1,100], s = 0.01, from x0 = [1, 1].  K = 0
#: and K = 1 leave no pair of energies to check; K = 2 leaves one.
SHORT_CONTRACTION_CASES = {
    ("iv", 0): dict(
        n_checked=0, n_failed=0, worst_margin=math.inf, first_failure=None,
        details={"rho": 0.025, "slack": 1e-10, "worst_step_factor": 0.0,
                 "guaranteed_factor": 0.9756097560975611,
                 "energy_nonnegative": True, "initial_energy": math.nan}),
    ("gc", 0): dict(
        n_checked=0, n_failed=0, worst_margin=math.inf, first_failure=None,
        details={"rho": 0.025, "slack": 1e-10, "worst_step_factor": 0.0,
                 "guaranteed_factor": 0.9756097560975611,
                 "energy_nonnegative": True, "initial_energy": math.nan}),
    ("iv", 1): dict(
        n_checked=0, n_failed=0, worst_margin=math.inf, first_failure=None,
        details={"rho": 0.025, "slack": 9.374644722222223e-09,
                 "worst_step_factor": 0.0,
                 "guaranteed_factor": 0.9756097560975611,
                 "energy_nonnegative": True,
                 "initial_energy": 93.74644722222223}),
    ("gc", 1): dict(
        n_checked=0, n_failed=0, worst_margin=math.inf, first_failure=None,
        details={"rho": 0.025, "slack": 1.985784722222223e-09,
                 "worst_step_factor": 0.0,
                 "guaranteed_factor": 0.9756097560975611,
                 "energy_nonnegative": True,
                 "initial_energy": 19.857847222222226}),
    ("iv", 2): dict(
        n_checked=1, n_failed=0, worst_margin=55.473835214415665,
        first_failure=None,
        details={"rho": 0.025, "slack": 9.374644722222223e-09,
                 "worst_step_factor": 0.3838664222630837,
                 "guaranteed_factor": 0.9756097560975611,
                 "energy_nonnegative": True,
                 "initial_energy": 93.74644722222223}),
    ("gc", 2): dict(
        n_checked=1, n_failed=0, worst_margin=17.4676727566998,
        first_failure=None,
        details={"rho": 0.025, "slack": 1.985784722222223e-09,
                 "worst_step_factor": 0.09597398484677151,
                 "guaranteed_factor": 0.9756097560975611,
                 "energy_nonnegative": True,
                 "initial_energy": 19.857847222222226}),
}


@pytest.mark.parametrize("form,K", sorted(SHORT_CONTRACTION_CASES))
def test_contraction_short_runs(form, K):
    method = {"iv": "iv-phase", "gc": "gc-phase"}[form]
    traj = run(make_quadratic([1, 100]), method, [1.0, 1.0], 0.01, K)
    report = certify_contraction(traj, form)
    assert same_fields(report_fields(report), SHORT_CONTRACTION_CASES[form, K])


def test_continuous_decay_failures(monkeypatch):
    # a negative DECAY_TOL demands more decay than the dynamics give, so
    # the decay scan fails late in the run while the envelope holds
    f = make_quadratic([1, 4])
    sol = integrate(f, np.array([1.0, 0.5]), 0.25, T=1.0, h=1e-2)
    monkeypatch.setattr(hires_ode, "DECAY_TOL", -0.01)
    report = check_continuous_bound(sol, f, 0.25, f.mu)
    assert same_fields(report_fields(report), dict(
        n_checked=101, n_failed=25, worst_margin=0.125, first_failure=75,
        details={"bound_failures": 0, "decay_failures": 25,
                 "worst_energy_ratio": 0.9882755905773176,
                 "numerator": 1.125, "start_gap": 1.0,
                 "start_mu_dist_sq": 1.25}))


def test_contraction_overflowing_energies():
    # s = 3/L diverges: from k = 261 the energies overflow to inf, so 38 of
    # the 299 margins are inf - inf = NaN; a NaN margin fails and makes the
    # worst margin -inf, and the factor E(261) / E(260) = inf is the worst
    # step factor (the rounding floor comes from the largest finite energy)
    f = make_quadratic([1, 100])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(UserWarning):
            traj = run(f, "iv-phase", [1.0, 1.0], 0.03, 300)
        report = certify_contraction(traj, "iv")
    assert same_fields(report_fields(report), dict(
        n_checked=299, n_failed=299, worst_margin=-math.inf, first_failure=0,
        details={"rho": 0.04330127018922193, "slack": 2.0629754309663712e-08,
                 "worst_step_factor": math.inf,
                 "guaranteed_factor": 0.9584959096413557,
                 "energy_nonnegative": True,
                 "initial_energy": 206.29754309663713}))
    # every float detail is a Python float, not an np.float64 (which
    # subclasses float and compares equal, so same_fields cannot tell)
    assert [k for k, v in report.details.items()
            if isinstance(v, np.floating)] == []
