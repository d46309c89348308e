"""Experiment configuration, execution, and flat-file persistence.

A run is described by a single JSON document (the only config format; the
schema is documented in the README and in :func:`parse_config`).  Outputs
are CSV files with full double precision via shortest round-trip
formatting, plus a machine-parsable ``key: value`` summary and an echo of
the resolved config for provenance, all under :func:`output_root`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, lyapunov
from .hires_ode import OdeSolution, require_integrated_with
from .objectives import (Objective, SpectrumSpec, make_quadratic,
                         make_reg_logistic, resolve_minimizer, sample_in_ball)
from .optimizers import (METHODS, NonFiniteIterateError, Trajectory, _blocks,
                         run, step_guaranteed)
from .report import CertReport

OUTPUT_ROOT_ENV = "ACCELCERT_OUT"

#: Flat config keys that parameterize each objective id.
OBJECTIVE_PARAMS = {
    "quad": ("spectrum",),
    "quad-rot": ("spectrum", "rotation_seed"),
    "reg-logistic": ("data_seed", "n_samples", "dim", "reg"),
}

OBJECTIVE_IDS = tuple(OBJECTIVE_PARAMS)

#: Each symbolic step size, as a function of the objective.
_S_SYMBOLS = {"1/L": lambda f: 1.0 / f.lipschitz,
              "1/(2L)": lambda f: 1.0 / (2.0 * f.lipschitz),
              "1/(4mu)": lambda f: 1.0 / (4.0 * f.mu)}

class ConfigError(ValueError):
    """A config document failed validation; the message names the field."""


def _is_number(v) -> bool:
    """A finite JSON number; a boolean is not one."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _is_count(v) -> bool:
    """A nonnegative JSON integer; a boolean is not one."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_ball(v) -> bool:
    """``{"random_ball": {"radius": r}}`` with r >= 0 and no other key."""
    return (isinstance(v, dict) and set(v) == {"random_ball"}
            and isinstance(v["random_ball"], dict)
            and set(v["random_ball"]) == {"radius"}
            and _is_number(v["random_ball"]["radius"])
            and v["random_ball"]["radius"] >= 0)


def _is_positive(v) -> bool:
    return _is_number(v) and v > 0


_POSITIVE = (_is_positive, "a positive number")
_POSITIVES = (lambda v: isinstance(v, list) and len(v) > 0
              and all(_is_positive(x) for x in v),
              "a nonempty array of positive numbers")
_COUNT = (_is_count, "a nonnegative integer")
_POSITIVE_COUNT = (lambda v: _is_count(v) and v > 0, "a positive integer")

#: The rule for each config field and CLI flag: (test, description).  A
#: field whose test accepts None is optional; a missing one reads as None.
_FIELD_CHECKS = {
    # a tuple compares an array or object value instead of hashing it
    "objective": (lambda v: v in OBJECTIVE_IDS, f"one of {OBJECTIVE_IDS}"),
    "method": (lambda v: v in METHODS, f"one of {METHODS}"),
    "s": (lambda v: v in tuple(_S_SYMBOLS) or _is_positive(v),
          f"a positive number or one of {tuple(_S_SYMBOLS)}"),
    "spectrum": _POSITIVES,
    "rotation_seed": _COUNT,
    "data_seed": _COUNT,
    "n_samples": _POSITIVE_COUNT,
    "dim": _POSITIVE_COUNT,
    "reg": _POSITIVE,
    "K": _COUNT,
    "seed": _COUNT,
    "x0": (lambda v: v is None or _is_ball(v) or (
        isinstance(v, list) and all(_is_number(x) for x in v)),
           'an array of finite numbers or {"random_ball": {"radius": r}} '
           'with r >= 0'),
    "output_path": (lambda v: v is None or isinstance(v, str), "a string"),
    "h": _POSITIVE,
    "T": (lambda v: _is_number(v) and v >= 0, "a nonnegative number"),
    "mu": _POSITIVE,
    "s_grid": _POSITIVES,
}

#: What a CLI flag accepts, where its type narrows its field's rule: ``--s``
#: takes no symbol and ``--x0`` no ``random_ball``, so their messages name
#: only the forms the flag can take.
_FLAG_FORMS = {"s": "a positive number",
               "x0": "comma-separated finite numbers"}


def fmt(x) -> str:
    """One CSV or summary cell: shortest round-trip decimal form of a float
    (empty for NaN; RFC-4180 safe), true/false for a bool, else ``str``."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return ""
        return repr(x)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    objective: str
    objective_params: dict
    method: str
    s: float | str
    K: int
    seed: int
    x0: object = None               # explicit list or {"random_ball": {...}}
    lyapunov: Optional[str] = None  # "gc" | "iv"
    bound: Optional[str] = None     # theorem id
    output_path: Optional[str] = None

    def to_dict(self) -> dict:
        """The config document: the fields that are not None, with
        ``objective_params`` as flat keys."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        return {**doc.pop("objective_params"), **doc}


#: The config keys of every objective, the fields of ExperimentConfig; each
#: objective also takes its OBJECTIVE_PARAMS.
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                     if f.name != "objective_params")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document.

    Required fields: ``objective`` (one of quad, quad-rot, reg-logistic,
    plus its parameters as flat keys), ``method``, ``s`` (number or one of
    "1/L", "1/(2L)", "1/(4mu)"), ``K``, ``seed``.  Optional: ``x0``
    (explicit array, or {"random_ball": {"radius": r}} drawn from ``seed``;
    defaults to a radius-1 ball point), ``lyapunov`` ("gc"/"iv"),
    ``bound`` (theorem id), ``output_path``.  Each field is checked by its
    rule in :func:`checked_fields`, and ``lyapunov`` and ``bound`` against
    the method; any other key, a parameter of another objective included,
    is unknown.  A malformed or unknown field raises :class:`ConfigError`
    naming it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    objective = checked_fields(doc, ("objective",))["objective"]
    for key in doc:
        if key not in _CONFIG_KEYS + OBJECTIVE_PARAMS[objective]:
            raise ConfigError(f"unknown field: {key}")
    params = checked_fields(doc, OBJECTIVE_PARAMS[objective])
    checked_fields(doc, [key for key in _CONFIG_KEYS if key in _FIELD_CHECKS])
    values = {key: doc.get(key) for key in _CONFIG_KEYS}
    for key, kind, table in (("lyapunov", "form", analysis.ENERGIES),
                             ("bound", "theorem", analysis.THEOREMS)):
        if values[key] is not None:
            try:
                analysis.require_claim(kind, table, values[key], values["method"])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    if not isinstance(values["s"], str):
        values["s"] = float(values["s"])
    return ExperimentConfig(objective_params=params, **values)


def checked_fields(values: dict, keys, flags: bool = False) -> dict:
    """``{key: values.get(key)}`` for ``keys``, each checked by its rule in
    ``_FIELD_CHECKS``; a missing required or a malformed one raises
    :class:`ConfigError` naming it: the config key, or with ``flags`` the
    CLI's flag for it (``--s-grid`` for ``s_grid``), described in the
    flag's own terms where ``_FLAG_FORMS`` has them."""
    for key in keys:
        valid, what = _FIELD_CHECKS[key]
        if valid(values.get(key)):
            continue
        name = key
        if flags:
            name = "--" + key.replace("_", "-")
            what = _FLAG_FORMS.get(key, what)
        if key not in values:
            raise ConfigError(f"missing required field: {name}")
        raise ConfigError(f"{name}: must be {what}")
    return {key: values.get(key) for key in keys}


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


#: The last objective :func:`objective_from_params` built, under its key
#: (objective id, canonical params JSON): one entry at most.
_last_objective: dict = {}


def objective_from_params(objective: str, params: dict) -> Objective:
    """Instantiate an objective id from its flat parameters (see
    ``OBJECTIVE_PARAMS``) with its minimizer resolved.

    The last objective built is kept, keyed by the id and the canonical
    JSON text of ``params`` (``json.dumps(params, sort_keys=True)``, as the
    echo config writes them), and a repeat call returns that same
    instance: two configs on one rotated d = 1000 quadratic make one QR
    and one dense Hessian.  Other params drop the kept objective before
    building theirs, so a sweep never holds two at once.  The kept
    objective is shared, so its ``hessian`` and ``minimizer`` arrays are
    read-only."""
    # numpy params (an eigenvalue array, a seed drawn as np.int64) take
    # the text of the equal plain values
    key = (objective, json.dumps(params, sort_keys=True,
                                 default=lambda v: np.asarray(v).tolist()))
    f = _last_objective.get(key)
    if f is not None:
        return f
    _last_objective.clear()
    if objective == "quad":
        f = make_quadratic(SpectrumSpec(params["spectrum"]))
    elif objective == "quad-rot":
        f = make_quadratic(SpectrumSpec(params["spectrum"]),
                           rotation_seed=params["rotation_seed"])
    else:
        f = make_reg_logistic(params["data_seed"], params["n_samples"],
                              params["dim"], params["reg"])
    f = resolve_minimizer(f)
    for array in (f.hessian, f.minimizer):
        if array is not None:
            array.flags.writeable = False
    _last_objective[key] = f
    return f


def build_objective(config: ExperimentConfig) -> Objective:
    """The configured objective, from :func:`objective_from_params`."""
    return objective_from_params(config.objective, config.objective_params)


def resolve_s(spec: float | str, f: Objective) -> float:
    """The step size ``spec`` on ``f``: a number, or a symbol of
    ``_S_SYMBOLS``; anything else fails the ``s`` rule."""
    checked_fields({"s": spec}, ("s",))
    return _S_SYMBOLS[spec](f) if isinstance(spec, str) else float(spec)


def check_x0_length(x0, params: dict, flags: bool = False):
    """ConfigError unless an explicit ``x0`` has one entry per dimension
    that the objective ``params`` give (``len(spectrum)`` or ``dim``), a
    check that builds no objective; with ``flags`` it names ``--x0``."""
    dim = len(params["spectrum"]) if "spectrum" in params else params["dim"]
    if x0 is not None and not isinstance(x0, dict) and len(x0) != dim:
        raise ConfigError(f"{'--x0' if flags else 'x0'}: length {len(x0)} "
                          f"does not match dimension {dim}")


def resolve_x0(config: ExperimentConfig, f: Objective) -> np.ndarray:
    """The explicit x0, or a ``random_ball`` point drawn from the seed
    (radius 1 when x0 is unset); :func:`check_x0_length` checks a list."""
    spec = config.x0
    if spec is None:
        spec = {"random_ball": {"radius": 1.0}}
    if isinstance(spec, dict):
        rng = np.random.default_rng(config.seed)
        return sample_in_ball(rng, f.dim, float(spec["random_ball"]["radius"]))
    return np.asarray(spec, dtype=float)


@dataclass
class ExecutionResult:
    config: ExperimentConfig
    ok: bool
    summary: dict
    csv_path: Optional[Path] = None
    summary_path: Optional[Path] = None
    echo_path: Optional[Path] = None
    reports: list = field(default_factory=list)


def output_root(out_root: Optional[str | Path]) -> Path:
    """``out_root``, else $ACCELCERT_OUT, else ".", created if missing."""
    if out_root is not None:
        root = Path(out_root)
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    root.mkdir(parents=True, exist_ok=True)
    return root


def output_file(out_root: Optional[str | Path], path: str | Path) -> Path:
    """``path`` under :func:`output_root` (an absolute ``path`` stays as it
    is), with its parent directory created."""
    file = output_root(out_root) / path
    file.parent.mkdir(parents=True, exist_ok=True)
    return file


def summary_path(csv_path: Path) -> Path:
    """The ``key: value`` summary beside a run's CSV: ``<stem>.summary.txt``."""
    return csv_path.with_suffix(".summary.txt")


def _cells(col) -> list:
    """:func:`fmt` of each value of a column, spelled out inline for a float
    column, whose cells are almost all the cells of a table.  Any other
    cell that holds a comma, a double quote, CR or LF is quoted as RFC 4180
    asks (and as :mod:`csv` quotes it): in double quotes, its own double
    quotes doubled.  A float cell never holds one."""
    values = np.asarray(col)
    if values.dtype.kind == "f":
        return ["" if v != v else repr(v) for v in values.tolist()]
    cells = [fmt(v) for v in values.tolist()]
    return ['"' + cell.replace('"', '""') + '"'
            if any(ch in cell for ch in ',"\r\n') else cell for cell in cells]


def _record(cells) -> str:
    """One CSV line: the cells joined by commas and ended by CRLF.  A line
    whose one cell is empty is written ``""``, so that it does not read as
    a blank line; the bytes are those of :func:`csv.writer`."""
    line = ",".join(cells)
    return (line if line or len(cells) != 1 else '""') + "\r\n"


def write_csv(columns: dict, path: Path):
    """Write ``columns`` (header -> equal-length column) as CSV: the header,
    then one row per index, every cell formatted by :func:`fmt`.  Rows are
    converted a block at a time, never the whole table at once."""
    n_rows = len(next(iter(columns.values()), ()))
    with open(path, "w", newline="") as fh:
        fh.write(_record(_cells(list(columns))))
        for rows in _blocks(n_rows):
            fh.writelines(map(_record, zip(*[_cells(col[rows])
                                             for col in columns.values()])))


def write_trajectory_csv(traj: Trajectory, path: Path):
    """Schema: k,f_gap,grad_norm[,lyapunov][,bound]."""
    columns = {"k": range(len(traj)), "f_gap": traj.f_gap,
               "grad_norm": traj.grad_norm, "lyapunov": traj.lyapunov,
               "bound": traj.bound}
    write_csv({name: col for name, col in columns.items() if col is not None},
              path)


def write_ode_csv(solution: OdeSolution, f: Objective, s: float, mu: float,
                  path: Path):
    """Schema: t,X0..X{d-1},Xdot0..Xdot{d-1},f_gap,lyapunov (gap and energy
    at the probe point / along the solution).  ``solution`` must be the one
    that ``integrate`` returned for ``f`` at (s, mu), else ValueError; its
    recorded gap column is written, so writing makes no oracle call."""
    require_integrated_with(solution, f, s, mu)
    write_csv({"t": solution.t,
               **{f"X{i}": col for i, col in enumerate(solution.X.T)},
               **{f"Xdot{i}": col for i, col in enumerate(solution.Xdot.T)},
               "f_gap": solution.f_gap,
               "lyapunov": lyapunov.ode_energies(solution)},
              path)


def write_scan_csv(report: analysis.ScanReport, path: Path):
    """Schema: s,lambda,discriminant,root1_re,root1_im,root2_re,root2_im,
    predicted_monotone,observed_monotone."""
    rows = report.rows
    roots = np.array([row.pair.roots for row in rows],
                     dtype=complex).reshape(-1, 2)
    write_csv({"s": [row.s for row in rows], "lambda": [row.lam for row in rows],
               "discriminant": [row.pair.discriminant for row in rows],
               "root1_re": roots[:, 0].real, "root1_im": roots[:, 0].imag,
               "root2_re": roots[:, 1].real, "root2_im": roots[:, 1].imag,
               "predicted_monotone": [row.predicted_monotone for row in rows],
               "observed_monotone": [row.observed_monotone for row in rows]},
              path)


def write_summary(summary: dict, path: Path):
    with open(path, "w") as fh:
        for key, value in summary.items():
            fh.write(f"{key}: {value}\n")


def execute(config: ExperimentConfig,
            out_root: Optional[str | Path] = None) -> ExecutionResult:
    """Run one configured experiment and persist its artifacts.

    Writes the trajectory CSV, a ``key: value`` certificate summary, and an
    echo of the fully resolved config (symbolic step size and seeded x0
    made explicit) whose execution reproduces the run byte for byte.
    A non-finite iterate aborts the run; the summary then records the
    failing iteration and the result is marked failed.  The output
    directories are made only once the objective, s and x0 are resolved,
    so a config error leaves none behind; an explicit x0 of the wrong
    length is rejected before the objective is built
    (:func:`build_objective`).
    """
    check_x0_length(config.x0, config.objective_params)
    f = build_objective(config)
    s = resolve_s(config.s, f)
    x0 = resolve_x0(config, f)
    stem = config.output_path or f"{config.objective}_{config.method}_K{config.K}.csv"
    csv_path = output_file(out_root, stem)

    summary_file = summary_path(csv_path)
    echo_path = csv_path.with_suffix(".config.json")

    resolved = replace(config, objective_params=dict(config.objective_params),
                       s=s, x0=[float(v) for v in x0], output_path=stem)
    echo_path.write_text(json.dumps(resolved.to_dict(), sort_keys=True, indent=2) + "\n")

    guaranteed = step_guaranteed(s, f.lipschitz)
    summary = {
        "objective": f.name,
        "method": config.method,
        "dim": f.dim,
        "mu": fmt(f.mu),
        "L": fmt(f.lipschitz),
        "s": fmt(s),
        "K": config.K,
        "seed": config.seed,
        "bound_guaranteed": fmt(guaranteed),
    }
    reports: list[CertReport] = []
    ok = True
    try:
        traj = run(f, config.method, x0, s, config.K)
    except NonFiniteIterateError as exc:
        summary["status"] = "nonfinite"
        summary["failed_at_k"] = exc.k
        write_summary(summary, summary_file)
        return ExecutionResult(config=resolved, ok=False, summary=summary,
                               summary_path=summary_file, echo_path=echo_path)

    if config.lyapunov is not None:
        lyapunov.attach_energies(traj, config.lyapunov)
    if config.bound is not None:
        analysis.attach_bound(traj, config.bound)
    summary["status"] = "ok"
    summary["final_f_gap"] = fmt(float(traj.f_gap[-1]))
    summary["final_grad_norm"] = fmt(float(traj.grad_norm[-1]))

    if config.bound is not None:
        report = analysis.check_bound(traj, config.bound)
        reports.append(report)
        summary["bound"] = config.bound
        summary["bound_violations"] = report.n_failed
        summary["bound_worst_margin"] = fmt(report.worst_margin)
        # above 1/L the bound is informational and does not fail the run
        if guaranteed and not report.passed:
            ok = False
    if config.lyapunov is not None:
        report = lyapunov.certify_contraction(traj, config.lyapunov)
        reports.append(report)
        summary["lyapunov"] = config.lyapunov
        summary["lyapunov_contraction_violations"] = report.n_failed
        summary["lyapunov_worst_margin"] = fmt(report.worst_margin)
        summary["contraction_rho"] = fmt(report.details["rho"])
        if guaranteed and not report.passed:
            ok = False

    write_trajectory_csv(traj, csv_path)
    write_summary(summary, summary_file)
    return ExecutionResult(config=resolved, ok=ok, summary=summary,
                           csv_path=csv_path, summary_path=summary_file,
                           echo_path=echo_path, reports=reports)


def figures_suite(out_root: Optional[str | Path] = None) -> int:
    """Gap-vs-iteration CSVs for each method on the condition-100 quadratic;
    1 when any run is not ok (a non-finite iterate), else 0."""
    root = output_root(out_root)
    ok = True
    for method in ("gd", "heavy-ball", "nag-classic", "nag-modified", "iv-phase"):
        config = ExperimentConfig(
            objective="quad", objective_params={"spectrum": [1, 100]},
            method=method, s="1/L", K=400, seed=1, x0=[1.0, 1.0],
            output_path=f"fig_gap_{method}.csv")
        ok &= execute(config, out_root=root).ok
    return 0 if ok else 1


def suite(name: str, out_root: Optional[str | Path] = None) -> int:
    """Run a predefined experiment suite; nonzero on certificate failure."""
    if name == "acceptance":
        from .acceptance import run_all
        return run_all(out_root=output_root(out_root))
    if name == "figures":
        return figures_suite(out_root=out_root)
    raise ConfigError(f"unknown suite {name!r}; expected 'acceptance' or 'figures'")
