"""Certificate reports shared by the verification routines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CertReport:
    """Outcome of a numerical certificate check.

    ``worst_margin`` is the minimum slack observed over all checks: the
    amount by which the tightest check was satisfied.  Negative values mean
    at least one check failed, by that amount.  ``first_failure`` is the
    index (iteration, sample, or grid position) of the earliest failing
    check, or None when everything passed.
    """

    name: str
    n_checked: int
    n_failed: int
    worst_margin: float
    first_failure: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0


def _slack(tol: float, scale):
    """The slack of a margin scan, ``tol * max(1, scale)``, elementwise for
    an array ``scale``: every scan's tolerance is relative to its claim's
    own scale but never below ``tol`` itself.  A NaN scale reads as 1, as
    in Python's ``max(1.0, nan)``."""
    return tol * np.fmax(1.0, scale)


def margin_report(name: str, margins: np.ndarray, slack: float | np.ndarray,
                  details: dict | None = None) -> CertReport:
    """The report of a margin scan: every certificate checks a margin per
    iteration, sample or pair, and check i holds when
    ``margins[i] >= -slack`` (``slack`` a scalar or one value per check).
    A NaN margin (energies that overflowed) fails.  ``worst_margin`` is the
    smallest margin, -inf when any is NaN, or inf when there is none."""
    failures = np.flatnonzero(~(margins >= -slack))
    worst = float(np.min(margins, initial=np.inf))
    return CertReport(
        name=name,
        n_checked=len(margins),
        n_failed=len(failures),
        worst_margin=-math.inf if math.isnan(worst) else worst,
        first_failure=int(failures[0]) if len(failures) else None,
        details={} if details is None else details,
    )
