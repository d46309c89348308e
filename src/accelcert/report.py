"""Certificate reports shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


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
