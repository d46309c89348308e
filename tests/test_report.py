import math

import numpy as np

from accelcert.report import margin_report


class TestMarginReport:
    def test_counts_failures_below_minus_slack(self):
        report = margin_report("m", np.array([1.0, -0.5, -2.0, 0.0, -3.0]), 1.0,
                               {"slack": 1.0})
        assert (report.name, report.n_checked, report.n_failed) == ("m", 5, 2)
        assert report.first_failure == 2
        assert report.worst_margin == -3.0
        assert report.details == {"slack": 1.0}
        assert not report.passed

    def test_margin_equal_to_minus_slack_passes(self):
        report = margin_report("m", np.array([-1.0, 2.0]), 1.0)
        assert report.passed and report.first_failure is None
        assert report.worst_margin == -1.0

    def test_empty_scan(self):
        report = margin_report("m", np.array([]), 0.0)
        assert report.n_checked == 0 and report.passed
        assert report.worst_margin == math.inf
        assert report.first_failure is None and report.details == {}

    def test_infinite_margins_never_fail(self):
        report = margin_report("m", np.array([np.inf, -1.0, np.inf]), 0.0)
        assert (report.n_failed, report.first_failure) == (1, 1)

    def test_nan_margins_fail_and_make_worst_minus_inf(self):
        # a NaN margin (inf - inf from overflowing energies) is a failed check
        report = margin_report("m", np.array([np.nan, 2.0, -1.0, np.nan]), 0.0)
        assert (report.n_failed, report.first_failure) == (3, 0)
        assert report.worst_margin == -math.inf
        assert margin_report("m", np.array([np.nan]), 0.0).worst_margin == -math.inf
        report = margin_report("m", np.array([2.0, np.nan]), 10.0)
        assert (report.n_failed, report.first_failure) == (1, 1)

    def test_slack_per_check(self):
        margins = np.array([-0.5, -0.5, -0.5])
        report = margin_report("m", margins, np.array([1.0, 0.1, 1.0]))
        assert (report.n_failed, report.first_failure) == (1, 1)

    def test_plain_python_types(self):
        report = margin_report("m", np.array([0.25, -1.0]), 0.0)
        assert type(report.n_failed) is int
        assert type(report.first_failure) is int
        assert type(report.worst_margin) is float
