"""accelcert: momentum-method convergence certificates at desk scale.

A numpy library for strongly convex first-order optimization that pairs
every scheme with its Lyapunov energy, its theoretical gap bound, and the
high-resolution differential equation it discretizes, then verifies all of
them numerically.
"""

from .report import CertReport
from .objectives import (Objective, SpectrumSpec, certify_class,
                         make_quadratic, make_reg_logistic,
                         reg_logistic_from_data, resolve_minimizer,
                         sample_in_ball)
from .optimizers import (METHODS, Trajectory, probe_point, run,
                         step_coefficients)
from .lyapunov import (certify_contraction, energies, initial_energy,
                       ode_energies)
from .hires_ode import (OdeSolution, OdeState, check_continuous_bound,
                        integrate)
from .analysis import (RootPair, ScanReport, bound_curve, characteristic_roots,
                       check_bound, empirical_rate, max_reality_threshold,
                       monotonic_window, monotonicity_scan, reality_threshold)
from .harness import (ExperimentConfig, ConfigError, execute, load_config,
                      parse_config, suite)

__version__ = "0.1.0"

__all__ = [
    "CertReport", "Objective", "SpectrumSpec", "certify_class",
    "make_quadratic", "make_reg_logistic", "reg_logistic_from_data",
    "resolve_minimizer",
    "sample_in_ball", "METHODS", "Trajectory", "step_coefficients", "run",
    "certify_contraction", "energies", "initial_energy",
    "ode_energies", "OdeSolution",
    "OdeState", "check_continuous_bound",
    "integrate", "probe_point",
    "RootPair", "ScanReport",
    "bound_curve", "characteristic_roots", "check_bound", "empirical_rate",
    "max_reality_threshold", "monotonic_window", "monotonicity_scan",
    "reality_threshold", "ExperimentConfig", "ConfigError", "execute",
    "load_config", "parse_config", "suite",
]
