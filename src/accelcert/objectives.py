"""Strongly convex, smooth test objectives and class-membership certification.

Every objective carries its strong-convexity modulus ``mu`` and gradient
Lipschitz constant ``lipschitz`` (written L below), and, when known, its
minimizer and minimum value; every certificate checks for both with
:func:`require_minimizer`.  All randomness flows through explicit 64-bit
seeds fed to numpy's PCG64 generator (``numpy.random.default_rng``), so
construction and sampling are reproducible bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .report import CertReport, _slack

Vector = np.ndarray

#: Gradient norm allowed at a declared minimizer.
MINIMIZER_GRAD_TOL = 1e-10


def _operands(*values) -> tuple[np.ndarray, ...]:
    """Each value as a read-only 0-d float64 array, an operand for the
    constants of a hot loop.  Under numpy >= 2, ``array * 0.5`` takes the
    weak-scalar promotion path for the Python float, which at small sizes
    costs more dispatch than ``array * np.array(0.5)``; both run the same
    float64 loop, so they give the same bits.  The kernels, the RK4 stages
    and the logistic gradient take their constants this way."""
    out = tuple(np.array(v, dtype=float) for v in values)
    for a in out:
        a.flags.writeable = False
    return out


def _check_array(oracle: str, name: str, got, shape: tuple):
    """ValueError naming ``oracle`` unless ``got``, what it returned as its
    ``name``, is a float64 ndarray of ``shape``."""
    if not (isinstance(got, np.ndarray) and got.dtype == np.float64
            and got.shape == shape):
        kind = (f"a {got.dtype} array of shape {got.shape}"
                if isinstance(got, np.ndarray) else f"a {type(got).__name__}")
        raise ValueError(f"{oracle} returned {kind} as its {name}, not a "
                         f"float64 array of shape {shape}")


def _checked_fused(result: tuple, f: Objective) -> tuple[float, Vector]:
    """``result``, the (value, gradient) of ``f``'s fused oracle (or of
    :meth:`Objective.value_and_grad` without one), once it is seen to keep
    the contract of :class:`Objective`: a real scalar value and a float64
    ndarray gradient of shape (f.dim,).  Else ValueError naming the
    oracle: a gradient of shape (1,) would broadcast into every coordinate
    of a run.  The hot loops check their first fused call, which the
    others repeat."""
    value, grad = result
    oracle = "grad_fn" if f.value_and_grad_fn is None else "value_and_grad_fn"
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{oracle} returned a value of type "
                         f"{type(value).__name__}, not a real scalar")
    _check_array(oracle, "gradient", grad, (f.dim,))
    return result


def _checked_rows(result: tuple, n: int, dim: int) -> tuple[Vector, Vector]:
    """``result``, the (values, gradients) of a row-batched oracle at n
    rows, once it is seen to keep the contract of :class:`Objective`:
    float64 arrays of shape (n,) and (n, dim).  Else ValueError naming
    ``value_and_grad_rows_fn``: values of shape (n, 1) would broadcast
    into a column of gaps."""
    values, grads = result
    _check_array("value_and_grad_rows_fn", "values", values, (n,))
    _check_array("value_and_grad_rows_fn", "gradients", grads, (n, dim))
    return result


class MinimizerUnknownError(ValueError):
    """Raised when an operation needs ``minimizer``/``min_value`` but the
    objective does not carry them."""


@dataclass
class Objective:
    """A mu-strongly convex, L-smooth function with value/gradient oracles.

    ``value_fn`` and ``grad_fn`` must be deterministic: identical inputs
    yield bit-identical outputs.  For a float64 array x of shape (dim,)
    they return a float and a float64 array of shape (dim,).

    ``value_and_grad_fn``, when given, is a fused oracle that returns
    ``(value_fn(x), grad_fn(x))`` from shared work: that float and that
    array, bit for bit.  The hot loops of
    :func:`~accelcert.optimizers.run` and
    :func:`~accelcert.hires_ode.integrate` call it directly, without the
    conversions of :meth:`value_and_grad`, and record what it returns,
    which certificates compare with values ``value_fn`` takes elsewhere.
    :func:`make_quadratic`'s diagonal fused oracle carries its
    eigenvalues, and on a small objective with that oracle those two loops
    step each coordinate on Python floats instead of calling it at every
    step (:func:`~accelcert.optimizers._lane`).  So an objective that
    keeps that oracle keeps its contract: ``grad_fn`` is ``lams * x`` and
    ``value_fn`` is ``0.5 * x.dot(lams * x)``, bit for bit.  Replacing
    ``value_and_grad_fn``, to count or to alter its calls, sends the loops
    back to calling it at every step: on floats in ``run``'s coupled lane
    for a small objective, on arrays otherwise.

    ``value_and_grad_rows_fn``, when given, is a row-batched oracle: for an
    (n, d) array it returns the values (n,) and gradients (n, d) at its
    rows, float64 arrays, from one matrix product (or elementwise work).
    It matches the per-row oracles up to rounding, not bit for bit, so
    only certificates use it, at points a run did not record.

    ``hessian`` is populated for quadratics and used by tests as an
    independent oracle.
    """

    dim: int
    mu: float
    lipschitz: float
    value_fn: Callable[[Vector], float]
    grad_fn: Callable[[Vector], Vector]
    minimizer: Optional[Vector] = None
    min_value: Optional[float] = None
    name: str = "custom"
    hessian: Optional[np.ndarray] = None
    value_and_grad_fn: Optional[Callable[[Vector], tuple[float, Vector]]] = None
    value_and_grad_rows_fn: Optional[
        Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.mu <= self.lipschitz < np.inf:
            raise ValueError("lipschitz must be at least mu and finite")
        if self.minimizer is not None:
            self.minimizer = np.asarray(self.minimizer, dtype=float)
            gnorm = float(np.linalg.norm(self.grad_fn(self.minimizer)))
            if gnorm > MINIMIZER_GRAD_TOL:
                raise ValueError(
                    f"gradient norm {gnorm:.3e} at declared minimizer exceeds "
                    f"{MINIMIZER_GRAD_TOL:.0e}"
                )

    def value(self, x: Vector) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def grad(self, x: Vector) -> Vector:
        return np.asarray(self.grad_fn(np.asarray(x, dtype=float)), dtype=float)

    def value_and_grad(self, x: Vector) -> tuple[float, Vector]:
        """``(value(x), grad(x))``: one call of the fused oracle, or one of
        each separate oracle when the objective has none."""
        if self.value_and_grad_fn is None:
            return self.value(x), self.grad(x)
        value, grad = self.value_and_grad_fn(np.asarray(x, dtype=float))
        return float(value), np.asarray(grad, dtype=float)

    def value_and_grad_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (n,) and gradients (n, d) at the rows of an (n, d) array:
        one call of the row-batched oracle, whose result is checked
        against the contract (ValueError), or one :meth:`value_and_grad`
        call per row when the objective has none."""
        X = np.asarray(X, dtype=float)
        if self.value_and_grad_rows_fn is None:
            values, grads = np.empty(len(X)), np.empty(X.shape)
            for i, x in enumerate(X):
                values[i], grads[i] = self.value_and_grad(x)
            return values, grads
        return _checked_rows(self.value_and_grad_rows_fn(X), len(X),
                             self.dim)

    def gap(self, x: Vector) -> float:
        """f(x) - f(x*); requires a known minimum value."""
        if self.min_value is None:
            raise MinimizerUnknownError(f"objective {self.name!r} has no known minimum")
        return self.value(x) - self.min_value

    @property
    def kappa(self) -> float:
        return self.lipschitz / self.mu


def require_minimizer(f: Objective):
    """Raise :class:`MinimizerUnknownError` unless ``f`` knows x* and f*."""
    if f.minimizer is None or f.min_value is None:
        raise MinimizerUnknownError(
            f"objective {f.name!r} has no known minimizer; resolve it first")


@dataclass(frozen=True)
class SpectrumSpec:
    """Ascending positive eigenvalues of a quadratic's Hessian."""

    eigenvalues: tuple

    def __init__(self, eigenvalues: Sequence[float]):
        lams = tuple(float(v) for v in eigenvalues)
        if len(lams) == 0:
            raise ValueError("spectrum must be nonempty")
        if not all(0 < v < np.inf for v in lams):
            raise ValueError("all eigenvalues must be positive and finite")
        object.__setattr__(self, "eigenvalues", tuple(sorted(lams)))

    @property
    def mu(self) -> float:
        return self.eigenvalues[0]

    @property
    def lipschitz(self) -> float:
        return self.eigenvalues[-1]

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def _orthogonal_matrix(dim: int, seed: int) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian, sign-fixed)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _spectrum_label(spec: SpectrumSpec) -> str:
    if spec.dim <= 4:
        return "[" + ",".join(f"{v:g}" for v in spec.eigenvalues) + "]"
    return f"[d={spec.dim},mu={spec.mu:g},L={spec.lipschitz:g}]"


def make_quadratic(spec: SpectrumSpec | Sequence[float],
                   rotation_seed: Optional[int] = None) -> Objective:
    """Quadratic objective ``f(x) = 0.5 x^T A x`` with prescribed spectrum.

    Without ``rotation_seed`` the Hessian A is exactly ``diag(spec)``;
    with it, A is conjugated by a seeded random orthogonal matrix, which
    keeps the spectrum (hence mu and L) unchanged.  The minimizer is the
    origin with minimum value 0.

    The gradient is ``A.dot(x)``, elementwise ``lams * x`` for a diagonal
    A (the same bits in O(d)), and the value is ``0.5 * x.dot(grad)``, so
    the fused oracle takes both from one product with A.  ``.dot`` makes
    the same BLAS dgemv and ddot calls as ``A @ x`` and ``x @ grad``, bit
    for bit, without the matmul ufunc's dispatch.  The row-batched oracle takes the gradients at the rows of X
    as ``X @ A`` (A is exactly symmetric), ``X * lams`` for a diagonal A,
    the same bits as the per-row oracle there.
    """
    if not isinstance(spec, SpectrumSpec):
        spec = SpectrumSpec(spec)
    lams = np.array(spec.eigenvalues, dtype=float)
    if rotation_seed is None:
        hessian = np.diag(lams)
        name = f"quad{_spectrum_label(spec)}"

        def grad_fn(x: Vector) -> Vector:
            return lams * x

        def grad_rows(X: np.ndarray) -> np.ndarray:
            return X * lams
    else:
        q = _orthogonal_matrix(spec.dim, rotation_seed)
        hessian = (q * lams) @ q.T  # q diag(lams) q^T, bit for bit
        hessian = 0.5 * (hessian + hessian.T)  # exact symmetry
        name = f"quad-rot{_spectrum_label(spec)}#{rotation_seed}"

        def grad_fn(x: Vector) -> Vector:
            return hessian.dot(x)

        def grad_rows(X: np.ndarray) -> np.ndarray:
            return X @ hessian

    def value_and_grad_fn(x: Vector) -> tuple[float, Vector]:
        g = grad_fn(x)
        return 0.5 * float(x.dot(g)), g

    if rotation_seed is None:  # the mark _diagonal_eigenvalues reads
        value_and_grad_fn._diagonal = (value_and_grad_fn, spec.eigenvalues)

    def value_and_grad_rows_fn(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        G = grad_rows(X)
        return 0.5 * np.vecdot(X, G), G

    def value_fn(x: Vector) -> float:
        return value_and_grad_fn(x)[0]

    return Objective(
        dim=spec.dim,
        mu=spec.mu,
        lipschitz=spec.lipschitz,
        value_fn=value_fn,
        grad_fn=grad_fn,
        minimizer=np.zeros(spec.dim),
        min_value=0.0,
        name=name,
        hessian=hessian,
        value_and_grad_fn=value_and_grad_fn,
        value_and_grad_rows_fn=value_and_grad_rows_fn,
    )


def _diagonal_eigenvalues(f: Objective) -> Optional[tuple[float, ...]]:
    """The eigenvalues of ``f`` when its fused oracle is
    :func:`make_quadratic`'s own diagonal one, else None.  That oracle
    carries them beside itself, so that a wrapper that copies its
    attributes, as ``functools.wraps`` does, is not taken for it."""
    oracle = f.value_and_grad_fn
    own, lams = getattr(oracle, "_diagonal", (None, None))
    return lams if own is oracle else None


#: 0.0 and 1.0 as 0-d operands (see :func:`_operands`).
_ZERO, _ONE = _operands(0.0, 1.0)


def _softplus(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(m)) elementwise, given ``e = np.exp(-np.abs(m))``:
    ``max(m, 0) + log1p(e)``, which never overflows."""
    return np.maximum(m, _ZERO) + np.log1p(e)


def _sigmoid(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-m)) elementwise, given ``e = np.exp(-np.abs(m))``:
    1 / (1 + e) where m >= 0 and e / (1 + e) elsewhere, which never
    overflows and keeps its relative accuracy in both tails.

    The numerator is ``max(e, m >= 0)``, with the mask read as 1.0 or 0.0.
    It is exact: 0 <= e <= 1, so the maximum is 1.0 where m >= 0 and e
    elsewhere, bit for bit, as ``np.where(m >= 0, 1.0, e)`` gives, also
    at m = -0.0 (where m >= 0 holds), at m = -inf (e = +0.0) and at NaN
    (e is NaN, which the maximum propagates)."""
    return np.maximum(e, m >= _ZERO) / (_ONE + e)


def reg_logistic_from_data(features: np.ndarray, labels: np.ndarray,
                           reg: float, name: str = "reg-logistic") -> Objective:
    """L2-regularized logistic loss on explicit data.

    f(x) = mean_i log(1 + exp(-b_i <a_i, x>)) + (reg/2) ||x||^2.
    mu = reg; L = reg + sum_i ||a_i||^2 / (4 n), the standard curvature
    bound for the averaged logistic loss.  ValueError unless every label
    b_i is -1 or +1: the curvature of the loss scales with b_i^2, so L
    holds only for |b_i| = 1.

    The oracles work on the signed rows -b_i a_i, built once, so that one
    product with them gives the negated margins m_i = -b_i <a_i, x>: a
    label of +-1 only flips signs, which is exact, so no pass over the n
    samples applies the labels.  From the margins, one ``e = exp(-|m|)``
    feeds both :func:`_softplus`, the loss terms log(1 + exp(m)), and
    :func:`_sigmoid`, the gradient weights: numpy alone, with no overflow
    at any margin.  The last bits follow numpy's ``exp`` and ``log1p``,
    which may take the CPU's SIMD paths.  The fused oracle computes m and
    e once for the value and the gradient, and the row-batched oracle for
    every row of X from one product with the signed rows.  The mean over
    the samples is ``np.add.reduce(...) / n``, what ``np.mean`` computes.
    """
    if not reg > 0:
        raise ValueError("reg must be positive")
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("labels must be -1 or +1")
    n_samples, dim = features.shape
    lipschitz = reg + float(np.sum(features * features)) / (4.0 * n_samples)

    signed = -labels[:, None] * features  # rows -b_i a_i
    n_op, reg_op = _operands(n_samples, reg)

    def value_at(x: Vector, m: Vector, e: Vector) -> float:
        loss = np.add.reduce(_softplus(m, e)) / n_samples
        return float(loss + 0.5 * reg * x.dot(x))

    def grad_at(x: Vector, m: Vector, e: Vector) -> Vector:
        return signed.T.dot(_sigmoid(m, e)) / n_op + reg_op * x

    def value_fn(x: Vector) -> float:
        m = signed.dot(x)
        return value_at(x, m, np.exp(-np.abs(m)))

    def grad_fn(x: Vector) -> Vector:
        m = signed.dot(x)
        return grad_at(x, m, np.exp(-np.abs(m)))

    def value_and_grad_fn(x: Vector) -> tuple[float, Vector]:
        m = signed.dot(x)
        e = np.exp(-np.abs(m))
        return value_at(x, m, e), grad_at(x, m, e)

    def value_and_grad_rows_fn(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = X @ signed.T
        e = np.exp(-np.abs(m))
        values = (np.add.reduce(_softplus(m, e), axis=1) / n_samples
                  + 0.5 * reg * np.vecdot(X, X))
        grads = (_sigmoid(m, e) @ signed) / n_samples + reg * X
        return values, grads

    return Objective(dim=dim, mu=reg, lipschitz=lipschitz, value_fn=value_fn,
                     grad_fn=grad_fn, name=name,
                     value_and_grad_fn=value_and_grad_fn,
                     value_and_grad_rows_fn=value_and_grad_rows_fn)


def make_reg_logistic(data_seed: int, n_samples: int, dim: int,
                      reg: float) -> Objective:
    """Regularized logistic loss on seeded Gaussian data.

    Features a_i ~ N(0, I) and Rademacher labels b_i are both drawn from
    ``data_seed``.  The minimizer is not declared; resolve it on demand
    with :func:`resolve_minimizer`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(data_seed)
    features = rng.standard_normal((n_samples, dim))
    labels = rng.choice(np.array([-1.0, 1.0]), size=n_samples)
    return reg_logistic_from_data(
        features, labels, reg,
        name=f"reg-logistic(seed={data_seed},n={n_samples},d={dim},reg={reg})")


def resolve_minimizer(f: Objective) -> Objective:
    """Return a copy of ``f`` with ``minimizer``/``min_value`` filled in.

    Objectives that already know their minimizer are returned unchanged.
    Otherwise the minimizer is located by the library's own momentum scheme
    (run at s = 1/L until the gradient norm drops to 1e-12, within 500,000
    steps), which avoids any external solver dependency.
    """
    if f.minimizer is not None and f.min_value is not None:
        return f
    from .optimizers import STEPS, _step_operands

    step, k = STEPS["nag-modified"], _step_operands(f.mu, 1.0 / f.lipschitz)
    x, y, v = np.zeros(f.dim), np.zeros(f.dim), np.zeros(f.dim)
    g = f.grad(y)
    for _ in range(500_000):
        if np.linalg.norm(f.grad(x)) <= 1e-12:
            break
        x, y, v, _ = step(k, x, y, v, g, None)
        g = f.grad(y)
    else:
        raise RuntimeError(
            "minimizer search did not reach gradient norm 1e-12 "
            "within 500000 iterations"
        )
    return replace(f, minimizer=x, min_value=f.value(x))


def sample_in_ball(rng: np.random.Generator, dim: int, radius: float) -> Vector:
    """Uniform-direction point with uniform radius in the given ball."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(0.0, radius)


def certify_class(f: Objective, n_pairs: int, sample_seed: int) -> CertReport:
    """Sampled check that ``f`` belongs to the declared (mu, L) class.

    For seeded random pairs (x, y) in the radius-10 ball around the
    minimizer (or the origin when unknown), verifies the strong
    convexity inequality
    ``f(y) >= f(x) + <grad f(x), y - x> + (mu/2) ||y - x||^2``
    and gradient Lipschitz continuity
    ``||grad f(y) - grad f(x)|| <= L ||y - x||``,
    each with the margin scans' slack :func:`~accelcert.report._slack` at
    tolerance 1e-9, on the scales max(|f(x)|, |f(y)|) and L ||y - x||.
    Failures are counted, never raised; the report carries the worst
    margins of both inequalities.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    center = f.minimizer if f.minimizer is not None else np.zeros(f.dim)
    rng = np.random.default_rng(sample_seed)
    n_failed = 0
    first_failure = None
    worst_sc = np.inf
    worst_smooth = np.inf
    for i in range(n_pairs):
        x = center + sample_in_ball(rng, f.dim, 10.0)
        y = center + sample_in_ball(rng, f.dim, 10.0)
        fx, gx = f.value_and_grad(x)
        fy, gy = f.value_and_grad(y)
        diff = y - x
        sc_margin = fy - fx - float(gx @ diff) - 0.5 * f.mu * float(diff @ diff)
        dist = float(np.linalg.norm(diff))
        smooth_margin = f.lipschitz * dist - float(np.linalg.norm(gy - gx))
        worst_sc = min(worst_sc, sc_margin)
        worst_smooth = min(worst_smooth, smooth_margin)
        ok = (sc_margin >= -_slack(1e-9, max(abs(fx), abs(fy)))
              and smooth_margin >= -_slack(1e-9, f.lipschitz * dist))
        if not ok:
            n_failed += 1
            if first_failure is None:
                first_failure = i
    return CertReport(
        name="class",
        n_checked=n_pairs,
        n_failed=n_failed,
        worst_margin=min(worst_sc, worst_smooth),
        first_failure=first_failure,
        details={
            "worst_strong_convexity_margin": worst_sc,
            "worst_smoothness_margin": worst_smooth,
            "radius": 10.0,
        },
    )
