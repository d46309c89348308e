"""Memory budget: which columns a run allocates, and its peak memory.

``run`` keeps only the columns that differ.  A kernel that returns its new
y as the same array as its new x (gd, heavy-ball) gets ``ys`` as the
``xs`` array, and one that passes its v through unchanged (gd) gets
``vs`` as a read-only view of the zero start velocity, which holds no
rows.  iv-phase and gc-phase store no y: x and v fix it, and ``ys`` is
rebuilt on each read as a read-only column, bit for bit the y the kernel
stepped with, from x_0 itself at row 0.  The gc energy reads that y a
block at a time, so no certificate builds the column, and the
per-coordinate lane takes its recorded gaps and gradients at those rebuilt
rows a block at a time, so it holds no y column either.  The runs the
acceptance gate caches keep that sharing, and criterion 10 keeps only its
runs' gap columns.  The peak traced memory of a long run is the bytes of
the columns it keeps, plus a few blocks, each of at most
``_BLOCK_VALUES`` values (``optimizers._blocks``): 256 rows up to d = 256,
fewer above, 109 at d = 600.  So whatever K and d are, ``run`` above its
kept columns, the gc energy and ``gaps_at`` each hold a few times 512 KB;
and since every block formula is taken row by row, with an elementwise
row oracle their values are those of 256-row blocks, bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from accelcert import (Trajectory, acceptance, energies, make_quadratic,
                       make_reg_logistic, resolve_minimizer, run,
                       step_coefficients)
from accelcert.analysis import gaps_at
from accelcert.optimizers import (_BLOCK_ROWS, _BLOCK_VALUES, METHODS, STEPS,
                                  _block_rows, _step_operands)


@pytest.fixture(scope="module")
def quad():
    return make_quadratic([1.0, 4.0])


def one_step(f, method, x0, s):
    """(x1, y1, whether v1 is v) of one kernel call from x = y = x0 at
    rest v, with the gradient and coefficients ``run`` starts from."""
    x, v = np.asarray(x0, dtype=float), np.zeros(f.dim)
    x1, y1, v1, _ = STEPS[method](_step_operands(f.mu, s), x, x.copy(), v,
                                  f.grad(x), None)
    return x1, y1, v1 is v


@pytest.mark.parametrize("method", METHODS)
def test_ys_is_xs_exactly_when_the_kernel_returns_y_as_x(quad, method):
    x1, y1, passes_v = one_step(quad, method, [1.0, 0.5], 0.25)
    traj = run(quad, method, [1.0, 0.5], 0.25, 300)
    assert (traj.ys is traj.xs) == (y1 is x1)
    assert traj.vs.flags.writeable == (not passes_v)
    assert (traj.ys is traj.xs) == (method in ("gd", "heavy-ball"))
    assert passes_v == (method == "gd")


def test_gd_velocity_is_a_read_only_zero_view(quad):
    traj = run(quad, "gd", [1.0, 0.5], 0.25, 300)
    assert traj.vs.shape == (301, 2)
    assert not traj.vs.flags.writeable
    assert traj.vs.strides[0] == 0  # one row, no allocation per record
    np.testing.assert_array_equal(traj.vs, 0.0)


@pytest.mark.parametrize("method", ["gd", "heavy-ball", "iv-phase",
                                    "gc-phase"])
def test_suite_run_prefix_keeps_the_sharing(method):
    # the cached run shares its columns as a fresh run does, and all of
    # them are read-only
    traj = acceptance._suite_run("quad-ill", method, 1.0)
    assert (traj.ys is traj.xs) == (method in ("gd", "heavy-ball"))
    for col in (traj.xs, traj.ys, traj.vs, traj.f_gap, traj.grad_sq):
        assert not col.flags.writeable


@pytest.mark.parametrize("method", ["gd", "heavy-ball", "iv-phase",
                                    "gc-phase"])
def test_peak_memory_is_the_kept_columns(quad, method):
    x0 = np.array([1.0, 0.5])
    run(quad, method, x0, 0.25, 10)  # first-call allocations stay out
    tracemalloc.start()
    try:
        traj = run(quad, method, x0, 0.25, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = traj.xs.nbytes + traj.f_gap.nbytes + traj.grad_sq.nbytes
    if method != "gd":
        kept += traj.vs.nbytes
    assert peak <= 1.1 * kept


def hand_ys(f, method, x0, s, K, first_velocity="scheme"):
    """The y of each step of a loop over ``STEPS[method]`` written out by
    hand on arrays, with the fused oracle's gradient at each y, from
    x = y = x0 at rest."""
    k = _step_operands(f.mu, s)
    x, y, v = x0.copy(), x0.copy(), np.zeros(f.dim)
    g = f.value_and_grad(y)[1]
    carry = 2 * k.r * g if first_velocity == "corollary" else None
    ys = [y]
    for _ in range(K):
        x, y, v, carry = STEPS[method](k, x, y, v, g, carry)
        g = f.value_and_grad(y)[1]
        ys.append(y)
    return np.array(ys)


#: id -> the objective; each takes a different path of ``run``
PATHS = {
    "array rot d=50": lambda: make_quadratic(np.logspace(0, 2, 50),
                                             rotation_seed=3),
    "coupled rot d=2": lambda: make_quadratic([1.0, 100.0], rotation_seed=3),
    "coupled logistic d=2": lambda: resolve_minimizer(
        make_reg_logistic(3, 50, 2, 0.1)),
    "diagonal d=3": lambda: make_quadratic([1.0, 4.0, 30.0]),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("method, first_velocity", [
    ("iv-phase", "scheme"), ("iv-phase", "corollary"),
    ("gc-phase", "scheme")])
def test_rebuilt_ys_are_the_kernel_ys(path, method, first_velocity):
    # past one block of rows, from a start with a -0.0 entry
    f = PATHS[path]()
    x0 = np.random.default_rng(7).standard_normal(f.dim)
    x0[0] = -0.0
    s, K = 1.0 / f.lipschitz, _BLOCK_ROWS + 44
    traj = run(f, method, x0, s, K, first_velocity=first_velocity)
    assert traj._ys is None
    want = hand_ys(f, method, x0, s, K, first_velocity)
    assert traj.ys.tobytes() == want.tobytes()
    assert np.signbit(traj.ys[0, 0])
    assert not traj.ys.flags.writeable


def test_only_the_phase_space_methods_rebuild_y(quad):
    traj = run(quad, "nag-modified", [1.0, 0.5], 0.25, 5)
    with pytest.raises(ValueError, match="nag-modified cannot rebuild"):
        Trajectory(method_id="nag-modified", s=0.25, xs=traj.xs, ys=None,
                   vs=traj.vs, f_gap=traj.f_gap, grad_sq=traj.grad_sq,
                   objective=quad)


def test_gc_energy_reads_y_a_block_at_a_time():
    # on the array path; the energies' (K,) column is a twentieth of y's
    f = make_quadratic(np.logspace(0, 2, 20))
    traj = run(f, "gc-phase", np.ones(20), 1.0 / f.lipschitz,
               20 * _BLOCK_ROWS)
    energies(traj, "gc")  # first-call allocations stay out
    tracemalloc.start()
    try:
        energies(traj, "gc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < traj.xs.nbytes


#: A block's bytes: ``_BLOCK_VALUES`` float64 values.
BLOCK_BYTES = 8 * _BLOCK_VALUES


@pytest.mark.parametrize("width, rows", [
    (1, 256), (256, 256), (257, 255), (600, 109), (1000, 65),
    (2 * _BLOCK_VALUES, 1), (0, 256)])
def test_a_block_is_capped_in_values(width, rows):
    assert _block_rows(width) == rows


@pytest.fixture(scope="module")
def wide():
    """A diagonal quadratic past the row cap, d = 600 (109 rows a block),
    on the array path.  Its row oracle is elementwise, so its rows do not
    depend on how many rows a call has, as a BLAS product's may."""
    return make_quadratic(np.logspace(0, 2, 600))


def traced(call):
    """(call(), the peak ``tracemalloc`` traces during it), after one
    untraced call, so that first-call allocations stay out."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WIDE_K = [2 * 109 + 5, 12 * 109]


@pytest.mark.parametrize("K", WIDE_K)
@pytest.mark.parametrize("method", ["gd", "nag-modified", "iv-phase",
                                    "gc-phase"])
def test_run_holds_a_few_blocks_above_its_columns(wide, method, K):
    x0 = np.ones(wide.dim)
    traj, peak = traced(lambda: run(wide, method, x0, 1.0 / wide.lipschitz,
                                    K))
    kept = {id(col): col.nbytes
            for col in (traj.xs, traj._ys, traj.vs, traj.f_gap,
                        traj.grad_sq)
            if col is not None and col.flags.writeable}
    assert peak - sum(kept.values()) <= 2 * BLOCK_BYTES


@pytest.mark.parametrize("K", WIDE_K)
def test_gc_energy_holds_a_few_blocks(wide, K):
    traj = run(wide, "gc-phase", np.ones(wide.dim), 1.0 / wide.lipschitz, K)
    e, peak = traced(lambda: energies(traj, "gc"))
    assert peak - e.nbytes <= 6 * BLOCK_BYTES


@pytest.mark.parametrize("K", WIDE_K)
def test_gaps_at_holds_a_few_blocks(wide, K):
    traj = run(wide, "gc-phase", np.ones(wide.dim), 1.0 / wide.lipschitz, K)
    gaps, peak = traced(lambda: gaps_at(wide, traj.xs))
    assert peak - gaps.nbytes <= 2 * BLOCK_BYTES


def test_criterion_10_peaks_at_its_gd_runs_kept_columns():
    # the kappa = 1e4 gd run keeps xs (2 columns), f_gap and grad_sq of
    # 150,001 records; the criterion keeps each run's f_gap alone, so the
    # other columns are freed before the fits, whose temporaries are smaller
    result, peak = traced(acceptance.criterion_10)
    assert result.passed
    assert peak <= 150_001 * (2 + 2) * 8 + BLOCK_BYTES


def in_256_row_blocks(n):
    for lo in range(0, n, 256):
        yield slice(lo, min(lo + 256, n))


def test_wide_certificates_equal_256_row_blocks(wide):
    traj = run(wide, "gc-phase", np.linspace(-1.0, 1.0, wide.dim),
               1.0 / wide.lipschitz, 3 * 256 + 17)
    k = step_coefficients(wide.mu, traj.s)
    ys, vs, xstar = traj.ys, traj.vs, wide.minimizer
    want = np.empty(traj.K)
    for rows in in_256_row_blocks(traj.K):
        nxt = slice(rows.start + 1, rows.stop + 1)
        G = wide.value_and_grad_rows(ys[rows])[1]
        V = vs[nxt]
        combo = V + 2.0 * math.sqrt(wide.mu) * (ys[nxt] - xstar) + k.root_s * G
        want[rows] = (traj.f_gap[rows] + 0.25 * np.vecdot(V, V)
                      + 0.25 * np.vecdot(combo, combo)
                      - 0.5 * k.s * np.vecdot(G, G))
    assert energies(traj, "gc").tobytes() == want.tobytes()
    want = np.empty(len(traj))
    for rows in in_256_row_blocks(len(traj)):
        want[rows] = wide.value_and_grad_rows(traj.xs[rows])[0]
    assert gaps_at(wide, traj.xs).tobytes() == want.tobytes()
