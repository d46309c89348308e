"""How much does momentum buy on an ill-conditioned quadratic?

Runs the full method lineup on a two-dimensional quadratic with condition
number 100 at step size 1/L, then compares the fitted per-iteration
contraction factors and the number of iterations needed to shrink the
objective gap below 1e-8.  The punchline: plain gradient descent contracts
like 1 - O(mu/L) per step while the momentum schemes contract like
1 - O(sqrt(mu/L)), so the gap widens dramatically as conditioning worsens.
"""

import numpy as np

from accelcert import empirical_rate, make_quadratic, run

f = make_quadratic([1, 100])
s = 1.0 / f.lipschitz
x0 = np.array([1.0, 1.0])
K = 2000

methods = ("gd", "heavy-ball", "nag-classic", "nag-modified", "iv-phase")
trajectories = {m: run(f, m, x0, s, K) for m in methods}

print(f"objective: {f.name}   kappa = {f.kappa:g}   s = 1/L = {s}")
print(f"{'method':>14}  {'fitted factor':>14}  {'iters to 1e-8':>14}")
for method, traj in trajectories.items():
    rate = empirical_rate(traj.f_gap)
    hits = np.flatnonzero(traj.f_gap <= 1e-8)
    iters = int(hits[0]) if len(hits) else None
    print(f"{method:>14}  {rate:>14.6f}  {str(iters):>14}")

print()
print("guide rates: gd ~ (1 - mu s)^2 =", (1 - f.mu * s) ** 2)
print("             momentum ~ (1 - sqrt(mu s)) =", 1 - np.sqrt(f.mu * s))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for method, traj in trajectories.items():
        gaps = np.maximum(traj.f_gap, 1e-300)
        ax.semilogy(np.arange(len(traj)), gaps, label=method, lw=1.2)
    ax.set_xlim(0, 800)
    ax.set_ylim(1e-14, 1e2)
    ax.set_xlabel("iteration k")
    ax.set_ylabel("f - f*")
    ax.set_title("objective gap on the condition-100 quadratic, s = 1/L")
    ax.legend()
    fig.tight_layout()
    fig.savefig("acceleration_on_quadratics.png", dpi=130)
    print("\nwrote acceleration_on_quadratics.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the figure")
