"""Model-free walkthrough: recover the controller from transition data.

The learner never reads the system matrices. It probes a plant through the
one-step interface (k, x, u) -> x_next, fits one quadratic kernel per stage
by least squares, and extracts the same gains, kernels, and multiplier the
model-based path computes.
"""

import numpy as np

from termlq import (
    GaussianSpec,
    SimulatedPlant,
    learn,
    learned_policy,
    make_instance,
    rollout,
    sample_threshold,
    solve_lambda,
    solve_schedule,
)

A = [np.array([[1.0, 2.0], [-1.0, 4.0]]),
     np.array([[5.0, 3.0], [-2.0, 1.0]]),
     np.array([[-4.0, 1.0], [2.0, 5.0]])]
B = [np.array([[1.0], [-1.0]]),
     np.array([[2.0], [1.0]]),
     np.array([[4.0], [2.0]])]
inst = make_instance(A, B, np.eye(2), np.eye(1), np.eye(2),
                     np.array([1.0, 2.0]), np.array([6.0, 7.0]))

np.set_printoptions(precision=4, suppress=True)

# the plant wraps the instance but the learner only sees its step() method
plant = SimulatedPlant(inst)
# every probe entry is mean + sqrt(covariance_scale) * N(0, 1): here 0 + N(0, 1)
dist = GaussianSpec(mean=0.0, covariance_scale=1.0)

d = 2 * inst.n + inst.m
print(f"probe vector dimension d = 2n+m = {d}")
print(f"identifiability threshold = d(d+1)/2 = {sample_threshold(inst.n, inst.m)}")

l = 30
learned = learn(plant, (inst.n, inst.m, inst.N), (inst.Q, inst.R, inst.H),
                inst.x0, inst.xi, l, dist, seed=7)

print(f"\nfitted kernel coefficients at {l} samples per stage")
# nu packs the upper triangle of each stage kernel Lambda(k), row by row
for k, Lam in enumerate(learned.Lambda):
    print(f"  stage {k}: nu = {Lam[np.triu_indices(d)]}")

print("\nfit diagnostics")
fit = learned.fit_diagnostics
for k in range(inst.N + 1):
    print(f"  stage {k}: residual {fit.residual[k]:.3e}   condition {fit.cond[k]:.1e}")

# cross-check against the matrices the learner was never shown
sched = solve_schedule(inst)
lamsol = solve_lambda(sched, inst)
gap = max(np.abs(learned.K - sched.K).max(), np.abs(learned.K1 - sched.K1).max())
print("\nagreement with the model-based path")
print(f"  max gain gap        = {gap:.3e}")
print(f"  multiplier gap      = {np.abs(learned.lambda_star - lamsol.lambda_star).max():.3e}")
print(f"  learned lambda*     = {learned.lambda_star}")

traj = rollout(inst, learned_policy(learned))
print(f"\nrollout under the learned controller")
print(f"  terminal state = {traj.states[-1]}   target = {inst.xi}")
print(f"  terminal miss  = {traj.terminal_error:.3e}")
