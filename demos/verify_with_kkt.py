"""Certify a solution against the sparse-form quadratic-program oracle.

The oracle keeps inputs, states and dynamics multipliers as variables and
solves the whole KKT system by one forward block-tridiagonal sweep. It
shares no code with the backward recursion, so agreement of cost, inputs
and costates certifies both paths.
"""

import numpy as np

from termlq import (
    GaussianSpec,
    InfeasibleConstraint,
    SimulatedPlant,
    kkt_oracle,
    learn,
    make_instance,
    sample_threshold,
    solve_lambda,
    solve_schedule,
    verify_solution,
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

oracle = kkt_oracle(inst)
print("oracle solution")
print("  stacked inputs:", oracle.u_stacked)
print("  cost:          ", f"{oracle.cost:.6f}")
print("  KKT residual:  ", f"{oracle.kkt_residual:.3e}")

sched = solve_schedule(inst)
lamsol = solve_lambda(sched, inst)
learned = learn(SimulatedPlant(inst), (inst.n, inst.m, inst.N),
                (inst.Q, inst.R, inst.H), inst.x0, inst.xi,
                sample_threshold(inst.n, inst.m),
                GaussianSpec(), seed=3)

report = verify_solution(inst, sched, lamsol, learned)
print("\nthree-way comparison")
print(f"  max gain error (learned vs model): {report.max_gain_error:.3e}")
print(f"  multiplier error:                  {report.lambda_error:.3e}")
print(f"  cost gap vs oracle (relative):     {report.cost_gap:.3e}")
print(f"  input gap vs oracle (relative):    {report.input_gap:.3e}")
print(f"  costate gap vs oracle (relative):  {report.costate_gap:.3e}")
print(f"  terminal misses (model, learned):  "
      f"{report.terminal_errors[0]:.3e}, {report.terminal_errors[1]:.3e}")

# a plant with no input authority cannot move off its drift; the oracle
# reports the inconsistent constraint instead of returning garbage
dead = make_instance([np.eye(2)], [np.zeros((2, 1))],
                     np.eye(2), np.eye(1), np.eye(2),
                     np.array([1.0, 2.0]), np.array([6.0, 7.0]))
print("\ninfeasible construction")
try:
    kkt_oracle(dead)
except InfeasibleConstraint as exc:
    print("  InfeasibleConstraint:", exc)
