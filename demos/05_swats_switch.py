"""Watching the Adam-to-SGD switch on a quadratic bowl.

The optimizer tracks the projected learning rate gamma of each Adam step
and an exponential average lam of it. When the bias-corrected average
stabilizes to within eps_switch of the current projection, it locks that
value in as a plain SGD rate and never looks back.
"""

import numpy as np

from sebertnets.optim import AdamState, SwatsState, swats_step
from sebertnets.tensor import Tensor

theta = Tensor(np.random.default_rng(0).standard_normal(10))
state = SwatsState(adam=AdamState(lr=0.01), eps_switch=1e-4)

print(f"{'step':>5}  {'phase':<5}  {'|theta|':>9}  {'lam':>10}")
switched_at = None
for step in range(1, 201):
    # gradient of 0.5 * theta^T theta is theta itself
    swats_step({"theta": theta}, {"theta": theta.data.copy()}, state)
    if switched_at is None and state.phase == "sgd":
        switched_at = step
    if step in (1, 5, 10, 11, 12, 50, 200):
        norm = float(np.linalg.norm(theta.data))
        print(f"{step:>5}  {state.phase:<5}  {norm:9.5f}  {state.lam:10.6f}")

print(f"\nswitched at step {switched_at}, "
      f"locked SGD rate = {state.sgd_lr:.12f}")
