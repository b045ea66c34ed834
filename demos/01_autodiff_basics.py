"""A tour of the tape-based autodiff core.

Builds a tiny two-layer computation by hand, runs the backward pass, and
checks one gradient against central finite differences. Everything the
full model does runs through this same mechanism.
"""

import numpy as np

from sebertnets import tensor as T
from sebertnets.tensor import Tape, Tensor, backward

rng = np.random.default_rng(0)

# leaf parameters: a 4->3 affine map followed by a 3->1 readout
w1 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
b1 = Tensor(np.zeros(3), requires_grad=True)
w2 = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
x = Tensor(rng.standard_normal((5, 4)))


def loss_fn():
    h = T.gelu(T.add_bias(T.matmul(x, w1), b1))
    return T.sum_all(T.matmul(h, w2))


with Tape() as tape:
    loss = loss_fn()
backward(tape, loss)

print(f"loss          : {float(loss.data):.6f}")
print(f"dL/dw2        :\n{w2.grad.ravel()}")

# check dL/dw1[0, 0] numerically: nudge the entry, recompute, difference
h_step = 1e-6
base = w1.data[0, 0]
w1.data[0, 0] = base + h_step
up = float(loss_fn().data)
w1.data[0, 0] = base - h_step
down = float(loss_fn().data)
w1.data[0, 0] = base
numeric = (up - down) / (2 * h_step)

print(f"dL/dw1[0,0]   : analytic {w1.grad[0, 0]:+.8f}  numeric {numeric:+.8f}")

# ops preserve dtype, so the same graph can be built at float64 when a
# higher-precision reference is needed
x32 = Tensor(x.data.astype(np.float32))
x64 = Tensor(x.data.astype(np.float64))
print(f"float32 in -> {T.gelu(x32).dtype} out, "
      f"float64 in -> {T.gelu(x64).dtype} out")
