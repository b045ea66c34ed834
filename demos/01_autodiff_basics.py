"""A tour of the tape-based autodiff core.

Records a tiny one-layer encoder plus the span head, runs the backward
pass, and checks one gradient against central finite differences. Each
encoder block (embedding, attention, feed-forward) and the span head is
one tape op with a hand-written backward; the loss sums the head's
scores with ``sum_all``, the one tensor primitive. The full model
records onto the same tape.
"""

import numpy as np

from sebertnets import encoder as E
from sebertnets import span as S
from sebertnets import tensor as T
from sebertnets.tensor import Tape, backward

rng = np.random.default_rng(0)
cfg = E.EncoderConfig(vocab_size=8, d_model=4, n_layers=1, n_heads=2, d_ff=6,
                      max_len=8, dropout_rate=0.0, activation="gelu")
params = T.draw(E.encoder_layout(cfg), rng, np.float64)
head = T.draw(S.head_layout(4), rng, np.float64)
ids = rng.integers(0, 8, size=(1, 5))
segs = np.zeros_like(ids)
mask = np.ones((1, 5), dtype=bool)


def loss_fn():
    hidden = E.encode(ids, segs, mask, params, cfg).hidden
    return T.sum_all(S.score(hidden, head, mask).scores)


with Tape() as tape:
    loss = loss_fn()
records = len(tape)  # the backward consumes the tape
backward(tape, loss)

print(f"tape records  : {records} (embedding, attention, feed-forward, "
      f"span head, sum)")
print(f"loss          : {float(loss.data):.6f}")
print(f"dL/dw_start   : {head['w_start'].grad.ravel()}")

# check one feed-forward weight numerically: nudge it, recompute, difference
w1 = params["layer0.ffn.w1"]
h_step = 1e-6
base = w1.data[0, 0]
w1.data[0, 0] = base + h_step
up = float(loss_fn().data)
w1.data[0, 0] = base - h_step
down = float(loss_fn().data)
w1.data[0, 0] = base
numeric = (up - down) / (2 * h_step)

print(f"dL/dw1[0,0]   : analytic {w1.grad[0, 0]:+.8f}  numeric {numeric:+.8f}")

# blocks preserve dtype, so the same graph runs at float32 for training
# and at float64 when a higher-precision reference is needed
params32 = T.draw(E.encoder_layout(cfg), np.random.default_rng(0))
print(f"float32 params -> {E.encode(ids, segs, mask, params32, cfg).hidden.dtype} "
      f"out, float64 params -> {E.encode(ids, segs, mask, params, cfg).hidden.dtype} out")
