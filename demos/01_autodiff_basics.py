"""A tour of the chain of stages that gradients run through.

Records a tiny one-layer encoder, the span head and the span loss on a
chain, runs its backward, and checks one gradient against central
finite differences. Each encoder block (embedding, attention,
feed-forward), the span head and the loss is one stage with a
hand-written backward; ``backward`` runs the stages last to first and
writes every parameter gradient into one name -> array dict. A training
step records the full model on a chain the same way.
"""

import numpy as np

from sebertnets import encoder as E
from sebertnets import span as S
from sebertnets import tensor as T
from sebertnets.tensor import Chain, backward

rng = np.random.default_rng(0)
cfg = E.EncoderConfig(vocab_size=8, d_model=4, n_layers=1, n_heads=2, d_ff=6,
                      max_len=8, dropout_rate=0.0, activation="gelu")
params = T.draw(E.encoder_layout(cfg), rng, np.float64)
head = T.draw(S.head_layout(4), rng, np.float64)
ids = rng.integers(0, 8, size=(1, 5))
segs = np.zeros_like(ids)
mask = np.ones((1, 5), dtype=bool)
valid = S.valid_mask(5, np.array([[1, 3]]))
golds = np.array([[1, 3]])


def loss_fn(chain=None):
    hidden = E.encode(ids, segs, mask, params, cfg, chain=chain).hidden
    logits = S.score(hidden, head, valid, chain=chain)
    return S.span_loss(logits, golds, chain=chain)


chain = Chain({**{"encoder." + k: p for k, p in params.items()},
               **{"head." + k: p for k, p in head.items()}})
loss = loss_fn(chain)
print(f"chain stages  : {[stage for stage, _, _ in chain]}")
grads = {}
backward(chain, grads)  # consumes the chain

print(f"loss          : {float(loss.data):.6f}")
print(f"dL/dw_start   : {grads['head.w_start'].ravel()}")

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
analytic = grads["encoder.layer0.ffn.w1"][0, 0]

print(f"dL/dw1[0,0]   : analytic {analytic:+.8f}  numeric {numeric:+.8f}")
assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric))

# stages preserve dtype, so the same chain runs at float32 for training
# and at float64 when a higher-precision reference is needed
params32 = T.draw(E.encoder_layout(cfg), np.random.default_rng(0))
print(f"float32 params -> {E.encode(ids, segs, mask, params32, cfg).hidden.dtype} "
      f"out, float64 params -> {E.encode(ids, segs, mask, params, cfg).hidden.dtype} out")
