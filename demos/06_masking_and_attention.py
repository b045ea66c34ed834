"""Padding never leaks: recurrent and attention outputs ignore pad tokens.

Runs the same sequence bare and right-padded through the bidirectional
recurrent layer and through the transformer encoder, then peeks at one
attention map to confirm padded keys get zero weight.
"""

import numpy as np

from sebertnets.encoder import EncoderConfig, encode, encoder_layout
from sebertnets.recurrent import GRU, RecurrentParams, bidirectional_encode, direction_layout
from sebertnets.tensor import Tensor, draw

rng = np.random.default_rng(4)

# recurrent layer: five real steps, three pad steps
fwd = RecurrentParams(GRU, 6, 4, draw(direction_layout(GRU, 6, 4), rng))
bwd = RecurrentParams(GRU, 6, 4, draw(direction_layout(GRU, 6, 4), rng))
seq = rng.standard_normal((1, 8, 6)).astype(np.float32)
mask = np.array([[True] * 5 + [False] * 3])

padded = bidirectional_encode(Tensor(seq), mask, fwd, bwd)
bare = bidirectional_encode(Tensor(seq[:, :5].copy()),
                            np.ones((1, 5), dtype=bool), fwd, bwd)
drift = np.abs(padded.data[:, :5] - bare.data).max()
print(f"recurrent: real rows padded-vs-bare max diff {drift:.1e}, "
      f"masked rows all zero: {bool((padded.data[:, 5:] == 0).all())}")

# encoder: same experiment, plus a look at the attention weights
cfg = EncoderConfig(vocab_size=30, d_model=8, n_layers=1, n_heads=2,
                    d_ff=16, max_len=16, dropout_rate=0.0)
params = draw(encoder_layout(cfg), rng)
ids = rng.integers(0, 30, size=(1, 8))
segs = np.zeros((1, 8), dtype=np.int64)

out_pad = encode(ids, segs, mask, params, cfg)
out_bare = encode(ids[:, :5], segs[:, :5], np.ones((1, 5), dtype=bool),
                  params, cfg)
drift = np.abs(out_pad.hidden.data[:, :5] - out_bare.hidden.data).max()
print(f"encoder  : real rows padded-vs-bare max diff {drift:.1e}")

attn = out_pad.attentions[0][0, 0]  # layer 0, head 0: [query, key]
print("\nattention of head 0 (rows = queries, cols = keys):")
for q in range(5):
    row = " ".join(f"{w:.3f}" for w in attn[q])
    print(f"  q{q}: {row}")
print(f"weight mass on padded keys: {attn[:5, 5:].sum():.1e}")
