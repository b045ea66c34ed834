"""How span decoding turns position scores into ranked entity candidates.

Start/end logits are hand-crafted so the behavior is easy to follow: one
dominant span plus a competitive runner-up. Decoding ranks every valid
(start, end) pair by joint log-probability in one stream, so the
runner-up surfaces as soon as k leaves room for it. Every variant
decodes this way. The k=1 result is always rank one of the stream, and
growing k only ever appends. One call also decodes a whole batch, row by
row exactly as one-example calls would.
"""

import numpy as np

from sebertnets.span import (
    RecallConfig,
    SpanLogits,
    decode_multichannel,
    decode_top1,
    valid_mask,
)
from sebertnets.tensor import Tensor

text = "甲乙丙丁戊己庚"
first, last = 1, 7  # token positions of the text region, [CLS] at 0
valid = valid_mask(9, (first, last))

start = np.full(9, -4.0)
end = np.full(9, -4.0)
start[2], end[3] = 3.0, 3.0    # dominant span: tokens 2..3 -> "乙丙"
start[5], end[6] = 2.2, 2.4    # runner-up:      tokens 5..6 -> "戊己"
logits = SpanLogits(Tensor(np.stack([start, end])), valid)

top1 = decode_top1(logits, text, (first, last),
                   RecallConfig(k=1, max_span_len=5))
print(f"top-1: {top1.entity_text!r} span=({top1.start},{top1.end}) "
      f"score={top1.score:.3f}")

for k in (1, 3, 5):
    cfg = RecallConfig(k=k, max_span_len=5)
    cands = decode_multichannel(logits, text, (first, last), cfg)
    row = ", ".join(f"{c.entity_text!r}@{c.score:.2f}" for c in cands)
    print(f"k={k}: {row}")

# a batch in one call: this example, and the same text with the
# runner-up made dominant; each row equals its one-example call
start2, end2 = start.copy(), end.copy()
start2[5], end2[6] = 4.0, 4.0
batched = SpanLogits(Tensor(np.array([[start, start2], [end, end2]])),
                     np.stack([valid, valid]))
texts, spans = [text, text], np.array([(first, last)] * 2)
cfg = RecallConfig(k=3, max_span_len=5)
rows = decode_multichannel(batched, texts, spans, cfg)
for i, cands in enumerate(rows):
    assert cands == decode_multichannel(batched.example(i), texts[i], (first, last), cfg)
    print(f"batch row {i}: " + ", ".join(f"{c.entity_text!r}@{c.score:.2f}"
                                          for c in cands))
