"""Span head: start/end position scoring over the text region, the
training loss, and decoding.

Decoding is joint: a candidate (s, e) scores log p_start(s) + log
p_end(e), maximized over valid pairs with s <= e and width below
``max_span_len``. Every decode reads one ranked stream of all such
pairs, ordered by (-score, start, end), keeps the first span of each
surface text and returns the first k; top-1 is the stream cut at k=1.
Every variant decodes this way, so the two recurrent variants decode
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .errors import ContractError, DecodeError, ShapeError
from .tensor import Tensor


@dataclass
class SpanLogits:
    """Per-position start/end scores plus the validity mask (True exactly
    on text-region positions). Fields are [S] for one example or [B, S]
    for a batch."""
    start_logits: Tensor
    end_logits: Tensor
    valid: np.ndarray

    def __post_init__(self):
        if self.start_logits.shape != self.end_logits.shape:
            raise ShapeError(f"start logits {self.start_logits.shape} and end logits "
                             f"{self.end_logits.shape} do not match")
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.valid.shape != self.start_logits.shape:
            raise ShapeError(f"valid mask {self.valid.shape} does not match logits "
                             f"{self.start_logits.shape}")

    def example(self, i: int) -> "SpanLogits":
        """Detached single-example view of a batched SpanLogits."""
        return SpanLogits(Tensor(self.start_logits.data[i]),
                          Tensor(self.end_logits.data[i]), self.valid[i])


@dataclass(frozen=True)
class SpanCandidate:
    """Inclusive span with its joint log-probability and surface text."""
    start: int
    end: int
    score: float
    entity_text: str


@dataclass(frozen=True)
class RecallConfig:
    k: int = 5
    max_span_len: int = 30

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"k must be >= 1, got {self.k}")
        if self.max_span_len < 1:
            raise ContractError(f"max_span_len must be >= 1, got {self.max_span_len}")


def valid_mask(length: int, text_span) -> np.ndarray:
    """Boolean mask of the inclusive text region: [length] for one
    (first, last) pair, [B, length] for a [B, 2] array of them."""
    span = np.asarray(text_span)
    first, last = span[..., :1], span[..., 1:]
    fits = (0 <= first) & (first <= last) & (last < length)
    if not fits.all():
        bad = span.reshape(-1, 2)[~fits.reshape(-1)][0]
        raise ContractError(f"text span ({bad[0]}, {bad[1]}) does not fit length {length}")
    pos = np.arange(length)
    return (first <= pos) & (pos <= last)


def init_head_params(width: int, rng: np.random.Generator,
                     dtype=np.float32) -> dict[str, Tensor]:
    bound = 1.0 / math.sqrt(width)
    def w():
        return Tensor(rng.uniform(-bound, bound, (width, 1)).astype(dtype),
                      requires_grad=True)
    def b():
        return Tensor(np.zeros(1, dtype=dtype), requires_grad=True)
    return {"w_start": w(), "b_start": b(), "w_end": w(), "b_end": b()}


def score(h: Tensor, params: dict[str, Tensor], valid: np.ndarray) -> SpanLogits:
    """Apply the two affine position scorers to [.., S, width] states."""
    if h.ndim not in (2, 3):
        raise ShapeError(f"span head input must be [S, width] or [B, S, width], "
                         f"got shape {h.shape}")
    width = params["w_start"].shape[0]
    if h.shape[-1] != width:
        raise ShapeError(f"span head width {width} does not match input {h.shape}")
    lead = h.shape[:-1]
    def affine(which):
        out = T.add_bias(T.matmul(h, params[f"w_{which}"]), params[f"b_{which}"])
        return T.reshape(out, lead)
    return SpanLogits(affine("start"), affine("end"), np.asarray(valid, dtype=bool))


def span_loss(logits: SpanLogits, gold) -> Tensor:
    """Sum of start and end cross-entropies under masked softmax; the
    batched form averages over the batch. ``gold`` is (start, end) for a
    single example or an integer array [B, 2]."""
    g = np.asarray(gold)
    want = logits.start_logits.shape[:-1] + (2,)
    if g.shape != want:
        raise ContractError(f"gold must have shape {want} for logits of shape "
                            f"{logits.start_logits.shape}, got {g.shape}")
    if (g < 0).any() or not np.take_along_axis(logits.valid, g, axis=-1).all():
        raise ContractError("a gold position lies outside the valid text region")
    p_start = T.masked_softmax(logits.start_logits, logits.valid)
    p_end = T.masked_softmax(logits.end_logits, logits.valid)
    return T.add(T.cross_entropy(p_start, g[..., 0]), T.cross_entropy(p_end, g[..., 1]))


def _log_probs(logits: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """fp64 masked log-softmax; masked positions are -inf."""
    x = np.where(valid, logits.astype(np.float64), -np.inf)
    m = x.max()
    lse = m + np.log(np.exp(x - m).sum())
    return x - lse


def decode_top1(logits: SpanLogits, text: str, text_span,
                cfg: RecallConfig) -> SpanCandidate:
    """Best valid (s, e) pair by joint log-probability; ties go to the
    smaller start, then the smaller end: the head of the ranked stream."""
    return decode_multichannel(logits, text, text_span, replace(cfg, k=1))[0]


def decode_multichannel(logits: SpanLogits, text: str, text_span,
                        cfg: RecallConfig) -> list[SpanCandidate]:
    """Ranked candidate list (length <= k) read off one stream: every
    valid pair, sorted by (-score, start, end). The first span of each
    entity text is kept. The order does not depend on k, so growing k
    only appends."""
    if logits.start_logits.ndim != 1:
        raise ContractError("decoding works on single examples; "
                            "slice a batch with .example(i)")
    valid = logits.valid
    if not valid.any():
        raise DecodeError("no valid position to decode")
    lp_s = _log_probs(logits.start_logits.data, valid)
    lp_e = _log_probs(logits.end_logits.data, valid)

    # joint pairs: both ends valid and 0 <= e - s < max_span_len, in (s, e) order
    idx = np.flatnonzero(valid)
    width = min(cfg.max_span_len, valid.size)
    band = idx[:, None] + np.arange(width)
    keep = np.pad(valid, (0, width))[band]
    s, e = np.broadcast_to(idx[:, None], band.shape)[keep], band[keep]
    scores = lp_s[s] + lp_e[e]
    order = np.lexsort((e, s, -scores))

    first = int(text_span[0])
    out: list[SpanCandidate] = []
    seen: set[str] = set()
    for sc, s_i, e_i in zip(scores[order].tolist(), s[order].tolist(),
                            e[order].tolist()):
        txt = text[s_i - first:e_i - first + 1]
        if txt not in seen:
            seen.add(txt)
            out.append(SpanCandidate(start=s_i, end=e_i, score=sc, entity_text=txt))
            if len(out) == cfg.k:
                break
    return out
