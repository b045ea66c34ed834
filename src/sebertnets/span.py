"""Span head: start/end position scoring over the text region, the
training loss, and decoding.

The loss and the decoder read one fp64 masked log-softmax
(``_log_probs``). The loss is -(log p_start + log p_end) at the gold
span, averaged over the batch, as a single tape op; it stays finite
however far the gold logits sit below the best. ``example_losses``
gives the per-example values it averages, in fp64.

Decoding is joint: a candidate (s, e) scores log p_start(s) + log
p_end(e), maximized over valid pairs with s <= e and width below
``max_span_len``. Every decode reads one ranked stream of all such
pairs, ordered by (-score, start, end), keeps the first span of each
surface text and returns the first k; top-1 is the stream cut at k=1.
Every variant decodes this way, so the two recurrent variants decode
identically. One call decodes one example or a whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor as T
from .errors import ContractError, DecodeError, ShapeError
from .tensor import Tensor


# a decode sorts each row's best _PREFIX * k pairs, and all of its pairs
# only when those hold fewer than k distinct texts
_PREFIX = 4


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
    """Start and end scoring vectors, fan-in scaled uniform, with no bias:
    the softmax over positions would cancel it."""
    bound = 1.0 / math.sqrt(width)
    def w():
        return Tensor(rng.uniform(-bound, bound, (width, 1)).astype(dtype),
                      requires_grad=True)
    return {"w_start": w(), "w_end": w()}


def score(h: Tensor, params: dict[str, Tensor], valid: np.ndarray) -> SpanLogits:
    """Apply the two linear position scorers to [.., S, width] states."""
    if h.ndim not in (2, 3):
        raise ShapeError(f"span head input must be [S, width] or [B, S, width], "
                         f"got shape {h.shape}")
    width = params["w_start"].shape[0]
    if h.shape[-1] != width:
        raise ShapeError(f"span head width {width} does not match input {h.shape}")
    lead = h.shape[:-1]
    def linear(which):
        return T.reshape(T.matmul(h, params[f"w_{which}"]), lead)
    return SpanLogits(linear("start"), linear("end"), valid)


def _gold_log_probs(logits: SpanLogits, gold):
    """Each side's fp64 masked log-softmax, the gold index of each side
    ([..., 1]) and the sum of the two gold log-probabilities ([..., 1]),
    after checking ``gold`` against the logits."""
    g = np.asarray(gold)
    want = logits.start_logits.shape[:-1] + (2,)
    if g.shape != want:
        raise ContractError(f"gold must have shape {want} for logits of shape "
                            f"{logits.start_logits.shape}, got {g.shape}")
    if (g < 0).any() or not np.take_along_axis(logits.valid, g, axis=-1).all():
        raise ContractError("a gold position lies outside the valid text region")
    lps = [_log_probs(t.data, logits.valid)
           for t in (logits.start_logits, logits.end_logits)]
    golds = [g[..., i:i + 1] for i in range(2)]
    # gathered, not a one-hot product: masked entries are -inf and -inf * 0 is NaN
    picked = sum(np.take_along_axis(lp, gi, axis=-1) for lp, gi in zip(lps, golds))
    return lps, golds, picked


def example_losses(logits: SpanLogits, gold) -> np.ndarray:
    """fp64 -(log p_start(gold start) + log p_end(gold end)) of each
    example, [B] for a batch or 0-d for one: the values ``span_loss``
    averages, before its cast to the logits' dtype."""
    return -_gold_log_probs(logits, gold)[2][..., 0]


def span_loss(logits: SpanLogits, gold) -> Tensor:
    """-(log p_start(gold start) + log p_end(gold end)), read off the
    masked log-softmax that decoding ranks by; the batched form averages
    over the batch. ``gold`` is (start, end) for a single example or an
    integer array [B, 2]. One tape op, whose gradient per logit row is
    (softmax - one_hot(gold)) / B."""
    lps, golds, picked = _gold_log_probs(logits, gold)
    sides = (logits.start_logits, logits.end_logits)
    dtype = sides[0].dtype
    def bwd(grad):
        pos = np.arange(logits.valid.shape[-1])
        scale = grad.astype(np.float64) / picked.size
        return tuple(((np.exp(lp) - (pos == gi)) * scale).astype(dtype)
                     for lp, gi in zip(lps, golds))
    return T._make(sides, np.asarray(-picked.mean(), dtype=dtype), bwd)


def _log_probs(logits: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """fp64 masked log-softmax over the trailing axis; masked positions
    are -inf."""
    x = np.where(valid, logits.astype(np.float64), -np.inf)
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    return x - lse


def decode_top1(logits: SpanLogits, text, text_span, cfg: RecallConfig):
    """Best valid (s, e) pair by joint log-probability; ties go to the
    smaller start, then the smaller end: the head of the ranked stream.
    One candidate for one example, a list of them for a batch."""
    out = decode_multichannel(logits, text, text_span, replace(cfg, k=1))
    return out[0] if logits.start_logits.ndim == 1 else [c[0] for c in out]


def decode_multichannel(logits: SpanLogits, text, text_span, cfg: RecallConfig):
    """Ranked candidate list (length <= k) read off one stream: every
    valid pair, sorted by (-score, start, end). The first span of each
    entity text is kept. The order does not depend on k, so growing k
    only appends.

    Takes one example ([S] logits, a str, a (first, last) pair) and
    returns its list, or a batch ([B, S] logits, B strs, a [B, 2] array)
    and returns one list per row. The batch is scored at once, as a
    [B, S, W] band of pair scores with W = min(max_span_len, S). Each row
    sorts only its pairs at or above its ``_PREFIX * k``-th largest score,
    ties included, and is sorted in full only when those hold fewer than
    k distinct texts. A non-finite logit at a valid position raises
    ``DecodeError`` naming its row.
    """
    single = logits.start_logits.ndim == 1
    valid = logits.valid.reshape(1, -1) if single else logits.valid
    texts = [text] if isinstance(text, str) else list(text)
    firsts = np.asarray(text_span).reshape(-1, 2)[:, 0].tolist()
    if valid.ndim != 2 or not len(texts) == len(firsts) == valid.shape[0]:
        raise ContractError(f"logits of shape {logits.start_logits.shape} need one "
                            f"text and one text span per row")
    if not valid.any(axis=1).all():
        raise DecodeError("no valid position to decode")
    start = logits.start_logits.data.reshape(valid.shape)
    end = logits.end_logits.data.reshape(valid.shape)
    finite = (np.isfinite(start) & np.isfinite(end)) | ~valid
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise DecodeError(f"row {row} holds a non-finite start or end logit")
    lp_s = _log_probs(start, valid)
    lp_e = _log_probs(end, valid)

    # band[b, s, w] scores the pair (s, s + w); ``live`` marks the pairs
    # with both ends valid, which is every pair a decode may return
    b, n = valid.shape
    width = min(cfg.max_span_len, n)
    tail = (b, width - 1)
    band = lp_s[:, :, None] + _windows(
        np.concatenate([lp_e, np.full(tail, -np.inf)], axis=1), n)
    live = valid[:, :, None] & _windows(
        np.concatenate([valid, np.zeros(tail, dtype=bool)], axis=1), n)

    prefix = _PREFIX * cfg.k
    floor = np.full(b, -np.inf)
    if n * width > prefix:
        neg = -band.reshape(b, -1)
        neg.partition(prefix - 1, axis=1)
        floor = -neg[:, prefix - 1]
    out = _ranked_lists(band, live, floor, texts, firsts, cfg.k)
    for i, cands in enumerate(out):
        if cands is None:
            out[i], = _ranked_lists(band[i:i + 1], live[i:i + 1], np.full(1, -np.inf),
                                    texts[i:i + 1], firsts[i:i + 1], cfg.k)
    return out[0] if single else out


def _windows(x: np.ndarray, n: int) -> np.ndarray:
    """Read-only [B, n, W] view of a C-contiguous [B, n + W - 1] array whose
    window [b, s] is x[b, s:s + W]."""
    rows, cols = x.shape
    return as_strided(x, (rows, n, cols - n + 1), x.strides + x.strides[-1:],
                      writeable=False)


def _ranked_lists(band, live, floor, texts, firsts, k):
    """Each row's first k candidates of distinct text, read from its live
    pairs scoring at or above ``floor[row]`` in (-score, start, end) order.
    None for a row that runs out of them before k while it still has live
    pairs below its floor."""
    keep = live & (band >= floor[:, None, None])
    rows, s, w = np.nonzero(keep)
    scores = band[rows, s, w]
    e = s + w
    order = np.lexsort((e, s, -scores, rows))
    kept = keep.sum(axis=(1, 2))
    bounds = np.cumsum(kept).tolist()
    cut = (kept < live.sum(axis=(1, 2))).tolist()
    scores, s, e = scores[order].tolist(), s[order].tolist(), e[order].tolist()
    out, lo = [], 0
    for text, first, hi, partial in zip(texts, firsts, bounds, cut):
        cands: list[SpanCandidate] = []
        seen: set[str] = set()
        for j in range(lo, hi):
            txt = text[s[j] - first:e[j] - first + 1]
            if txt not in seen:
                seen.add(txt)
                cands.append(SpanCandidate(start=s[j], end=e[j], score=scores[j],
                                           entity_text=txt))
                if len(cands) == k:
                    break
        out.append(None if partial and len(cands) < k else cands)
        lo = hi
    return out
