"""Transformer encoder over char tokens: learned token/position/segment
embeddings, multi-head self-attention with padding-key masking, and a
position-wise feed-forward block, each followed by residual + layer norm.

Trained from scratch on the span objective; there is no pretraining.
A pass given an ``rng`` is a training pass: dropout follows the
embedding and each attention and feed-forward block. A tape-free pass
returns the attention weights of every layer and head for inspection,
uncopied and read-only; a recorded pass returns none, so that no layer's
weights outlive its forward.

The encoder is three blocks: the embedding (three lookups, add, layer
norm, dropout), the attention sublayer (q/k/v/o projections, scaled
masked softmax, dropout, residual, layer norm) and the feed-forward
sublayer (two linears, activation, dropout, residual, layer norm). Each
is an array function that returns its output and its hand-written
backward, built from the kernels below it. Where a tape records a
block's inputs the block is one tape op; elsewhere it runs on bare
arrays and builds no Tensor, so a tape-free pass builds only its output.
Training and inference run the same functions. Each backward adds the
gradients of an input used several times in reverse order of use, as a
tape of the separate operations would, so gradients are bit for bit
those of the composed operations.

A recorded block keeps, besides its output, only what its backward
reads: the embedding its normalized sum; attention q, k, v, the
softmax's per-row max and sum, the merged context and the normalized
residual; the feed-forward block its activation's output (gelu also its
input and tanh) and the normalized residual; each its boolean dropout
draw and its layer norm's per-position scale. Every other intermediate
is freed when the block returns. Attention keeps no [B, nh, S, S]
array: its backward rebuilds the weights from q, k and the row
statistics by the forward's own operations in the forward's order, so
they are bit for bit the weights of the forward (the recompute of
FlashAttention's backward, Dao et al., 2022).

While a model's pass records, its tape holds the model's ``Arena``
(``tensor.Arena``); each recorded block writes every whole-batch array
into blocks of it with ``out=`` and gives each back at its known death.
A kernel's temporaries go back when the kernel returns, the arrays a
block keeps once its backward has run, and a block's input gradient
once the block before has read it: each backward gives back the
gradient it is handed. A block's output, the attention maps handed out
and the parameter gradients come from malloc. Any other pass takes
from ``T.MALLOC`` and allocates as numpy does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DegenerateMaskError, ShapeError
from .tensor import Tensor

N_SEGMENTS = 2
_GELU_C = math.sqrt(2.0 / math.pi)
_EMBEDDING = ("tok_emb", "pos_emb", "seg_emb", "emb_ln.gain", "emb_ln.bias")
_ATTENTION = ("attn.wq", "attn.bq", "attn.wk", "attn.wv", "attn.bv", "attn.wo",
              "attn.bo", "attn_ln.gain", "attn_ln.bias")
_FFN = ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ffn_ln.gain", "ffn_ln.bias")


@dataclass
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 140
    dropout_rate: float = 0.1
    activation: str = "relu"

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ContractError(f"{name} must be a positive int, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}")
        if type(self.dropout_rate) not in (int, float) or not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not isinstance(self.activation, str) or self.activation not in _ACTIVATIONS:
            raise ContractError(f"activation must be one of {sorted(_ACTIVATIONS)}, "
                                f"got {self.activation!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class EncoderOutput:
    """``hidden``: contextual representation per position. ``attentions``:
    for a tape-free pass, one [B, n_heads, S, S] array of attention
    weights per layer, the arrays the encoder computed, not copies, and
    read-only; copy one before changing it. A recorded pass returns
    ``[]``: a list of maps would keep every layer's weights alive."""
    hidden: Tensor
    attentions: list[np.ndarray] = field(default_factory=list)


def encoder_layout(cfg: EncoderConfig):
    """(name, shape, init) entries, produced lazily in order: embeddings
    uniform in [-0.05, 0.05], linear maps fan-in scaled uniform, biases
    zero, layer-norm gain one. The key projection has no bias: the
    softmax over keys would cancel it."""
    d, ff = cfg.d_model, cfg.d_ff
    yield "tok_emb", (cfg.vocab_size, d), 0.05
    yield "pos_emb", (cfg.max_len, d), 0.05
    yield "seg_emb", (N_SEGMENTS, d), 0.05
    yield "emb_ln.gain", (d,), "ones"
    yield "emb_ln.bias", (d,), "zeros"
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        for name in ("q", "k", "v", "o"):
            yield pre + "attn.w" + name, (d, d), 1.0 / math.sqrt(d)
            if name != "k":
                yield pre + "attn.b" + name, (d,), "zeros"
        yield pre + "attn_ln.gain", (d,), "ones"
        yield pre + "attn_ln.bias", (d,), "zeros"
        yield pre + "ffn.w1", (d, ff), 1.0 / math.sqrt(d)
        yield pre + "ffn.b1", (ff,), "zeros"
        yield pre + "ffn.w2", (ff, d), 1.0 / math.sqrt(ff)
        yield pre + "ffn.b2", (d,), "zeros"
        yield pre + "ffn_ln.gain", (d,), "ones"
        yield pre + "ffn_ln.bias", (d,), "zeros"


# ------------------------------------------------------------ kernels
#
# Each kernel takes arrays and returns its output and its backward: a
# function from the output gradient to a tuple of its array inputs'
# gradients. A kernel writes its output and its backward's input
# gradient, of its input's dtype, into blocks taken from ``arena`` (the
# dropout output from ``into``; the layer norm's output comes from
# malloc), and its caller gives them back once dead; the kernel gives
# back its own temporaries when it returns and the arrays it keeps for
# its backward once that has run. Kernels never write into their inputs
# or into the gradient they are handed.
#
# Where a tape-free pass runs, a kernel passes ``out=arena.take(shape,
# dtype) if arena else None``: ``T.MALLOC`` is falsy, so a tape-free
# pass builds no shape and lets numpy allocate. A backward, and a
# dropout draw, run only in training passes and take unconditionally;
# from ``T.MALLOC`` that allocates.


def _linear(x, w, b=None, *, arena=T.MALLOC):
    """``x @ w (+ b)`` over [B, S, n]. The weight gradient is the batched
    ``swapaxes(x) @ g`` summed over the batch, the bias one ``g`` summed
    over batch and positions."""
    y = np.matmul(x, w, out=arena.take(x.shape[:-1] + w.shape[1:], x.dtype) if arena
                  else None)
    if b is not None:
        np.add(y, b, out=y)

    def back(g):
        dx = np.matmul(g, w.T, out=arena.take(x.shape, g.dtype))
        prod = np.matmul(np.swapaxes(x, -1, -2), g,
                         out=arena.take(x.shape[:-2] + (x.shape[-1], g.shape[-1]), g.dtype))
        grads = (dx, prod.sum(axis=0))
        arena.give(prod)
        return grads if b is None else grads + (g.sum(axis=(0, 1)),)
    return y, back


# Each activation owns its input ``v``: it gives it back once it no
# longer needs it.


def _relu(v, *, arena=T.MALLOC):
    """``max(v, 0)``. The backward masks by the output's sign, which is
    the input's, so the pre-activation is given back at once."""
    y = np.maximum(v, 0.0, out=arena.take(v.shape, v.dtype) if arena else None)
    arena.give(v)

    def back(g):
        mask = np.greater(y, 0.0, out=arena.take(y.shape, bool))
        d = np.multiply(g, mask, out=arena.take(g.shape, g.dtype))
        arena.give(mask)
        return (d,)
    return y, back


def _gelu(v, *, arena=T.MALLOC):
    """Tanh approximation of the Gaussian error linear unit. Only its
    output and input gradient come from ``arena``."""
    t = np.tanh(_GELU_C * (v + 0.044715 * v ** 3))

    def back(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * v ** 2)
        d = np.multiply(g, 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * d_inner,
                        out=arena.take(g.shape, g.dtype))
        arena.give(v)
        return (d,)
    y = np.multiply(0.5 * v, 1.0 + t, out=arena.take(v.shape, v.dtype) if arena else None)
    return y, back


_ACTIVATIONS = {"relu": _relu, "gelu": _gelu}


def _layer_norm(v, gain, bias, eps=1e-5, *, arena=T.MALLOC):
    """Normalize the trailing axis to zero mean and unit variance (biased
    variance), then scale and shift."""
    n = v.dtype.type(v.shape[-1])

    def mean(a):
        # np.mean's value bit for bit (its float64 quotient rounds to the
        # same float32), without its per-call Python overhead
        return a.sum(axis=-1, keepdims=True) / n
    xhat = np.subtract(v, mean(v), out=arena.take(v.shape, v.dtype) if arena else None)
    sq = np.multiply(xhat, xhat, out=arena.take(v.shape, v.dtype) if arena else None)
    inv = 1.0 / np.sqrt(mean(sq) + eps)
    arena.give(sq)
    np.multiply(xhat, inv, out=xhat)
    lead = tuple(range(v.ndim - 1))

    def back(g):
        # inv * ((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat))
        dx = np.multiply(g, gain, out=arena.take(g.shape, g.dtype))
        t = np.multiply(dx, xhat, out=arena.take(g.shape, g.dtype))
        m_dot, m_dx = mean(t), mean(dx)
        np.multiply(xhat, m_dot, out=t)
        np.subtract(dx, m_dx, out=dx)
        np.subtract(dx, t, out=dx)
        np.multiply(inv, dx, out=dx)
        d_gain = np.multiply(g, xhat, out=t).sum(axis=lead)
        arena.give(t)
        arena.give(xhat)
        return dx, d_gain, g.sum(axis=lead)
    y = np.multiply(xhat, gain)
    return np.add(y, bias, out=y), back


def _scores(q, kt, scale, neg, out):
    """``(q @ kt) * scale + neg``, the masked attention scores, into ``out``."""
    out = np.matmul(q, kt, out=out)
    np.multiply(out, scale, out=out)
    return np.add(out, neg, out=out)


def _softmax_rows(p):
    """Softmax over the trailing axis of ``p``, in place; returns the
    per-row max and sum it was formed with."""
    top = p.max(axis=-1, keepdims=True)
    np.subtract(p, top, out=p)
    np.exp(p, out=p)
    total = p.sum(axis=-1, keepdims=True)
    np.divide(p, total, out=p)
    return top, total


def _softmax_back(p, g, *, arena=T.MALLOC):
    """The softmax's input gradient from its weights ``p`` and output
    gradient ``g``, written over ``g``."""
    gp = np.multiply(g, p, out=arena.take(g.shape, g.dtype))
    dot = gp.sum(axis=-1, keepdims=True)
    arena.give(gp)
    np.subtract(g, dot, out=g)
    return np.multiply(g, p, out=g)


def _masked_softmax(v, neg):
    """Softmax over the trailing axis after adding ``neg``, 0 at live and
    -inf at masked positions, broadcasting to ``v`` (a [B, 1, 1, S] key
    mask serves [B, nh, S, S] scores). Masked positions of finite scores
    get probability exactly 0 and zero gradient; the caller ensures each
    row has a live position."""
    p = v + neg
    _softmax_rows(p)
    return p, lambda g: (_softmax_back(p, g.copy()),)


def _dropout(v, rate, rng, *, arena=T.MALLOC, into=T.MALLOC):
    """Inverted dropout: zero with probability ``rate``, scale survivors
    by 1/(1-rate). Without an ``rng``, or at rate 0, it is the identity:
    it returns ``v`` and the gradient it is handed, and draws nothing.
    The backward keeps only the boolean draw, one byte an element, and
    rebuilds the same scaled mask from it."""
    if rng is None or rate == 0.0:
        return v, lambda g: (g,)
    draw = rng.random(v.shape, out=arena.take(v.shape, np.float64))
    keep = np.greater_equal(draw, rate, out=arena.take(v.shape, bool))
    arena.give(draw)

    def scaled(out):
        # keep.astype(dtype) * (1 / (1 - rate)), into ``out``
        return np.multiply(keep, 1.0 / (1.0 - rate), out=out, dtype=v.dtype)

    def back(g):
        d = scaled(arena.take(g.shape, g.dtype))
        np.multiply(g, d, out=d)
        arena.give(keep)
        return (d,)
    y = scaled(into.take(v.shape, v.dtype))
    return np.multiply(v, y, out=y), back


# ------------------------------------------------------------- blocks
#
# Each block takes its temporaries and kept arrays from ``arena`` and
# returns its output from malloc. Its backward gives back the gradient
# it is handed, which the next block's backward took from the same
# arena, and returns its input gradient from the arena.


def _embedding(tok, pos, seg, gain, bias, ids, segs, rate, rng, *, arena=T.MALLOC):
    """Token + position + segment rows of [B, S] ``ids``, layer-normed,
    then dropout. Table gradients scatter with accumulation at repeats."""
    shape, dtype = ids.shape + tok.shape[1:], tok.dtype
    # clip never applies: embed checks the ids
    v = tok.take(ids, axis=0, out=arena.take(shape, dtype) if arena else None, mode="clip")
    np.add(v, pos[:ids.shape[1]], out=v)
    rows = seg.take(segs, axis=0, out=arena.take(shape, dtype) if arena else None,
                    mode="clip")
    np.add(v, rows, out=v)
    arena.give(rows)
    y, ln_back = _layer_norm(v, gain, bias, arena=arena)
    arena.give(v)
    out, drop_back = _dropout(y, rate, rng, arena=arena)

    def back(g):
        (dy,) = drop_back(g)
        dx, d_gain, d_bias = ln_back(dy)
        if dy is not g:
            arena.give(dy)
        arena.give(g)
        d_tok, d_pos, d_seg = (np.zeros_like(t) for t in (tok, pos, seg))
        np.add.at(d_tok, ids, dx)
        # each row holds every position once, so this gradient is a sum
        # over the batch; added to 0.0 as a scatter's is, a -0.0 sum is +0.0
        d_pos[:ids.shape[1]] += dx.sum(axis=0)
        np.add.at(d_seg, segs, dx)
        arena.give(dx)
        return d_tok, d_pos, d_seg, d_gain, d_bias
    return out, back


def _sublayer_out(x, o, gain, bias, rate, rng, arena):
    """Dropout of the sublayer output ``o`` (given back), the residual
    ``x + o`` and its layer norm: the block output and a backward from
    its gradient to the residual's and the norm's."""
    od, drop_back = _dropout(o, rate, rng, arena=arena, into=arena)
    r = np.add(x, od, out=arena.take(x.shape, x.dtype) if arena else None)
    if od is not o:
        arena.give(od)
    arena.give(o)
    y, ln_back = _layer_norm(r, gain, bias, arena=arena)
    arena.give(r)

    def back(g):
        d_res, d_gain, d_bias = ln_back(g)
        arena.give(g)
        (d_o,) = drop_back(d_res)
        return d_res, d_o, d_gain, d_bias
    return y, back


def _attention(x, wq, bq, wk, wv, bv, wo, bo, gain, bias, neg, n_heads, maps,
               rate, rng, *, arena=T.MALLOC):
    """Multi-head self-attention over [B, S, d] ``x`` with key mask
    ``neg`` (as in ``_masked_softmax``), dropout, residual and layer norm.
    Appends the read-only [B, nh, S, S] attention weights to ``maps``
    unless it is None; the backward rebuilds them in one buffer."""
    b, s, d = x.shape
    split = (b, s, n_heads, d // n_heads)
    dtype = x.dtype
    scale = dtype.type(1.0 / math.sqrt(d // n_heads))

    def heads(a):
        return a.reshape(split).transpose(0, 2, 1, 3)

    def merge(a):
        """[B, nh, S, dh] ``a`` as a [B, S, d] block; ``a`` is given back."""
        if arena:
            out = arena.take(split, dtype)
            out[...] = a.transpose(0, 2, 1, 3)
            out = out.reshape(b, s, d)
        else:
            out = a.transpose(0, 2, 1, 3).reshape(b, s, d)  # a copy
        arena.give(a)
        return out

    def head_product(a, c):
        return np.matmul(a, c, out=arena.take(a.shape[:-1] + c.shape[-1:], dtype) if arena
                         else None)

    (q2, q_back), (k2, k_back), (v2, v_back) = (
        _linear(x, wq, bq, arena=arena), _linear(x, wk, arena=arena),
        _linear(x, wv, bv, arena=arena))
    q, k, v = heads(q2), heads(k2), heads(v2)
    kt = k.transpose(0, 1, 3, 2)
    # maps are handed out only by tape-free passes, which have no arena
    p = _scores(q, kt, scale, neg, arena.take((b, n_heads, s, s), dtype) if arena else None)
    top, total = _softmax_rows(p)
    ctx = merge(head_product(p, v))
    if maps is not None:
        # handed out uncopied: keep them unwritten
        p.flags.writeable = False
        maps.append(p)
    else:
        arena.give(p)
    del p
    o, o_back = _linear(ctx, wo, bo, arena=arena)
    y, out_back = _sublayer_out(x, o, gain, bias, rate, rng, arena)

    def back(g):
        d_res, d_o, d_gain, d_bias = out_back(g)
        d_ctx, d_wo, d_bo = o_back(d_o)
        if d_o is not d_res:
            arena.give(d_o)
        arena.give(ctx)
        d_heads = np.transpose(d_ctx.reshape(split), (0, 2, 1, 3))
        # the weights again: the forward's operations in its order
        p = _scores(q, kt, scale, neg, arena.take((b, n_heads, s, s), dtype))
        np.subtract(p, top, out=p)
        np.divide(np.exp(p, out=p), total, out=p)
        d_scores = _softmax_back(p, head_product(d_heads, np.swapaxes(v, -1, -2)),
                                 arena=arena)
        np.multiply(d_scores, scale, out=d_scores)
        d_v = merge(head_product(np.swapaxes(p, -1, -2), d_heads))
        for a in (p, d_ctx):
            arena.give(a)
        dx_v, d_wv, d_bv = v_back(d_v)
        d_k = merge(np.transpose(head_product(np.swapaxes(q, -1, -2), d_scores), (0, 1, 3, 2)))
        dx_k, d_wk = k_back(d_k)
        d_q = merge(head_product(d_scores, np.swapaxes(kt, -1, -2)))
        dx_q, d_wq, d_bq = q_back(d_q)
        for a in (d_v, d_k, d_q, d_scores, q2, k2, v2):
            arena.give(a)
        # x feeds q, k, v and the residual: add in reverse order of use
        for dx in (dx_v, dx_k, dx_q):
            np.add(d_res, dx, out=d_res)
            arena.give(dx)
        return (d_res, d_wq, d_bq, d_wk, d_wv, d_bv, d_wo, d_bo, d_gain, d_bias)
    return y, back


def _ffn(x, w1, b1, w2, b2, gain, bias, activation, rate, rng, *, arena=T.MALLOC):
    """Position-wise feed-forward over [B, S, d] ``x``: linear,
    ``activation``, linear, dropout, residual and layer norm."""
    h, h_back = _linear(x, w1, b1, arena=arena)
    a, act_back = _ACTIVATIONS[activation](h, arena=arena)
    o, o_back = _linear(a, w2, b2, arena=arena)
    y, out_back = _sublayer_out(x, o, gain, bias, rate, rng, arena)

    def back(g):
        d_res, d_o, d_gain, d_bias = out_back(g)
        d_a, d_w2, d_b2 = o_back(d_o)
        if d_o is not d_res:
            arena.give(d_o)
        (d_h,) = act_back(d_a)
        arena.give(d_a)
        arena.give(a)
        dx, d_w1, d_b1 = h_back(d_h)
        arena.give(d_h)
        np.add(d_res, dx, out=d_res)
        arena.give(dx)
        return d_res, d_w1, d_b1, d_w2, d_b2, d_gain, d_bias
    return y, back


def _block(fn, inputs, *args):
    """Run block ``fn`` on the arrays of ``inputs``, Tensors or bare
    arrays, then ``args``. Where a tape records an input, the result is
    one tape op with ``fn``'s backward, and the block takes from the
    tape's arena; otherwise it is the bare array, taken from malloc."""
    record = T._recording(t for t in inputs if isinstance(t, Tensor))
    out, back = fn(*[t.data if isinstance(t, Tensor) else t for t in inputs], *args,
                   arena=T._active_tape().arena if record else T.MALLOC)
    if not record:
        return out
    return T._make(tuple(t if isinstance(t, Tensor) else Tensor(t) for t in inputs),
                   out, back)


def embed(token_ids, segment_ids, params: dict[str, Tensor], cfg: EncoderConfig,
          *, rng: np.random.Generator | None = None) -> Tensor | np.ndarray:
    """Token + learned position + segment embedding, layer-normed.
    Inputs are [B, S] integer arrays. With an ``rng``, dropout follows.
    The [B, S, d] result is one tape op where a tape records the tables,
    and a bare array elsewhere."""
    ids = np.asarray(token_ids)
    segs = np.asarray(segment_ids)
    if ids.ndim != 2 or segs.shape != ids.shape:
        raise ShapeError(f"token ids {ids.shape} and segment ids {segs.shape} "
                         f"must be equal 2-D shapes")
    if ids.shape[1] > cfg.max_len:
        raise ShapeError(f"sequence length {ids.shape[1]} exceeds max_len {cfg.max_len}")
    for idx, table in ((ids, params["tok_emb"]), (segs, params["seg_emb"])):
        if not np.issubdtype(idx.dtype, np.integer):
            raise ContractError(f"embedding ids must be integers, got dtype {idx.dtype}")
        n = table.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"embedding id out of range [0, {n}): "
                             f"min {idx.min()}, max {idx.max()}")
    return _block(_embedding, [params[name] for name in _EMBEDDING], ids, segs,
                  cfg.dropout_rate, rng)


def encode(token_ids, segment_ids, attention_mask, params: dict[str, Tensor],
           cfg: EncoderConfig, *,
           rng: np.random.Generator | None = None) -> EncoderOutput:
    """Full encoder pass over a batch. ``attention_mask`` is [B, S] bool;
    padded positions are excluded as attention keys, so real positions
    are unaffected by padding, and a row with no real position is an
    error. Dropout runs exactly when an ``rng`` is given: that is a
    training pass.

    A recorded block takes its whole-batch arrays from its tape's arena
    (``Tape.arena``), which is a model's only while that model's pass
    records: ``Model.forward`` passes the last block's output gradient
    from the same arena."""
    mask = np.asarray(attention_mask, dtype=bool)
    x = embed(token_ids, segment_ids, params, cfg, rng=rng)
    if mask.shape != x.shape[:2]:
        raise ShapeError(f"attention mask {mask.shape} does not match ids {x.shape[:2]}")
    if not mask.any(axis=-1).all():
        raise DegenerateMaskError("encode: an attention mask row has no real position")
    dtype = params["tok_emb"].dtype.type
    neg = np.where(mask, dtype(0), dtype(-np.inf))[:, None, None, :]
    # a recorded pass hands out no maps: each layer's weights die with its forward
    maps = None if T._recording(params.values()) else []
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        x = _block(_attention, [x, *(params[pre + name] for name in _ATTENTION)],
                   neg, cfg.n_heads, maps, cfg.dropout_rate, rng)
        x = _block(_ffn, [x, *(params[pre + name] for name in _FFN)],
                   cfg.activation, cfg.dropout_rate, rng)
    return EncoderOutput(hidden=x if isinstance(x, Tensor) else Tensor(x),
                         attentions=maps or [])
