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

Threads. A recorded attention or FFN block over more than one row,
where ``threads.threaded`` allows it, runs its per-row work on two batch
halves at once, in the forward and in the backward: rows ``[:B//2]`` on
the worker thread the recurrent layer also uses, the rest on the calling
thread (``_Rows``). What reads or changes the whole batch stays whole, on
the calling thread: each dropout draw, one ``rng.random`` over the whole
block shape in the order of an unsplit pass; every sum over the batch
(each weight gradient's sum of the per-row products, which the halves
write into one block, the bias sums and the layer norm's gain and bias
sums); and every arena take and give, so the arena needs no lock. A
split block gives its blocks back at its next sync, once both halves are
done with them. Every output and gradient is bit for bit that of the
whole block. The embedding, tape-free passes and one-row passes run
whole, on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensor as T
from . import threads
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


# -------------------------------------------------------------- rows
#
# Most of a block's work each batch row does alone: every product,
# activation, softmax, layer norm, dropout mask and residual is
# row-local. The rest reads or changes the whole batch: an arena call, a
# dropout draw, a sum over the batch. A recorded attention or FFN block
# over more than one row (``threads.threaded``) runs the row-local work
# on two batch halves at once and the rest on the calling thread.


class _Rows:
    """Where a block's arrays come from and where its per-row work runs.

    A kernel takes its whole-batch arrays with ``rows.take``, gives them
    back with ``rows.give`` and hands ``rows.each(fn, *arrays, out=out)``
    the work each row does alone. ``fn`` is called with ``arrays`` and
    then ``out`` (one array or a tuple of them), whole or on the same
    rows of each, and returns what it wrote into ``out``, in the same
    form; so does ``each``. Where ``rows.ahead`` is false (a whole pass on malloc)
    an output may be None, and ``fn`` lets numpy allocate it. A kernel
    calls ``rows.sync()`` before it reads what the work wrote over the
    whole batch.

    Whole, ``fn`` runs at once, a given block goes straight back and
    ``sync`` does nothing. Split, ``fn`` joins a queue, and ``sync`` runs
    the queue in order on each batch half, rows ``[:b//2]`` on the worker
    thread and the rest here (``threads.both``), then gives back the
    blocks given since the last sync, which the queued work may have
    read. Takes, gives, sums and dropout draws stay on the calling
    thread, so the arena needs no lock and the worker allocates no
    whole-batch array.
    """

    def __init__(self, arena=T.MALLOC, b: int = 0, split: bool = False):
        self.arena, self.b, self.split = arena, b, split
        # false only for a whole pass on malloc, whose outputs numpy allocates
        self.ahead = bool(arena) or split
        self.take = arena.take
        if not split:
            self.give = arena.give
        self._queue: list = []
        self._given: list[np.ndarray] = []

    def each(self, fn, *arrays, out=()):
        # a method, not ``__call__``: calling an instance costs a tuple
        # and a dict per call, which a one-row tape-free pass would notice
        if not self.split:
            return fn(*arrays, *out) if type(out) is tuple else fn(*arrays, out)
        self._queue.append((fn, arrays + (out if type(out) is tuple else (out,))))
        return out

    def give(self, a: np.ndarray) -> None:
        self._given.append(a)

    def sync(self) -> None:
        if not self.split:
            return
        queue, self._queue = self._queue, []
        half = self.b // 2
        threads.both(self.b, *(partial(_run, queue, r)
                               for r in (slice(None, half), slice(half, None))))
        given, self._given = self._given, []
        for a in given:
            self.arena.give(a)


def _run(queue, r) -> None:
    """The queued per-row work on rows ``r`` of its arrays."""
    for fn, arrays in queue:
        fn(*[a[r] for a in arrays])


# the rows of a tape-free pass: whole, taking from malloc
_WHOLE = _Rows()


# ------------------------------------------------------------ kernels
#
# Each kernel takes arrays and returns its output and its backward: a
# function from the output gradient to a tuple of its array inputs'
# gradients. A kernel writes its output and its backward's input
# gradient, of its input's dtype, into blocks from ``rows.take`` (the
# dropout output from ``into``; the layer norm's output comes from
# malloc), and its caller gives them back once dead; the kernel gives
# back its own temporaries when it returns and the arrays it keeps for
# its backward once that has run. Kernels never write into their inputs
# or into the gradient they are handed. Every write to a whole-batch
# array is per-row work handed to ``rows.each``, whose functions name
# their arrays as the kernel does; a sum over the batch follows a
# ``rows.sync()``. A tape-free pass hands its forwards None outputs, so
# numpy allocates them and no block shape is built. An output that stays
# on malloc (a layer norm's output and scale, the softmax's row max and
# sum, gelu's tanh) is made with ``np.empty`` only where the pass is
# split, so that the worker allocates none.


def _linear(x, w, b=None, *, rows=_WHOLE):
    """``x @ w (+ b)`` over [B, S, n]. The weight gradient is the batched
    ``swapaxes(x) @ g`` summed over the batch, the bias one ``g`` summed
    over batch and positions."""
    def fwd(x, y):
        y = np.matmul(x, w, out=y)
        if b is not None:
            np.add(y, b, out=y)
        return y
    y = rows.each(fwd, x,
                  out=rows.take(x.shape[:-1] + w.shape[1:], x.dtype) if rows.ahead else None)

    def back(g):
        dx = rows.take(x.shape, g.dtype)
        prod = rows.take(x.shape[:-2] + (x.shape[-1], g.shape[-1]), g.dtype)

        def per_row(x, g, dx, prod):
            np.matmul(g, w.T, out=dx)
            np.matmul(np.swapaxes(x, -1, -2), g, out=prod)
        rows.each(per_row, x, g, dx, prod)
        rows.sync()
        grads = (dx, prod.sum(axis=0))
        rows.give(prod)
        return grads if b is None else grads + (g.sum(axis=(0, 1)),)
    return y, back


# Each activation owns its input ``v``: it gives it back once it no
# longer needs it.


def _relu(v, *, rows=_WHOLE):
    """``max(v, 0)``. The backward masks by the output's sign, which is
    the input's, so the pre-activation is given back at once."""
    y = rows.each(lambda v, y: np.maximum(v, 0.0, out=y), v,
             out=rows.take(v.shape, v.dtype) if rows.ahead else None)
    rows.give(v)

    def back(g):
        mask = rows.take(y.shape, bool)
        d = rows.take(g.shape, g.dtype)

        def per_row(y, g, mask, d):
            np.greater(y, 0.0, out=mask)
            np.multiply(g, mask, out=d)
        rows.each(per_row, y, g, mask, d)
        rows.give(mask)
        return (d,)
    return y, back


def _gelu(v, *, rows=_WHOLE):
    """Tanh approximation of the Gaussian error linear unit. It keeps its
    input and, from malloc, the tanh; each expression is formed one
    operation at a time, in Python's order, in scratch blocks."""
    def fwd(v, t, y, u):
        # t = tanh(c * (v + 0.044715 * v ** 3)); y = 0.5 * v * (1 + t)
        u = np.power(v, 3, out=u)
        np.multiply(0.044715, u, out=u)
        np.add(v, u, out=u)
        np.multiply(_GELU_C, u, out=u)
        t = np.tanh(u, out=t)
        np.multiply(0.5, v, out=u)
        y = np.add(1.0, t, out=y)
        np.multiply(u, y, out=y)
        return t, y, u
    t = np.empty(v.shape, v.dtype) if rows.split else None
    y, u = (rows.take(v.shape, v.dtype) for _ in range(2)) if rows.ahead else (None, None)
    t, y, u = rows.each(fwd, v, out=(t, y, u))
    rows.give(u)

    def back(g):
        d, u, w, z = (rows.take(g.shape, g.dtype) for _ in range(4))

        def per_row(v, t, g, d, u, w, z):
            # g * (0.5 * (1 + t) + 0.5 * v * (1 - t * t) * d_inner), with
            # d_inner = c * (1 + 3 * 0.044715 * v ** 2) in u
            np.square(v, out=u)
            np.multiply(3 * 0.044715, u, out=u)
            np.add(1.0, u, out=u)
            np.multiply(_GELU_C, u, out=u)
            np.add(1.0, t, out=z)
            np.multiply(0.5, z, out=z)
            np.multiply(0.5, v, out=w)
            np.multiply(t, t, out=d)
            np.subtract(1.0, d, out=d)
            np.multiply(w, d, out=w)
            np.multiply(w, u, out=w)
            np.add(z, w, out=z)
            np.multiply(g, z, out=d)
        rows.each(per_row, v, t, g, d, u, w, z)
        for a in (u, w, z, v):
            rows.give(a)
        return (d,)
    return y, back


_ACTIVATIONS = {"relu": _relu, "gelu": _gelu}


def _layer_norm(v, gain, bias, eps=1e-5, *, rows=_WHOLE):
    """Normalize the trailing axis to zero mean and unit variance (biased
    variance), then scale and shift. The output and the kept
    per-position scale come from malloc."""
    n = v.dtype.type(v.shape[-1])

    def mean(a):
        # np.mean's value bit for bit (its float64 quotient rounds to the
        # same float32), without its per-call Python overhead
        return np.add.reduce(a, axis=-1, keepdims=True) / n

    def fwd(v, xhat, sq, inv, y):
        xhat = np.subtract(v, mean(v), out=xhat)
        sq = np.multiply(xhat, xhat, out=sq)
        inv = np.divide(1.0, np.sqrt(mean(sq) + eps), out=inv)
        np.multiply(xhat, inv, out=xhat)
        y = np.multiply(xhat, gain, out=y)
        np.add(y, bias, out=y)
        return xhat, sq, inv, y
    xhat, sq = (rows.take(v.shape, v.dtype) for _ in range(2)) if rows.ahead else (None, None)
    inv, y = ((np.empty(v.shape[:-1] + (1,), v.dtype), np.empty(v.shape, v.dtype))
              if rows.split else (None, None))
    xhat, sq, inv, y = rows.each(fwd, v, out=(xhat, sq, inv, y))
    rows.give(sq)
    lead = tuple(range(v.ndim - 1))

    def back(g):
        dx, t = (rows.take(g.shape, g.dtype) for _ in range(2))

        def per_row(g, xhat, inv, dx, t):
            # inv * ((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat))
            np.multiply(g, gain, out=dx)
            np.multiply(dx, xhat, out=t)
            m_dot, m_dx = mean(t), mean(dx)
            np.multiply(xhat, m_dot, out=t)
            np.subtract(dx, m_dx, out=dx)
            np.subtract(dx, t, out=dx)
            np.multiply(inv, dx, out=dx)
            np.multiply(g, xhat, out=t)  # the gain's gradient, before its sum
        rows.each(per_row, g, xhat, inv, dx, t)
        rows.sync()
        d_gain = t.sum(axis=lead)
        rows.give(t)
        rows.give(xhat)
        return dx, d_gain, g.sum(axis=lead)
    return y, back


def _scores(q, kt, scale, neg, out):
    """``(q @ kt) * scale + neg``, the masked attention scores, into ``out``."""
    out = np.matmul(q, kt, out=out)
    np.multiply(out, scale, out=out)
    return np.add(out, neg, out=out)


def _softmax_rows(p, top=None, total=None):
    """Softmax over the trailing axis of ``p``, in place; returns the
    per-row max and sum it was formed with, written into ``top`` and
    ``total`` where they are given."""
    # the reductions of ``p.max`` and ``p.sum``, without their Python wrappers
    top = np.maximum.reduce(p, axis=-1, keepdims=True, out=top)
    np.subtract(p, top, out=p)
    np.exp(p, out=p)
    total = np.add.reduce(p, axis=-1, keepdims=True, out=total)
    np.divide(p, total, out=p)
    return top, total


def _softmax_back(p, g, *, rows=_WHOLE):
    """The softmax's input gradient from its weights ``p`` and output
    gradient ``g``, written over ``g``."""
    gp = rows.take(g.shape, g.dtype)

    def per_row(p, g, gp):
        np.multiply(g, p, out=gp)
        np.subtract(g, np.add.reduce(gp, axis=-1, keepdims=True), out=g)
        np.multiply(g, p, out=g)
    rows.each(per_row, p, g, gp)
    rows.give(gp)
    return g


def _masked_softmax(v, neg):
    """Softmax over the trailing axis after adding ``neg``, 0 at live and
    -inf at masked positions, broadcasting to ``v`` (a [B, 1, 1, S] key
    mask serves [B, nh, S, S] scores). Masked positions of finite scores
    get probability exactly 0 and zero gradient; the caller ensures each
    row has a live position."""
    p = v + neg
    _softmax_rows(p)
    return p, lambda g: (_softmax_back(p, g.copy()),)


def _dropout(v, rate, rng, *, rows=_WHOLE, into=T.MALLOC):
    """Inverted dropout: zero with probability ``rate``, scale survivors
    by 1/(1-rate). Without an ``rng``, or at rate 0, it is the identity:
    it returns ``v`` and the gradient it is handed, and draws nothing.
    The draw is one ``rng.random`` over the whole shape, on the calling
    thread. The backward keeps only the boolean draw, one byte an
    element, and rebuilds the same scaled mask from it."""
    if rng is None or rate == 0.0:
        return v, lambda g: (g,)
    draw = rng.random(v.shape, out=rows.take(v.shape, np.float64))
    keep = rows.take(v.shape, bool)
    rows.each(lambda draw, keep: np.greater_equal(draw, rate, out=keep), draw, keep)
    rows.give(draw)

    def scaled(a, keep, out):
        # a * (keep.astype(dtype) * (1 / (1 - rate))), into ``out``
        np.multiply(keep, 1.0 / (1.0 - rate), out=out, dtype=v.dtype)
        np.multiply(a, out, out=out)

    def back(g):
        d = rows.take(g.shape, g.dtype)
        rows.each(scaled, g, keep, d)
        rows.give(keep)
        return (d,)
    y = into.take(v.shape, v.dtype)
    rows.each(scaled, v, keep, y)
    return y, back


def _copy(a, out):
    """``a`` copied into ``out``, or into a new C-ordered array where
    ``out`` is None."""
    if out is None:
        return a.copy()
    out[...] = a
    return out


def _scatter(table_grad, ids, g) -> None:
    """``np.add.at(table_grad, ids, g)`` for [V, d] ``table_grad``, [B, S]
    ``ids`` and [B, S, d] ``g``, as one 1-D ``np.add.at`` per column:
    every element gets the same additions in the same order."""
    flat_ids, flat = ids.reshape(-1), g.reshape(-1, g.shape[-1])
    for j in range(flat.shape[1]):
        np.add.at(table_grad[:, j], flat_ids, flat[:, j])


# ------------------------------------------------------------- blocks
#
# Each block takes its temporaries and kept arrays from ``rows`` and
# returns its output from malloc. Its backward gives back the gradient
# it is handed, which the next block's backward took from the same
# arena, and returns its input gradient from the arena. The attention
# and FFN blocks sync their rows before their forward and backward
# return, so that what they return is written.


def _embedding(tok, pos, seg, gain, bias, ids, segs, rate, rng, *, rows=_WHOLE):
    """Token + position + segment rows of [B, S] ``ids``, layer-normed,
    then dropout. Table gradients scatter with accumulation at repeats."""
    shape, dtype = ids.shape + tok.shape[1:], tok.dtype
    # clip never applies: embed checks the ids
    v = tok.take(ids, axis=0, out=rows.take(shape, dtype) if rows.ahead else None,
                 mode="clip")
    np.add(v, pos[:ids.shape[1]], out=v)
    seg_rows = seg.take(segs, axis=0, out=rows.take(shape, dtype) if rows.ahead else None,
                        mode="clip")
    np.add(v, seg_rows, out=v)
    rows.give(seg_rows)
    y, ln_back = _layer_norm(v, gain, bias, rows=rows)
    rows.give(v)
    out, drop_back = _dropout(y, rate, rng, rows=rows)

    def back(g):
        (dy,) = drop_back(g)
        dx, d_gain, d_bias = ln_back(dy)
        if dy is not g:
            rows.give(dy)
        rows.give(g)
        d_tok, d_pos, d_seg = (np.zeros_like(t) for t in (tok, pos, seg))
        _scatter(d_tok, ids, dx)
        # each row holds every position once, so this gradient is a sum
        # over the batch; added to 0.0 as a scatter's is, a -0.0 sum is +0.0
        d_pos[:ids.shape[1]] += dx.sum(axis=0)
        _scatter(d_seg, segs, dx)
        rows.give(dx)
        return d_tok, d_pos, d_seg, d_gain, d_bias
    return out, back


def _sublayer_out(x, o, gain, bias, rate, rng, rows):
    """Dropout of the sublayer output ``o`` (given back), the residual
    ``x + o`` and its layer norm: the block output and a backward from
    its gradient to the residual's and the norm's."""
    od, drop_back = _dropout(o, rate, rng, rows=rows, into=rows)
    res = rows.each(lambda x, od, res: np.add(x, od, out=res), x, od,
                    out=rows.take(x.shape, x.dtype) if rows.ahead else None)
    if od is not o:
        rows.give(od)
    rows.give(o)
    y, ln_back = _layer_norm(res, gain, bias, rows=rows)
    rows.give(res)

    def back(g):
        d_res, d_gain, d_bias = ln_back(g)
        rows.give(g)
        (d_o,) = drop_back(d_res)
        return d_res, d_o, d_gain, d_bias
    return y, back


def _attention(x, wq, bq, wk, wv, bv, wo, bo, gain, bias, neg, n_heads, maps,
               rate, rng, *, rows=_WHOLE):
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
        out = rows.each(_copy, a.transpose(0, 2, 1, 3),
                        out=rows.take(split, dtype) if rows.ahead else None)
        rows.give(a)
        return out.reshape(b, s, d)

    def head_product(a, c):
        return rows.each(lambda a, c, out: np.matmul(a, c, out=out), a, c,
                         out=(rows.take(a.shape[:-1] + c.shape[-1:], dtype) if rows.ahead
                              else None))

    (q2, q_back), (k2, k_back), (v2, v_back) = (
        _linear(x, wq, bq, rows=rows), _linear(x, wk, rows=rows),
        _linear(x, wv, bv, rows=rows))
    q, k, v = heads(q2), heads(k2), heads(v2)
    kt = k.transpose(0, 1, 3, 2)

    def weights(q, kt, neg, p, top, total):
        p = _scores(q, kt, scale, neg, p)
        return (p, *_softmax_rows(p, top, total))
    # maps are handed out only by tape-free passes, where numpy allocates p
    p = rows.take((b, n_heads, s, s), dtype) if rows.ahead else None
    top, total = ((np.empty((b, n_heads, s, 1), dtype) for _ in range(2)) if rows.split
                  else (None, None))
    p, top, total = rows.each(weights, q, kt, neg, out=(p, top, total))
    ctx = merge(head_product(p, v))
    if maps is None:
        rows.give(p)
    o, o_back = _linear(ctx, wo, bo, rows=rows)
    y, out_back = _sublayer_out(x, o, gain, bias, rate, rng, rows)
    rows.sync()
    if maps is not None:
        # handed out uncopied: keep them unwritten
        p.flags.writeable = False
        maps.append(p)

    def back(g):
        d_res, d_o, d_gain, d_bias = out_back(g)
        d_ctx, d_wo, d_bo = o_back(d_o)
        if d_o is not d_res:
            rows.give(d_o)
        rows.give(ctx)
        d_heads = np.transpose(d_ctx.reshape(split), (0, 2, 1, 3))
        p = rows.take((b, n_heads, s, s), dtype)

        def weights(q, kt, neg, top, total, p):
            # the forward's operations in its order
            _scores(q, kt, scale, neg, p)
            np.subtract(p, top, out=p)
            np.divide(np.exp(p, out=p), total, out=p)
        rows.each(weights, q, kt, neg, top, total, p)
        d_scores = _softmax_back(p, head_product(d_heads, np.swapaxes(v, -1, -2)), rows=rows)
        rows.each(lambda a: np.multiply(a, scale, out=a), d_scores)
        d_v = merge(head_product(np.swapaxes(p, -1, -2), d_heads))
        for a in (p, d_ctx):
            rows.give(a)
        dx_v, d_wv, d_bv = v_back(d_v)
        d_k = merge(np.transpose(head_product(np.swapaxes(q, -1, -2), d_scores), (0, 1, 3, 2)))
        dx_k, d_wk = k_back(d_k)
        d_q = merge(head_product(d_scores, np.swapaxes(kt, -1, -2)))
        dx_q, d_wq, d_bq = q_back(d_q)
        for a in (d_v, d_k, d_q, d_scores, q2, k2, v2):
            rows.give(a)

        def add_inputs(d_res, *dxs):
            # x feeds q, k, v and the residual: add in reverse order of use
            for dx in dxs:
                np.add(d_res, dx, out=d_res)
        rows.each(add_inputs, d_res, dx_v, dx_k, dx_q)
        for dx in (dx_v, dx_k, dx_q):
            rows.give(dx)
        rows.sync()
        return (d_res, d_wq, d_bq, d_wk, d_wv, d_bv, d_wo, d_bo, d_gain, d_bias)
    return y, back


def _ffn(x, w1, b1, w2, b2, gain, bias, activation, rate, rng, *, rows=_WHOLE):
    """Position-wise feed-forward over [B, S, d] ``x``: linear,
    ``activation``, linear, dropout, residual and layer norm."""
    h, h_back = _linear(x, w1, b1, rows=rows)
    a, act_back = _ACTIVATIONS[activation](h, rows=rows)
    o, o_back = _linear(a, w2, b2, rows=rows)
    y, out_back = _sublayer_out(x, o, gain, bias, rate, rng, rows)
    rows.sync()

    def back(g):
        d_res, d_o, d_gain, d_bias = out_back(g)
        d_a, d_w2, d_b2 = o_back(d_o)
        if d_o is not d_res:
            rows.give(d_o)
        (d_h,) = act_back(d_a)
        rows.give(d_a)
        rows.give(a)
        dx, d_w1, d_b1 = h_back(d_h)
        rows.give(d_h)
        rows.each(lambda d_res, dx: np.add(d_res, dx, out=d_res), d_res, dx)
        rows.give(dx)
        rows.sync()
        return d_res, d_w1, d_b1, d_w2, d_b2, d_gain, d_bias
    return y, back


def _block(fn, inputs, *args, halves: bool = False):
    """Run block ``fn`` on the arrays of ``inputs``, Tensors or bare
    arrays, then ``args``. Where a tape records an input, the result is
    one tape op with ``fn``'s backward, and the block takes from the
    tape's arena; with ``halves``, its per-row work runs on two batch
    halves when ``threads.threaded`` allows for its first input's rows.
    Otherwise the result is the bare array, taken from malloc."""
    record = T._recording(t for t in inputs if isinstance(t, Tensor))
    arrays = [t.data if isinstance(t, Tensor) else t for t in inputs]
    if record:
        b = arrays[0].shape[0]
        rows = _Rows(T._active_tape().arena, b, halves and threads.threaded(b))
    else:
        rows = _WHOLE
    out, back = fn(*arrays, *args, rows=rows)
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
                   neg, cfg.n_heads, maps, cfg.dropout_rate, rng, halves=True)
        x = _block(_ffn, [x, *(params[pre + name] for name in _FFN)],
                   cfg.activation, cfg.dropout_rate, rng, halves=True)
    return EncoderOutput(hidden=x if isinstance(x, Tensor) else Tensor(x),
                         attentions=maps or [])
