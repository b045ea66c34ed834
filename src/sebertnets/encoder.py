"""Transformer encoder over char tokens: learned token/position/segment
embeddings, multi-head self-attention with padding-key masking, and a
position-wise feed-forward block, each followed by residual + layer norm.

Trained from scratch on the span objective; there is no pretraining.
Attention weights of every layer and head are captured for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor

_ACTIVATIONS = {"relu": T.relu, "gelu": T.gelu}
N_SEGMENTS = 2


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
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.activation not in _ACTIVATIONS:
            raise ContractError(f"activation must be one of {sorted(_ACTIVATIONS)}, "
                                f"got {self.activation!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class EncoderOutput:
    """``hidden``: contextual representation per position. ``attentions``:
    one [B, n_heads, S, S] array per layer (detached weights)."""
    hidden: Tensor
    attentions: list[np.ndarray] = field(default_factory=list)


def _uniform(rng, shape, bound, dtype):
    return Tensor(rng.uniform(-bound, bound, shape).astype(dtype), requires_grad=True)


def _linear_init(rng, fan_in, fan_out, dtype):
    return _uniform(rng, (fan_in, fan_out), 1.0 / math.sqrt(fan_in), dtype)


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator,
                        dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameter dict: embeddings uniform in [-0.05, 0.05], linear
    maps fan-in scaled uniform, biases zero, layer-norm gain one."""
    d = cfg.d_model
    p: dict[str, Tensor] = {
        "tok_emb": _uniform(rng, (cfg.vocab_size, d), 0.05, dtype),
        "pos_emb": _uniform(rng, (cfg.max_len, d), 0.05, dtype),
        "seg_emb": _uniform(rng, (N_SEGMENTS, d), 0.05, dtype),
        "emb_ln.gain": Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        "emb_ln.bias": Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
    }
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        for name in ("wq", "wk", "wv", "wo"):
            p[pre + "attn." + name] = _linear_init(rng, d, d, dtype)
            p[pre + "attn.b" + name[1]] = Tensor(np.zeros(d, dtype=dtype),
                                                 requires_grad=True)
        p[pre + "attn_ln.gain"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        p[pre + "attn_ln.bias"] = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        p[pre + "ffn.w1"] = _linear_init(rng, d, cfg.d_ff, dtype)
        p[pre + "ffn.b1"] = Tensor(np.zeros(cfg.d_ff, dtype=dtype), requires_grad=True)
        p[pre + "ffn.w2"] = _linear_init(rng, cfg.d_ff, d, dtype)
        p[pre + "ffn.b2"] = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        p[pre + "ffn_ln.gain"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        p[pre + "ffn_ln.bias"] = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
    return p


def _check_train_args(cfg, train, rng):
    if train and cfg.dropout_rate > 0.0 and rng is None:
        raise ContractError("training with dropout needs an rng")


def embed(token_ids, segment_ids, params: dict[str, Tensor], cfg: EncoderConfig,
          *, train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Token + learned position + segment embedding, layer-normed.
    Inputs are [B, S] integer arrays."""
    _check_train_args(cfg, train, rng)
    ids = np.asarray(token_ids)
    segs = np.asarray(segment_ids)
    if ids.ndim != 2 or segs.shape != ids.shape:
        raise ShapeError(f"token ids {ids.shape} and segment ids {segs.shape} "
                         f"must be equal 2-D shapes")
    b, s = ids.shape
    if s > cfg.max_len:
        raise ShapeError(f"sequence length {s} exceeds max_len {cfg.max_len}")
    positions = np.broadcast_to(np.arange(s), (b, s))
    x = T.add(T.add(T.embedding_lookup(params["tok_emb"], ids),
                    T.embedding_lookup(params["pos_emb"], positions)),
              T.embedding_lookup(params["seg_emb"], segs))
    x = T.layer_norm(x, params["emb_ln.gain"], params["emb_ln.bias"])
    if train and cfg.dropout_rate > 0.0:
        x = T.dropout(x, cfg.dropout_rate, rng)
    return x


def _attention(x: Tensor, mask: np.ndarray, params, pre: str, cfg: EncoderConfig):
    b, s, d = x.shape
    nh, dh = cfg.n_heads, cfg.d_head

    def heads(name):
        proj = T.add_bias(T.matmul(x, params[pre + "attn.w" + name]),
                          params[pre + "attn.b" + name])
        return T.transpose(T.reshape(proj, (b, s, nh, dh)), (0, 2, 1, 3))

    q, k, v = heads("q"), heads("k"), heads("v")
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    key_mask = np.broadcast_to(mask[:, None, None, :], (b, nh, s, s))
    probs = T.masked_softmax(scores, key_mask)
    ctx = T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), (b, s, d))
    out = T.add_bias(T.matmul(ctx, params[pre + "attn.wo"]), params[pre + "attn.bo"])
    return out, probs.data.copy()


def encode(token_ids, segment_ids, attention_mask, params: dict[str, Tensor],
           cfg: EncoderConfig, *, train: bool = False,
           rng: np.random.Generator | None = None) -> EncoderOutput:
    """Full encoder pass over a batch. ``attention_mask`` is [B, S] bool;
    padded positions are excluded as attention keys, so real positions
    are unaffected by padding."""
    _check_train_args(cfg, train, rng)
    mask = np.asarray(attention_mask, dtype=bool)
    x = embed(token_ids, segment_ids, params, cfg, train=train, rng=rng)
    if mask.shape != x.shape[:2]:
        raise ShapeError(f"attention mask {mask.shape} does not match ids {x.shape[:2]}")
    act = _ACTIVATIONS[cfg.activation]
    drop = cfg.dropout_rate
    attentions: list[np.ndarray] = []
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        attn_out, weights = _attention(x, mask, params, pre, cfg)
        attentions.append(weights)
        if train and drop > 0.0:
            attn_out = T.dropout(attn_out, drop, rng)
        x = T.layer_norm(T.add(x, attn_out),
                         params[pre + "attn_ln.gain"], params[pre + "attn_ln.bias"])
        ff = T.add_bias(T.matmul(act(T.add_bias(T.matmul(x, params[pre + "ffn.w1"]),
                                                params[pre + "ffn.b1"])),
                                 params[pre + "ffn.w2"]),
                        params[pre + "ffn.b2"])
        if train and drop > 0.0:
            ff = T.dropout(ff, drop, rng)
        x = T.layer_norm(T.add(x, ff),
                         params[pre + "ffn_ln.gain"], params[pre + "ffn_ln.bias"])
    return EncoderOutput(hidden=x, attentions=attentions)
