"""Dense tensors with tape-based reverse-mode differentiation.

Values are numpy arrays, float32 by default; every op preserves the dtype
of its inputs, so whole graphs can run at float64 for verification against
reference implementations. Ops record onto the innermost active ``Tape``
(a context manager). ``backward(tape, loss)`` replays the tape in reverse
and accumulates gradients into the ``.grad`` of leaf tensors that have
``requires_grad=True``; intermediate gradients live in a transient dict
owned by the call. Gradients accumulate across calls until ``zero_grad``.

There is no implicit broadcasting: binary ops take equal shapes or a
scalar operand, and ``add_bias`` is the one explicit trailing-axis
broadcast, so every backward rule stays auditable. (The boolean mask of
``masked_softmax`` may broadcast; it carries no gradient.)

The module holds 13 primitives: the twelve ops a model runs (``add``,
``mul``, ``add_bias``, ``matmul``, ``relu``, ``gelu``, ``reshape``,
``transpose``, ``embedding_lookup``, ``layer_norm``, ``masked_softmax``
and ``dropout``) and ``sum_all``, the scalar reducer that gradient checks
end in. The recurrent layer and the span loss are hand-written ops of
their own modules, built on ``_make``.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateMaskError, ShapeError

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.float32, np.float64)
# the constant init rules of a parameter layout
_FILLS = {"zeros": 0.0, "ones": 1.0}


class Tensor:
    """A numpy array plus gradient metadata.

    ``data`` is the value, always a float32 or float64 ndarray. ``grad``
    starts as None and is allocated on first accumulation. Tensors are
    leaves unless produced by an op while a tape is active.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            # np.generic covers 0-d results like np.float64 scalars
            if isinstance(data, (np.ndarray, np.generic)) and data.dtype in _FLOAT_DTYPES:
                dtype = data.dtype
            elif isinstance(data, Tensor):
                dtype = data.data.dtype
            else:
                dtype = DEFAULT_DTYPE
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class _Record:
    """One op on the tape: inputs, output, and the vjp closure."""

    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor,
                 backward: Callable[[np.ndarray], tuple]):
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of ops for one reverse pass.

    Use as a context manager; ops executed inside record themselves when
    any input requires grad. Tapes nest, with the innermost one active.
    Distinct tapes on distinct threads share no state.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _STACKS.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _STACKS.stack.pop()
        if popped is not self:
            raise ContractError("tape contexts exited out of order")

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, rec: _Record) -> None:
        self._records.append(rec)
        self._produced.add(id(rec.output))


class _TapeStacks(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []


_STACKS = _TapeStacks()


def _active_tape() -> Tape | None:
    stack = _STACKS.stack
    return stack[-1] if stack else None


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over ``inputs`` made now goes on a tape."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def _make(inputs: tuple[Tensor, ...], out_data: np.ndarray,
          backward: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if _recording(inputs):
        _active_tape()._record(_Record(inputs, out, backward))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d loss / d leaf into each leaf's ``.grad``.

    ``loss`` must be a single-element tensor produced on ``tape``. The seed
    gradient is 1. Leaves with ``requires_grad=False`` are skipped.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
    if id(loss) not in tape._produced:
        raise ContractError("loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    produced = tape._produced
    for rec in reversed(tape._records):
        g = grads.get(id(rec.output))
        if g is None:
            continue
        input_grads = rec.backward(g)
        for t, ig in zip(rec.inputs, input_grads):
            if ig is None or not t.requires_grad:
                continue
            if id(t) in produced:
                prev = grads.get(id(t))
                grads[id(t)] = ig if prev is None else prev + ig
            else:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += ig


def zero_grads(params) -> None:
    """Clear ``.grad`` on every tensor in an iterable or name->Tensor dict."""
    values = params.values() if hasattr(params, "values") else params
    for t in values:
        t.zero_grad()


def draw(layout, rng: np.random.Generator, dtype=DEFAULT_DTYPE) -> dict[str, Tensor]:
    """Fresh trainable Tensors for a parameter layout: an iterable of
    (name, shape, init) entries, drawn in order. ``init`` is "zeros" or
    "ones", or a bound b for uniform values in [-b, b] from ``rng``."""
    return {name: Tensor(np.full(shape, _FILLS[init], dtype) if init in _FILLS
                         else rng.uniform(-init, init, shape).astype(dtype),
                         requires_grad=True)
            for name, shape, init in layout}


def _binary_shapes_ok(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is a scalar")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (used for scalar and bias operands)."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if math.prod(shape) == 1 else _sum_leading(g, shape)


def _sum_leading(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes_ok(a, b, "add")
    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)
    return _make((a, b), a.data + b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes_ok(a, b, "mul")
    va, vb = a.data, b.data
    def bwd(g):
        # a constant operand, such as a scale, costs no product or sum
        return (_reduce_to(g * vb, a.shape) if a.requires_grad else None,
                _reduce_to(g * va, b.shape) if b.requires_grad else None)
    return _make((a, b), va * vb, bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """``x + b`` where ``b`` is a vector added along the trailing axis.

    The one sanctioned broadcast: per-element arithmetic is identical to an
    equal-shape add, so batched layers stay bit-compatible with their
    per-vector references.
    """
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not fit trailing axis of {x.shape}")
    def bwd(g):
        return g, _sum_leading(g, b.shape)
    return _make((x, b), x.data + b.data, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2-D x 2-D, or batched with leading axes; a 2-D
    operand against a batched one is shared across the batch and its
    gradient sums over the leading axes."""
    va, vb = a.data, b.data
    if va.ndim < 2 or vb.ndim < 2:
        raise ShapeError(f"matmul: unsupported ranks {va.shape} @ {vb.shape}")
    if va.shape[-1] != vb.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions of {va.shape} and {vb.shape} do not match")
    def bwd(g):
        ga = g @ np.swapaxes(vb, -1, -2)
        gb = np.swapaxes(va, -1, -2) @ g
        return _sum_leading(ga, va.shape), _sum_leading(gb, vb.shape)
    return _make((a, b), va @ vb, bwd)


def relu(x: Tensor) -> Tensor:
    v = x.data
    out = np.maximum(v, 0.0)
    def bwd(g):
        return (g * (v > 0.0),)
    return _make((x,), out, bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of the Gaussian error linear unit."""
    v = x.data
    inner = _GELU_C * (v + 0.044715 * v ** 3)
    t = np.tanh(inner)
    out = 0.5 * v * (1.0 + t)
    def bwd(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * v ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * d_inner),)
    return _make((x,), out, bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.shape
    out = np.reshape(x.data, shape)
    def bwd(g):
        return (np.reshape(g, old),)
    return _make((x,), out, bwd)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    def bwd(g):
        return (np.transpose(g, inverse),)
    return _make((x,), np.transpose(x.data, axes), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id array; gradient scatters
    with accumulation at repeated ids."""
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"embedding ids must be integers, got dtype {idx.dtype}")
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got shape {table.shape}")
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"embedding id out of range [0, {n}): min {idx.min()}, max {idx.max()}")
    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)
    return _make((table,), table.data[idx], bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean and unit variance (biased
    variance), then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} "
                         f"do not fit trailing axis of {x.shape}")
    v = x.data
    mu = v.mean(axis=-1, keepdims=True)
    xc = v - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    def bwd(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        lead = tuple(range(v.ndim - 1))
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)
    return _make((x, gain, bias), out, bwd)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax over the trailing axis restricted to ``mask``, a boolean
    array of the same rank that broadcasts to the logits with the same
    trailing size (a [B, 1, 1, S] key mask serves [B, nh, S, S] scores).
    The mask enters as an additive 0/-inf term, so masked positions of
    finite logits get probability exactly 0 and receive zero gradient. A
    row of the mask with no live position is an error."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != logits.ndim or m.shape[-1:] != logits.shape[-1:] or any(
            a not in (1, n) for a, n in zip(m.shape, logits.shape)):
        raise ShapeError(f"masked_softmax: mask {m.shape} does not broadcast to "
                         f"logits {logits.shape}")
    if not m.any(axis=-1).all():
        raise DegenerateMaskError("masked_softmax: a row has no unmasked position")
    zero, neg_inf = logits.dtype.type(0), logits.dtype.type(-np.inf)
    v = logits.data + np.where(m, zero, neg_inf)
    # out of place: computing in place frees fewer large temporaries, and
    # glibc then maps each big training array afresh (2x the page faults)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    def bwd(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)
    return _make((logits,), p, bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors
    by 1/(1-rate). Call only in training; rate 0 is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) * (1.0 / (1.0 - rate))
    def bwd(g):
        return (g * keep,)
    return _make((x,), x.data * keep, bwd)


def sum_all(x: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor of ``x``'s dtype."""
    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)
    return _make((x,), np.asarray(x.data.sum(), dtype=x.dtype), bwd)

