"""Dense tensors with tape-based reverse-mode differentiation.

Values are numpy arrays, float32 by default; every op preserves the dtype
of its inputs, so whole graphs can run at float64 for verification against
reference implementations. Ops record onto the innermost active ``Tape``
(a context manager). ``backward(tape, loss)`` runs the tape in reverse,
once, and accumulates gradients into the ``.grad`` of leaf tensors that
have ``requires_grad=True``; intermediate gradients live in a transient
dict owned by the call. Gradients accumulate across calls until
``zero_grad``.

There is no implicit broadcasting: ``matmul``'s shared 2-D operand is
the one broadcast, and its gradient sums over the batch axes, so every
backward rule stays auditable.

The module holds 3 primitives: ``matmul`` and ``reshape``, the span
head's ops, and ``sum_all``, the scalar reducer that gradient checks end
in. Each encoder block, the recurrent layer and the span loss is a
hand-written op of its own module, built on ``_make`` over array kernels.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

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

    The call consumes the tape: it takes each record off the tape, drops
    the record's output before calling its backward and the record, with
    its closure and inputs, once its gradients are added, so each op's
    saved arrays die as soon as its gradient is taken. A second call on
    the tape raises ``ContractError``; ``len(tape)`` read before the call
    is the number of records. A gradient lives only until its record has
    run: each record's output gradient leaves the pass's dict when its
    backward is called, and the input gradients it returns are dropped
    once added.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
    if id(loss) not in tape._produced:
        raise ContractError("loss was not produced on this tape, or the tape "
                            "was already run backward")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    records, produced = tape._records, tape._produced
    while records:
        rec = records.pop()
        # a released output's id leaves the set: the id of a freed object
        # can be reused, and only live outputs may key the gradient dict
        key = id(rec.output)
        produced.discard(key)
        rec.output = None
        if key in grads:
            # popped into the call, so the record's backward holds the
            # only reference and can drop it once read
            for t, ig in zip(rec.inputs, rec.backward(grads.pop(key))):
                if ig is None or not t.requires_grad:
                    continue
                if id(t) in produced:
                    prev = grads.get(id(t))
                    grads[id(t)] = ig if prev is None else prev + ig
                else:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += ig
        # the record, its closure and inputs, and its gradients die here
        rec = t = ig = prev = None


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


def _sum_leading(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")
    return g


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


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.shape
    out = np.reshape(x.data, shape)
    def bwd(g):
        return (np.reshape(g, old),)
    return _make((x,), out, bwd)


def sum_all(x: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor of ``x``'s dtype."""
    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)
    return _make((x,), np.asarray(x.data.sum(), dtype=x.dtype), bwd)

