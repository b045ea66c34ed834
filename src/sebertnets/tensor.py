"""Dense tensors with tape-based reverse-mode differentiation, and the
arena a recorded pass takes its large arrays from.

Values are numpy arrays, float32 by default; every op preserves the dtype
of its inputs, so whole graphs can run at float64 for verification against
reference implementations. Ops record onto the innermost active ``Tape``
(a context manager). ``backward(tape, loss)`` runs the tape in reverse,
once, and accumulates gradients into the ``.grad`` of leaf tensors that
have ``requires_grad=True``; intermediate gradients live in a transient
dict owned by the call. Gradients accumulate across calls until
``zero_grad``.

The module holds one primitive, ``sum_all``, the scalar reducer that
gradient checks end in. Each encoder block, the recurrent layer, the span
head and the span loss is a hand-written op of its own module, built on
``_make`` over array kernels.

While a model's pass records onto a tape, the tape holds the model's
``Arena`` (``Tape.arena``): the ops of that pass take their whole-batch
temporaries, kept activations and inter-op gradients from it and give
each back at its known death, and ``backward`` calls the tape's
``give_back`` once the tape is consumed. Every other op, recorded or
not, takes from ``MALLOC``, which allocates and frees as numpy does.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError

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


class Arena:
    """Reusable memory for the large arrays of one recorded pass at a time.

    Chunks of at least ``CHUNK`` bytes are carved by address-ordered
    first fit into blocks aligned to ``ALIGN`` bytes. ``take`` returns a
    C-contiguous view of a free block; ``give`` finds a block by its
    data address (not by ``id()``, which a freed view's successor can
    reuse) and merges it with its free neighbours. A chunk is added when
    no free block fits, so a pass that repeats an earlier pass's takes and
    gives reuses its blocks and reserves nothing new. Views keep their
    chunk alive, so dropping an arena with blocks still taken is safe.

    ``CHUNK`` is 32 MiB, glibc's cap on its dynamic mmap threshold, so
    malloc maps each chunk alone and unmaps it whole. A smaller chunk,
    once glibc has seen one freed, comes from the heap, where a dropped
    arena leaves holes that the next one may not fit in.
    """

    CHUNK = 32 << 20
    ALIGN = 64

    def __init__(self):
        # per chunk: its byte buffer and its free [start, end) offsets in
        # address order
        self._chunks: list[tuple[np.ndarray, list[list[int]]]] = []
        self._taken: dict[int, tuple[int, int, int]] = {}  # address -> chunk, start, end
        self.taken_bytes = 0
        self.high_water = 0

    @property
    def reserved_bytes(self) -> int:
        return sum(buf.size for buf, _ in self._chunks)

    def take(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        size = max(self.ALIGN, -(-nbytes // self.ALIGN) * self.ALIGN)
        for ci, (buf, free) in enumerate(self._chunks):
            j = next((j for j, (lo, hi) in enumerate(free) if hi - lo >= size), None)
            if j is not None:
                break
        else:
            ci, buf = len(self._chunks), np.empty(max(self.CHUNK, size) + self.ALIGN,
                                                  np.uint8)
            lo = -buf.__array_interface__["data"][0] % self.ALIGN
            free, j = [[lo, lo + (buf.size - self.ALIGN)]], 0
            self._chunks.append((buf, free))
        start = free[j][0]
        if free[j][1] - start == size:
            del free[j]
        else:
            free[j][0] += size
        view = buf[start:start + nbytes].view(dtype).reshape(shape)
        self._taken[view.__array_interface__["data"][0]] = (ci, start, start + size)
        self.taken_bytes += size
        self.high_water = max(self.high_water, self.taken_bytes)
        return view

    def give(self, a: np.ndarray) -> None:
        ci, lo, hi = self._taken.pop(a.__array_interface__["data"][0])
        self.taken_bytes -= hi - lo
        free = self._chunks[ci][1]
        j = next((j for j, (start, _) in enumerate(free) if start > lo), len(free))
        if j < len(free) and free[j][0] == hi:
            hi = free.pop(j)[1]
        if j and free[j - 1][1] == lo:
            free[j - 1][1] = hi
        else:
            free.insert(j, [lo, hi])


class _Malloc:
    """The arena of a pass that has none: ``take`` allocates and ``give``
    leaves the array to numpy. It is falsy, so a kernel passes
    ``out=arena.take(shape, dtype) if arena else None`` to a ufunc, which
    then allocates its own output, and builds no shape for it."""

    take = staticmethod(np.empty)

    def __bool__(self) -> bool:
        return False

    @staticmethod
    def give(a: np.ndarray) -> None:
        pass


MALLOC = _Malloc()


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

    ``arena`` is what the ops recorded now take from: a model's
    ``Arena`` while that model's pass records, else ``MALLOC``.
    ``give_back``, set by the model that lent an arena, is called once
    ``backward`` has run every record.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._produced: set[int] = set()
        self.arena = MALLOC
        self.give_back: Callable[[], None] | None = None

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


def _recording(inputs: Iterable[Tensor]) -> bool:
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
    once added. Once the last record has run, no block of an arena lent
    to the tape is taken, and the tape's ``give_back`` is called.
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
    if tape.give_back is not None:
        tape.give_back()


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


def sum_all(x: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor of ``x``'s dtype."""
    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)
    return _make((x,), np.asarray(x.data.sum(), dtype=x.dtype), bwd)

