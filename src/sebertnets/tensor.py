"""Dense tensors, the arena a recorded pass takes its large arrays from,
and the chain of stages a recorded pass appends to.

Values are numpy arrays, float32 by default; every stage preserves the
dtype of its inputs, so whole passes can run at float64 for verification
against reference implementations.

A training pass is a fixed chain of stages, the layer list of Jia et
al. (2014, "Caffe"): the encoder's embedding, attention and feed-forward
blocks, the recurrent layer, the span head and the span loss. Each stage
is an array function of its own module that returns its output and its
hand-written backward. Called with a ``Chain``, a stage appends one entry
to it: its name, its backward and the names of its parameters. Without
one the pass is tape-free: the stage runs the same arrays and records
nothing. ``backward`` runs the entries last to first, hands each stage's
input gradient to the stage before it, and writes every parameter
gradient into one name -> array dict.

A chain holds the ``Arena`` its stages take from (``Chain.arena``): their
whole-batch temporaries, kept activations and inter-stage gradients,
each going back to it when its last view dies. A model lends its arena
to the chain of one training step; any other chain holds ``MALLOC``
unless it is given an arena. ``MALLOC`` allocates and frees as numpy
does, and every tape-free pass takes from it.
"""

from __future__ import annotations

import collections
import math

import numpy as np

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.float32, np.float64)
# the constant init rules of a parameter layout
_FILLS = {"zeros": 0.0, "ones": 1.0}


class Tensor:
    """A float32 or float64 ndarray, ``data``: a parameter, whose array an
    optimizer step may replace, or the output of a stage. Other input is
    converted to ``DEFAULT_DTYPE``."""

    __slots__ = ("data",)

    def __init__(self, data):
        # np.generic covers 0-d results like np.float64 scalars
        floating = isinstance(data, (np.ndarray, np.generic)) and data.dtype in _FLOAT_DTYPES
        self.data = np.asarray(data, dtype=data.dtype if floating else DEFAULT_DTYPE)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


class Arena:
    """Reusable memory for the large arrays of one recorded pass at a time.

    Chunks of at least ``CHUNK`` bytes are carved by address-ordered
    first fit into blocks aligned to ``ALIGN`` bytes. ``take`` returns a
    C-contiguous array over a free block whose numpy ``base`` is a
    ``_Block``, as is the base of every view of it. A block goes back
    when its last view dies: the ``_Block``'s death queues it, on
    whatever thread it dies, and the next ``take`` or ``taken_bytes``
    read frees the queued blocks on the calling thread, merging each with
    its free neighbours. So only the calling thread touches the free
    lists, and the arena needs no lock. A chunk is added when no free
    block fits, so a pass that repeats an earlier pass's takes and deaths
    reuses its blocks and reserves nothing new. A block keeps its chunk
    alive, so dropping an arena with blocks still taken is safe.

    ``CHUNK`` is 32 MiB, glibc's cap on its dynamic mmap threshold, so
    malloc maps each chunk alone and unmaps it whole. A smaller chunk,
    once glibc has seen one freed, comes from the heap, where a dropped
    arena leaves holes that the next one may not fit in.
    """

    CHUNK = 32 << 20
    ALIGN = 64

    def __init__(self):
        # per chunk: its byte buffer, its address and its free [start,
        # end) offsets in address order
        self._chunks: list[tuple[np.ndarray, int, list[list[int]]]] = []
        # (chunk, start, end) of each block whose last view has died
        self._dead: collections.deque[tuple[int, int, int]] = collections.deque()
        self._taken = 0
        self.high_water = 0

    @property
    def taken_bytes(self) -> int:
        self._drain()
        return self._taken

    @property
    def reserved_bytes(self) -> int:
        return sum(buf.size for buf, _, _ in self._chunks)

    def take(self, shape, dtype) -> np.ndarray:
        self._drain()
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        size = max(self.ALIGN, -(-nbytes // self.ALIGN) * self.ALIGN)
        for ci, (buf, address, free) in enumerate(self._chunks):
            j = next((j for j, (lo, hi) in enumerate(free) if hi - lo >= size), None)
            if j is not None:
                break
        else:
            ci, buf = len(self._chunks), np.empty(max(self.CHUNK, size) + self.ALIGN,
                                                  np.uint8)
            address = buf.__array_interface__["data"][0]
            lo = -address % self.ALIGN
            free, j = [[lo, lo + (buf.size - self.ALIGN)]], 0
            self._chunks.append((buf, address, free))
        start = free[j][0]
        if free[j][1] - start == size:
            del free[j]
        else:
            free[j][0] += size
        self._taken += size
        self.high_water = max(self.high_water, self._taken)
        return np.asarray(_Block(buf, address + start, tuple(shape), dtype,
                                 (ci, start, start + size), self._dead))

    def _drain(self) -> None:
        dead = self._dead
        while dead:
            self._free(*dead.popleft())

    def _free(self, ci: int, lo: int, hi: int) -> None:
        """Put bytes [lo, hi) of chunk ``ci`` back on its free list."""
        self._taken -= hi - lo
        free = self._chunks[ci][2]
        j = next((j for j, (start, _) in enumerate(free) if start > lo), len(free))
        if j < len(free) and free[j][0] == hi:
            hi = free.pop(j)[1]
        if j and free[j - 1][1] == lo:
            free[j - 1][1] = hi
        else:
            free.insert(j, [lo, hi])


class _Block:
    """The base of an array ``Arena.take`` returns, exposing its block of
    chunk ``buf`` through ``__array_interface__``. It dies with the last
    view of the block, and its ``__del__`` then queues the block's
    (chunk, start, end) on its arena's ``dead`` queue; a deque's append
    is safe on any thread."""

    __slots__ = ("__array_interface__", "_buf", "_block", "_dead")

    def __init__(self, buf, address, shape, dtype, block, dead):
        self.__array_interface__ = {"shape": shape, "typestr": dtype.str,
                                    "data": (address, False), "version": 3}
        self._buf, self._block, self._dead = buf, block, dead

    def __del__(self):
        self._dead.append(self._block)


class _Malloc:
    """The arena of a pass that has none: ``take`` allocates as numpy
    does. It is falsy, so a kernel passes ``out=arena.take(shape, dtype)
    if arena else None`` to a ufunc, which then allocates its own output,
    and builds no shape for it."""

    take = staticmethod(np.empty)

    def __bool__(self) -> bool:
        return False


MALLOC = _Malloc()


class Chain(list):
    """The stages of one recorded pass, in the order they ran: one
    ``(stage name, backward, parameter names)`` entry each.

    ``params`` maps names to the parameter Tensors the stages may read;
    ``add`` names a stage's parameters by it. ``arena`` is what the stages
    take from. A stage's backward takes the gradient of its output and
    returns the gradient of its input, the output of the stage before it,
    if it has one, then one gradient per parameter, in order. Only the
    calling thread appends to a chain or runs it.
    """

    def __init__(self, params: dict[str, Tensor], arena=MALLOC):
        super().__init__()
        self.arena = arena
        self._names = {id(p): name for name, p in params.items()}

    def add(self, stage: str, back, params) -> None:
        self.append((stage, back, tuple(self._names[id(p)] for p in params)))


def backward(tape: Chain, grads: dict[str, np.ndarray]) -> np.ndarray | None:
    """Run the stages of ``tape`` last to first. The last stage's output is
    the scalar the gradients are of, and its backward is handed None; each
    other stage's is handed the input gradient of the stage after it.
    Each parameter gradient goes into ``grads`` under its name, added to
    +0.0 in place, as a sum into zeros would be: a -0.0 entry reads +0.0.
    Returns the first stage's input gradient, None where it has none.

    The call consumes the chain: each entry, with its backward and the
    arrays that closure keeps, dies once its gradients are taken, so
    ``len(tape)`` read before the call is the number of stages. A
    gradient lives only until its stage has run: the stage's backward
    holds the only reference to the gradient it is handed, so an arena
    block goes back once the backward drops it.
    """
    held = [None]
    while tape:
        _, back, names = tape.pop()
        # popped into the call, so the backward can drop it once read
        out = back(held.pop())
        back = None
        k = len(out) - len(names)
        held.append(out[0] if k else None)
        for name, g in zip(names, out[k:]):
            grads[name] = np.add(g, 0.0, out=g)
        out = g = None
    return held[0]


def draw(layout, rng: np.random.Generator, dtype=DEFAULT_DTYPE) -> dict[str, Tensor]:
    """Fresh trainable Tensors for a parameter layout: an iterable of
    (name, shape, init) entries, drawn in order. ``init`` is "zeros" or
    "ones", or a bound b for uniform values in [-b, b] from ``rng``."""
    return {name: Tensor(np.full(shape, _FILLS[init], dtype) if init in _FILLS
                         else rng.uniform(-init, init, shape).astype(dtype))
            for name, shape, init in layout}
