"""Masked bidirectional recurrent layer over encoder outputs.

Both cell types are first-class: the LSTM follows the classic six-gate
formulation and the GRU the standard update/reset/candidate one. Gate
pre-activations are computed strictly as ``(l @ W + h @ U) + b`` with
sigmoid written as ``1/(1+exp(-x))``, so a straight-line fp64 reference
of the same equations agrees bit for bit.

Masked steps freeze the carried state (copied unchanged) and emit a zero
row, which makes running over a padded sequence provably equivalent to
running over the truncated one.

``_step`` holds the gate equations once. ``lstm_step`` and ``gru_step``
evaluate one step of it and record nothing: they are forward-only
references, and raise ``ContractError`` where a tape would need their
gradient. ``bidirectional_encode`` records the whole layer, both
directions, as the one tape op of this module, whose backward is
hand-written BPTT per direction, with the weight gradients formed after
the time loop as one GEMM over all timesteps (Appleyard et al.,
arXiv:1604.01946).

Threads. Where ``threads.threaded`` allows it (more than one row, more
than one usable CPU, one BLAS thread), the two directions of a pass run
at once, as the layer-level parallelism of the same paper: the
left-to-right one on the worker thread the encoder's blocks also use,
and the right-to-left one on the calling thread, in the sweeps (recorded
or not) and in BPTT (``threads.both``). The call returns once both have
finished, and only then raises an error either raised. Otherwise both
run on the calling thread, in the same functions. Each direction writes
only its own arrays, and the results are bit for bit those of the
calling thread alone. What stays whole, on the calling thread: every
arena take and give, the split of the output gradient into the two
halves and the sum of the two input gradients. Everything the worker
writes is made before the hand-off: the worker takes nothing from an
arena, touches no tape and mallocs only per-step [B, H] arrays.

Memory. A recorded sweep keeps, per direction, only what BPTT cannot
recompute cheaply: ``h`` [S, B, H] and, for LSTM, ``c``, and the gates
in one [S, B, G, H] block in gate-gradient order (GRU ``z, r, cand``;
LSTM ``f, i, o, g``): 4 (GRU) or 6 (LSTM) [S, B, H] arrays. BPTT
recomputes the LSTM's ``tanh(c')`` per step and forms each step's
``_local`` factors inside its loop; it then writes the step's gate
gradients over its kept gates, and the GRU's ``r*h`` over the step of
the output gradient it has read. After the loop the block is the gate
gradients ``d_pre`` and the output gradient's half is ``r*h``, so a
direction's BPTT takes no whole-sequence array beyond its half of the
output gradient and its input gradient.

A recorded layer takes its [S, B, ...] arrays from its tape's arena (as
``encoder`` does), all on the calling thread: the time-major input copy
and the kept activations, given back once both directions' BPTT has
run; the output gradient's two halves, given back with them; and both
directions' input gradients, of which the sum is written over one and
copied batch-major into the layer's input gradient, which the encoder's
last block gives back. Its output, its weight gradients and the
per-step [B, H] arrays come from malloc, and a tape-free pass takes
nothing from an arena.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from . import threads
from .errors import ContractError, DegenerateMaskError, ShapeError
from .tensor import Tensor

LSTM = "lstm"
GRU = "gru"

LSTM_GATES = ("f", "i", "o", "c")
GRU_GATES = ("update", "reset", "candidate")


@dataclass
class CellState:
    """Hidden state ``h`` and, for LSTM only, the cell state ``c``."""
    h: Tensor
    c: Tensor | None = None


@dataclass
class RecurrentParams:
    """Per-gate weights: ``w_<gate>`` maps the input, ``u_<gate>`` the
    previous hidden state, ``b_<gate>`` is the bias. They must be exactly
    the entries of ``direction_layout(cell, input_size, hidden_size)``."""
    cell: str
    input_size: int
    hidden_size: int
    weights: dict[str, Tensor]

    def __post_init__(self):
        want = {name: shape for name, shape, _ in
                direction_layout(self.cell, self.input_size, self.hidden_size)}
        got = {name: tuple(w.shape) for name, w in self.weights.items()}
        if got != want:
            raise ShapeError(f"{self.cell} weights {got} do not fit input size "
                             f"{self.input_size} and hidden size {self.hidden_size}: "
                             f"expected {want}")


def direction_layout(cell: str, input_size: int, hidden_size: int):
    """One direction's (name, shape, init) entries, gate by gate:
    ``w_<gate>`` and ``u_<gate>`` fan-in scaled uniform, ``b_<gate>`` zero."""
    for g in _gates_for(cell):
        yield f"w_{g}", (input_size, hidden_size), 1.0 / math.sqrt(input_size)
        yield f"u_{g}", (hidden_size, hidden_size), 1.0 / math.sqrt(hidden_size)
        yield f"b_{g}", (hidden_size,), "zeros"


def _gates_for(cell: str) -> tuple[str, ...]:
    if cell == LSTM:
        return LSTM_GATES
    if cell == GRU:
        return GRU_GATES
    raise ContractError(f"unknown cell type {cell!r}, expected {LSTM!r} or {GRU!r}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) verbatim so straight-line references agree bitwise;
    # overflow in exp saturates to the correct 0.0, and callers silence
    # its warning with np.errstate(over="ignore")
    return 1.0 / (1.0 + np.exp(-x))


def _pre(w: dict[str, np.ndarray], gate: str, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    # (l@W + h@U) + b, left to right: references depend on this order
    return (x @ w[f"w_{gate}"] + h @ w[f"u_{gate}"]) + w[f"b_{gate}"]


def _step(cell: str, w: dict[str, np.ndarray], x: np.ndarray, h: np.ndarray,
          c: np.ndarray | None):
    """The gate equations of one step on arrays, the only copy of them.

    Returns the new ``h``, the new ``c`` (None for GRU) and the
    activations the backward keeps: ``h, z, r, cand`` for GRU and
    ``h, c, f, i, o, g`` for LSTM. The GRU's ``r*h`` and the LSTM's
    ``tanh(c')`` are not kept: the backward recomputes them bit for bit.
    """
    if cell == GRU:
        with np.errstate(over="ignore"):
            z = _sigmoid(_pre(w, "update", x, h))
            r = _sigmoid(_pre(w, "reset", x, h))
        cand = np.tanh(_pre(w, "candidate", x, r * h))
        return (1.0 - z) * h + z * cand, None, (h, z, r, cand)
    with np.errstate(over="ignore"):
        f = _sigmoid(_pre(w, "f", x, h))
        i = _sigmoid(_pre(w, "i", x, h))
        o = _sigmoid(_pre(w, "o", x, h))
    g = np.tanh(_pre(w, "c", x, h))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new, (h, c, f, i, o, g)


def _cat(w: dict[str, np.ndarray], kind: str, cell: str) -> np.ndarray:
    """``kind`` ("w" or "u") weights of every gate side by side: [in, G*H]."""
    return np.concatenate([w[f"{kind}_{g}"] for g in _gates_for(cell)], axis=1)


def _local(cell: str, acts) -> tuple[np.ndarray, ...]:
    """The factors ``_step_back`` multiplies by, from one step's kept
    ``_step`` activations; the LSTM's ``tanh(c')`` is recomputed here."""
    if cell == GRU:
        h, z, r, cand = acts
        return (z * (1.0 - cand * cand), (cand - h) * (z * (1.0 - z)),
                h * (r * (1.0 - r)), 1.0 - z, r)
    _, c, f, i, o, g = acts
    tc = np.tanh(f * c + i * g)
    return (o * (1.0 - tc * tc), c * (f * (1.0 - f)), g * (i * (1.0 - i)),
            tc * (o * (1.0 - o)), i * (1.0 - g * g), f)


def _step_back(cell: str, u_t: np.ndarray, local, dh: np.ndarray,
               dc: np.ndarray | None, d_pre: np.ndarray):
    """Backward of ``_step`` given the gradients of its new ``h`` and ``c``.

    ``u_t`` is ``_cat(w, "u", cell).T`` (a C-contiguous copy multiplies
    faster) and ``local`` comes from ``_local``. Writes the gate
    pre-activation gradients into ``d_pre`` [..., G, H] in gate order and
    returns the gradients of the previous ``h`` and ``c``. ``d_pre`` may
    hold the step's kept gate activations: the GRU's ``r`` and the LSTM's
    ``f`` in ``local`` are read before their slot is written.
    """
    flat = d_pre.shape[:-2] + (-1,)
    if cell == GRU:
        a_cand, a_z, a_r, keep_z, r = local
        hid = dh.shape[-1]
        d_cand = np.multiply(dh, a_cand, out=d_pre[..., 2, :])
        d_rh = d_cand @ u_t[2 * hid:]
        dh_prev = dh * keep_z + d_rh * r
        np.multiply(dh, a_z, out=d_pre[..., 0, :])
        np.multiply(d_rh, a_r, out=d_pre[..., 1, :])
        return dh_prev + d_pre[..., :2, :].reshape(flat) @ u_t[:2 * hid], None
    a_c, a_f, a_i, a_o, a_g, f = local
    dc = dc + dh * a_c
    dc_prev = dc * f
    for k, (grad, a) in enumerate(((dc, a_f), (dc, a_i), (dh, a_o), (dc, a_g))):
        np.multiply(grad, a, out=d_pre[..., k, :])
    return d_pre.reshape(flat) @ u_t, dc_prev


def _grad_arrays(cell: str, input_size: int, hid: int, dtype):
    """The arrays ``_param_grads`` writes one direction's weight gradients
    into: ``dU`` as its GEMMs form it (for GRU, the update and reset
    gates' apart from the candidate's, whose recurrent input is ``r*h``),
    ``dW`` and ``db``, each in gate order. Returns them and the
    weight-name -> gradient views over them."""
    gates = _gates_for(cell)
    du = ([np.empty((hid, 2 * hid), dtype), np.empty((hid, hid), dtype)] if cell == GRU
          else [np.empty((hid, len(gates) * hid), dtype)])
    dw = np.empty((input_size, len(gates) * hid), dtype)
    db = np.empty(len(gates) * hid, dtype)
    du_gates = [a[:, j:j + hid] for a in du for j in range(0, a.shape[1], hid)]
    views = {}
    for k, g in enumerate(gates):
        cols = slice(k * hid, (k + 1) * hid)
        views[f"w_{g}"], views[f"u_{g}"], views[f"b_{g}"] = dw[:, cols], du_gates[k], db[cols]
    return (du, dw, db), views


def _param_grads(w_x: np.ndarray, x: np.ndarray, h: np.ndarray, rh: np.ndarray | None,
                 d_pre: np.ndarray, dx: np.ndarray, du, dw: np.ndarray, db: np.ndarray):
    """Input and weight gradients from the gate pre-activation gradients
    of any number of steps, each one GEMM or sum over all leading rows,
    written into ``dx`` [rows, d] and the ``_grad_arrays`` ``du``, ``dw``
    and ``db``.

    ``x`` is [..., d], ``h`` the matching kept states, ``rh`` the GRU's
    ``r*h`` (None for LSTM), ``d_pre`` [..., G, H] and ``w_x``
    ``_cat(w, "w", cell)``.
    """
    hid = d_pre.shape[-1]
    a = d_pre.reshape(-1, d_pre.shape[-2] * hid)
    zr = du[0].shape[1]
    np.matmul(h.reshape(-1, hid).T, a[:, :zr], out=du[0])
    if rh is not None:
        np.matmul(rh.reshape(-1, hid).T, a[:, zr:], out=du[1])
    np.matmul(x.reshape(-1, x.shape[-1]).T, a, out=dw)
    np.sum(a, axis=0, out=db)
    np.matmul(a, w_x.T, out=dx)


def _eval_step(l_t: Tensor, h: Tensor, c: Tensor | None, p: RecurrentParams):
    """``_step`` on the tensors' data, recording nothing: the per-step
    cells are forward-only references, so where a tape would need their
    gradient they refuse rather than drop it."""
    if T._recording((l_t, h, *(() if c is None else (c,)), *p.weights.values())):
        raise ContractError(f"{p.cell}_step is forward-only and records no gradient; "
                            "differentiate through bidirectional_encode")
    h_new, c_new, _ = _step(p.cell, {k: t.data for k, t in p.weights.items()},
                            l_t.data, h.data, None if c is None else c.data)
    return Tensor(h_new), None if c_new is None else Tensor(c_new)


def lstm_step(l_t: Tensor, prev: CellState, p: RecurrentParams) -> CellState:
    if p.cell != LSTM:
        raise ContractError(f"lstm_step called with {p.cell!r} params")
    if prev.c is None:
        raise ContractError("lstm_step needs a cell state c in prev")
    h, c = _eval_step(l_t, prev.h, prev.c, p)
    return CellState(h=h, c=c)


def gru_step(l_t: Tensor, prev_h: Tensor, p: RecurrentParams) -> Tensor:
    if p.cell != GRU:
        raise ContractError(f"gru_step called with {p.cell!r} params")
    return _eval_step(l_t, prev_h, None, p)[0]


def _kept(cell: str, s: int, b: int, hid: int, dtype, arena):
    """A direction's kept activations, taken from ``arena``: ``h``, for
    LSTM ``c``, each [S, B, H], and the gates in ``d_pre`` order in one
    [S, B, G, H] block, which its BPTT overwrites with their gradients."""
    return [*(arena.take((s, b, hid), dtype) for _ in range(1 if cell == GRU else 2)),
            arena.take((s, b, len(_gates_for(cell)), hid), dtype)]


def _at(kept, t: int):
    """Step ``t``'s views of ``_kept`` arrays, in ``_step`` order."""
    return (*(a[t] for a in kept[:-1]), *kept[-1][t].swapaxes(0, 1))


def _sweep(p: RecurrentParams, x: np.ndarray, keep: np.ndarray, keep_f: np.ndarray,
           reverse: bool, out: np.ndarray, kept=None) -> None:
    """One direction's forward sweep over time-major ``x`` [S, B, d]:
    writes the [S, B, H] states into ``out``, zero at masked steps, where
    the carried state is frozen. With ``kept`` (from ``_kept``), writes
    each step's ``_step`` activations into it; otherwise keeps none."""
    cell = p.cell
    w = {k: t.data for k, t in p.weights.items()}
    s, b, _ = x.shape
    h = np.zeros((b, p.hidden_size), dtype=x.dtype)
    c = np.zeros_like(h) if cell == LSTM else None
    for t in range(s - 1, -1, -1) if reverse else range(s):
        h_new, c_new, acts = _step(cell, w, x[t], h, c)
        if kept is not None:
            for buf, a in zip(_at(kept, t), acts):
                buf[...] = a
        h = np.where(keep[t], h_new, h)
        if c is not None:
            c = np.where(keep[t], c_new, c)
        out[t] = h * keep_f[t]
        del h_new, c_new, acts  # not held through the next step


def _bptt(cell: str, u_t: np.ndarray, w_x: np.ndarray, x: np.ndarray, keep: np.ndarray,
          reverse: bool, kept, dy: np.ndarray, dx: np.ndarray, grads) -> None:
    """One direction's BPTT from its time-major [S, B, H] output gradient
    ``dy``, writing ``d x`` into ``dx`` and the weight gradients into the
    ``_grad_arrays`` ``grads``.

    Each step forms only its ``_local`` factors and its recurrent
    ``dh @ U.T`` products. It writes the gate gradients over the step's
    kept gates, and the GRU's ``r*h`` over ``dy[t]``, which it has read,
    so that after the loop the gate block is ``d_pre`` and ``dy`` is
    ``r*h``, from which ``_param_grads`` forms the input and weight
    gradients over all S*B rows at once. ``u_t`` is
    ``_cat(w, "u", cell).T`` as a C-contiguous copy and ``w_x``
    ``_cat(w, "w", cell)``."""
    dh = np.zeros(dy.shape[1:], dy.dtype)
    dc = np.zeros_like(dh) if cell == LSTM else None
    block = kept[-1]
    for t in range(x.shape[0]) if reverse else range(x.shape[0] - 1, -1, -1):
        k = keep[t]
        dh = dh + dy[t]
        acts = _at(kept, t)
        local = _local(cell, acts)
        if cell == GRU:
            np.multiply(acts[2], acts[0], out=dy[t])
        dh_prev, dc_prev = _step_back(cell, u_t, local, np.where(k, dh, 0.0),
                                      None if dc is None else np.where(k, dc, 0.0), block[t])
        dh = np.where(k, dh_prev, dh)
        if dc is not None:
            dc = np.where(k, dc_prev, dc)
    _param_grads(w_x, x, kept[0], dy if cell == GRU else None, block, dx, *grads)


def bidirectional_encode(seq: Tensor, mask, fwd: RecurrentParams,
                         bwd: RecurrentParams) -> Tensor:
    """Run ``fwd`` left-to-right and ``bwd`` right-to-left over the real
    positions of ``seq`` and concatenate per-position hidden states.

    ``seq`` is [seq_len, d] or batched [B, seq_len, d]; ``mask`` is a
    boolean array of matching leading shape. Output rows at masked
    positions are zero. The whole layer is one tape op: both sweeps read
    one time-major copy of ``seq`` and write the two halves of one
    output, and the backward returns the sum of the two directions'
    input gradients. Both directions must hold the same cell type.

    Where ``threads.threaded`` allows it, the left-to-right direction
    runs on the worker thread while the calling thread runs the
    right-to-left one, in the sweeps and in BPTT; the results are bit for
    bit those of running both on the calling thread.

    A recorded op takes its time-major copy of ``seq``, the sweeps' kept
    activations and every whole-sequence array of its backward from its
    tape's arena (as in ``encoder.encode``), on the calling thread: it
    gives back the output gradient it is handed once it has split it
    into the two directions' halves, the halves and the activations once
    both directions' BPTT has run, and returns its input gradient from
    the arena.
    """
    if fwd.cell != bwd.cell:
        raise ContractError(f"directions hold different cells ({fwd.cell!r}, {bwd.cell!r})")
    m = np.asarray(mask, dtype=bool)
    data = seq.data
    if seq.ndim == 2:
        data = data.reshape((1,) + seq.shape)
        m = m.reshape(1, -1)
    if data.ndim != 3:
        raise ShapeError(f"seq must be 2-D or 3-D, got shape {seq.shape}")
    if m.shape != data.shape[:2]:
        raise ShapeError(f"mask shape {m.shape} does not match sequence {data.shape[:2]}")
    if data.shape[-1] != fwd.input_size or bwd.input_size != fwd.input_size:
        raise ShapeError(f"sequence width {data.shape[-1]} does not match input sizes "
                         f"{fwd.input_size} and {bwd.input_size}")
    if not m.any(axis=1).all():
        raise DegenerateMaskError("bidirectional_encode: a sequence is fully masked")

    inputs = (seq, *fwd.weights.values(), *bwd.weights.values())
    record = T._recording(inputs)
    arena = T._active_tape().arena if record else T.MALLOC
    # time-major: every per-step slice is contiguous
    b, s, d = data.shape
    x = np.positive(data.transpose(1, 0, 2), out=arena.take((s, b, d), data.dtype) if arena
                    else None, order="C")
    keep = m.T[:, :, None]
    keep_f = keep.astype(x.dtype)
    hf = fwd.hidden_size
    # batch-major and C-contiguous, as the layers after it expect; each
    # sweep writes a time-major view of its half
    y = np.empty((b, s, hf + bwd.hidden_size), x.dtype)
    dirs = ((fwd, False, slice(None, hf)), (bwd, True, slice(hf, None)))
    kept = [_kept(p.cell, s, b, p.hidden_size, x.dtype, arena) if record else None
            for p, _, _ in dirs]
    threads.both(b, *(partial(_sweep, p, x, keep, keep_f, reverse,
                              y[..., cols].transpose(1, 0, 2), kept_p)
                      for (p, reverse, cols), kept_p in zip(dirs, kept)))

    def backward(dy):
        t_dy = dy.reshape(b, s, -1).transpose(1, 0, 2)
        # each direction's time-major half of the output gradient
        halves = [np.multiply(t_dy[..., cols], keep_f, out=arena.take((s, b, p.hidden_size),
                                                                      dy.dtype))
                  for p, _, cols in dirs]
        arena.give(dy)
        del dy, t_dy
        # what the two directions write, made here: the worker thread
        # takes nothing from the arena and mallocs only per-step arrays
        dxs = [arena.take((s * b, d), x.dtype) for _ in dirs]
        grads = [_grad_arrays(p.cell, d, p.hidden_size, x.dtype) for p, _, _ in dirs]
        jobs = []
        for (p, reverse, _), kept_p, half, dx, (arrays, _) in zip(dirs, kept, halves, dxs, grads):
            w = {k: t.data for k, t in p.weights.items()}
            jobs.append(partial(_bptt, p.cell, np.ascontiguousarray(_cat(w, "u", p.cell).T),
                                _cat(w, "w", p.cell), x, keep, reverse, kept_p, half, dx, arrays))
        threads.both(b, *jobs)
        for a in (*kept[0], *kept[1], *halves):
            arena.give(a)
        dx_f, dx_b = dxs
        total = np.add(dx_b, dx_f, out=dx_b)
        dx = np.positive(total.reshape(s, b, d).transpose(1, 0, 2),
                         out=arena.take((b, s, d), total.dtype), order="C")
        for a in (total, dx_f, x):
            arena.give(a)
        return (dx.reshape(seq.shape), *(views[k] for (p, _, _), (_, views) in zip(dirs, grads)
                                         for k in p.weights))

    return T._make(inputs, y.reshape(seq.shape[:-1] + (-1,)), backward)
