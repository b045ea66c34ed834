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
the sweep as one GEMM over all timesteps (Appleyard et al.,
arXiv:1604.01946).

A recorded sweep keeps, per step, only what BPTT cannot recompute
cheaply: ``h, z, r, cand`` for GRU and ``h, c, f, i, o, g`` for LSTM.
BPTT recomputes the two others bit for bit, the LSTM's ``tanh(c')`` from
``f*c + i*g`` per step and the GRU's ``r*h`` for the ``dU`` GEMM, and
forms each step's ``_local`` factors inside its loop. Its whole-sequence
arrays are the gate pre-activation gradients, that ``r*h`` and the input
and weight gradients.

A recorded layer takes its [S, B, ...] arrays from its tape's arena (as
``encoder`` does): the kept activations, given back once their
direction's BPTT has run, and the time-major input copy once both have;
the gate gradients, that ``r*h`` and the output gradient's halves,
given back once read; and its input gradient, which the encoder's last
block gives back. Its output and the per-step [B, H] arrays come from
malloc, and a tape-free pass takes nothing from an arena.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
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
    returns the gradients of the previous ``h`` and ``c``.
    """
    flat = d_pre.shape[:-2] + (-1,)
    if cell == GRU:
        a_cand, a_z, a_r, keep_z, r = local
        hid = dh.shape[-1]
        d_cand = np.multiply(dh, a_cand, out=d_pre[..., 2, :])
        d_rh = d_cand @ u_t[2 * hid:]
        np.multiply(dh, a_z, out=d_pre[..., 0, :])
        np.multiply(d_rh, a_r, out=d_pre[..., 1, :])
        d_zr = d_pre[..., :2, :].reshape(flat)
        return dh * keep_z + d_rh * r + d_zr @ u_t[:2 * hid], None
    a_c, a_f, a_i, a_o, a_g, f = local
    dc = dc + dh * a_c
    for k, (grad, a) in enumerate(((dc, a_f), (dc, a_i), (dh, a_o), (dc, a_g))):
        np.multiply(grad, a, out=d_pre[..., k, :])
    return d_pre.reshape(flat) @ u_t, dc * f


def _param_grads(cell: str, w: dict[str, np.ndarray], x: np.ndarray, acts,
                 d_pre: np.ndarray, arena=T.MALLOC):
    """Input and weight gradients from the gate pre-activation gradients
    of any number of steps, each one GEMM or sum over all leading rows.

    ``x`` is [..., d], ``acts`` the matching kept ``_step`` activations
    and ``d_pre`` [..., G, H]. Returns ``d x``, taken from ``arena``, and
    a weight-name -> gradient dict.
    """
    hid = d_pre.shape[-1]
    a = d_pre.reshape(-1, d_pre.shape[-2] * hid)
    h2 = acts[0].reshape(-1, hid)
    if cell == GRU:  # the candidate's recurrent input is r*h, recomputed
        rh = np.multiply(acts[2], acts[0], out=arena.take(acts[0].shape, acts[0].dtype))
        du = np.concatenate([h2.T @ a[:, :2 * hid], rh.reshape(-1, hid).T @ a[:, 2 * hid:]],
                            axis=1)
        arena.give(rh)
    else:
        du = h2.T @ a
    dw = x.reshape(-1, x.shape[-1]).T @ a
    db = a.sum(axis=0)
    grads = {}
    for k, g in enumerate(_gates_for(cell)):
        cols = slice(k * hid, (k + 1) * hid)
        grads[f"w_{g}"], grads[f"u_{g}"], grads[f"b_{g}"] = dw[:, cols], du[:, cols], db[cols]
    dx = np.matmul(a, _cat(w, "w", cell).T, out=arena.take((a.shape[0], x.shape[-1]), a.dtype))
    return dx.reshape(x.shape), grads


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


def _sweep(p: RecurrentParams, x: np.ndarray, keep: np.ndarray,
           keep_f: np.ndarray, reverse: bool, out: np.ndarray, record: bool,
           arena=T.MALLOC):
    """One direction's forward sweep over time-major ``x`` [S, B, d]:
    writes the [S, B, H] states into ``out``, zero at masked steps, where
    the carried state is frozen. Returns the direction's BPTT, a function
    from the [S, B, H] output gradient to ``d x`` and the weight
    gradients.

    When ``record`` is set the sweep keeps each step's ``_step``
    activations, 4 [S, B, H] arrays for GRU and 6 for LSTM; otherwise it
    keeps none. The BPTT runs per step only the ``_local`` factors of
    that step and the recurrent ``dh @ U.T`` products, and collects the
    gate pre-activation gradients, from which ``_param_grads`` forms the
    input and weight gradients over all B*S rows at once. The kept
    activations and the gate gradients come from ``arena`` and are given
    back once the BPTT has run; ``d x`` comes from it too.
    """
    cell = p.cell
    w = {k: t.data for k, t in p.weights.items()}
    s, b, _ = x.shape
    h = np.zeros((b, p.hidden_size), dtype=x.dtype)
    c = np.zeros_like(h) if cell == LSTM else None
    steps = range(s - 1, -1, -1) if reverse else range(s)
    saved = None
    for t in steps:
        h_new, c_new, acts = _step(cell, w, x[t], h, c)
        if record:
            if saved is None:
                saved = [arena.take(out.shape, x.dtype) for _ in acts]
            for buf, a in zip(saved, acts):
                buf[t] = a
        h = np.where(keep[t], h_new, h)
        if c is not None:
            c = np.where(keep[t], c_new, c)
        out[t] = h * keep_f[t]

    def bptt(dy):
        u_t = np.ascontiguousarray(_cat(w, "u", cell).T)
        dh = np.zeros_like(h)
        dc = None if c is None else np.zeros_like(c)
        d_pre = arena.take((s, b, len(_gates_for(cell)), p.hidden_size), x.dtype)
        for t in reversed(steps):
            k = keep[t]
            dh = dh + dy[t]
            dh_prev, dc_prev = _step_back(
                cell, u_t, _local(cell, [a[t] for a in saved]), np.where(k, dh, 0.0),
                None if dc is None else np.where(k, dc, 0.0), d_pre[t])
            dh = np.where(k, dh_prev, dh)
            if dc is not None:
                dc = np.where(k, dc_prev, dc)
        dx, grads = _param_grads(cell, w, x, saved, d_pre, arena)
        for a in (*saved, d_pre):
            arena.give(a)
        return dx, [grads[k] for k in w]

    return bptt


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

    A recorded op takes its time-major copy of ``seq``, the sweeps' kept
    activations and every whole-sequence array of its backward from its
    tape's arena (as in ``encoder.encode``): it gives back the output
    gradient it is handed once it has split it into the two directions'
    halves, each half once its direction's BPTT has run, and returns its
    input gradient from the arena.
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
    sweeps = [_sweep(fwd, x, keep, keep_f, False, y[..., :hf].transpose(1, 0, 2), record,
                     arena),
              _sweep(bwd, x, keep, keep_f, True, y[..., hf:].transpose(1, 0, 2), record,
                     arena)]

    def backward(dy):
        t_dy = dy.reshape(b, s, -1).transpose(1, 0, 2)
        # each direction's time-major half of the output gradient
        halves = [np.multiply(t_dy[..., cols], keep_f, out=arena.take((s, b, n), dy.dtype))
                  for cols, n in ((slice(None, hf), hf), (slice(hf, None), bwd.hidden_size))]
        arena.give(dy)
        del dy, t_dy
        # popped into the call: a direction's BPTT, with its kept
        # activations, and its half die once it has run
        dxs = []
        for _ in range(2):
            half = halves.pop(0)
            dxs.append(sweeps.pop(0)(half))
            arena.give(half)
        (dx_f, g_f), (dx_b, g_b) = dxs
        total = np.add(dx_b, dx_f, out=dx_b)
        dx = np.positive(total.transpose(1, 0, 2), out=arena.take((b, s, d), total.dtype),
                         order="C")
        for a in (total, dx_f, x):
            arena.give(a)
        return (dx.reshape(seq.shape), *g_f, *g_b)

    return T._make(inputs, y.reshape(seq.shape[:-1] + (-1,)), backward)
