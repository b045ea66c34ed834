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
    previous hidden state, ``b_<gate>`` is the bias."""
    cell: str
    input_size: int
    hidden_size: int
    weights: dict[str, Tensor]

    @classmethod
    def init(cls, cell: str, input_size: int, hidden_size: int,
             rng: np.random.Generator, dtype=np.float32) -> "RecurrentParams":
        gates = _gates_for(cell)
        kw = 1.0 / math.sqrt(input_size)
        ku = 1.0 / math.sqrt(hidden_size)
        weights: dict[str, Tensor] = {}
        for g in gates:
            weights[f"w_{g}"] = Tensor(
                rng.uniform(-kw, kw, (input_size, hidden_size)).astype(dtype),
                requires_grad=True)
            weights[f"u_{g}"] = Tensor(
                rng.uniform(-ku, ku, (hidden_size, hidden_size)).astype(dtype),
                requires_grad=True)
            weights[f"b_{g}"] = Tensor(
                np.zeros(hidden_size, dtype=dtype), requires_grad=True)
        return cls(cell=cell, input_size=input_size, hidden_size=hidden_size,
                   weights=weights)


def _gates_for(cell: str) -> tuple[str, ...]:
    if cell == LSTM:
        return LSTM_GATES
    if cell == GRU:
        return GRU_GATES
    raise ContractError(f"unknown cell type {cell!r}, expected {LSTM!r} or {GRU!r}")


def _pre(w: dict[str, np.ndarray], gate: str, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    # (l@W + h@U) + b, left to right: references depend on this order
    return (x @ w[f"w_{gate}"] + h @ w[f"u_{gate}"]) + w[f"b_{gate}"]


def _step(cell: str, w: dict[str, np.ndarray], x: np.ndarray, h: np.ndarray,
          c: np.ndarray | None):
    """The gate equations of one step on arrays, the only copy of them.

    Returns the new ``h``, the new ``c`` (None for GRU) and the
    activations ``_step_back`` needs: ``h, z, r, r*h, cand`` for GRU and
    ``h, c, f, i, o, g, tanh(c')`` for LSTM.
    """
    if cell == GRU:
        z = T._sigmoid(_pre(w, "update", x, h))
        r = T._sigmoid(_pre(w, "reset", x, h))
        rh = r * h
        cand = np.tanh(_pre(w, "candidate", x, rh))
        return (1.0 - z) * h + z * cand, None, (h, z, r, rh, cand)
    f = T._sigmoid(_pre(w, "f", x, h))
    i = T._sigmoid(_pre(w, "i", x, h))
    o = T._sigmoid(_pre(w, "o", x, h))
    g = np.tanh(_pre(w, "c", x, h))
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (h, c, f, i, o, g, tc)


def _cat(w: dict[str, np.ndarray], kind: str, cell: str) -> np.ndarray:
    """``kind`` ("w" or "u") weights of every gate side by side: [in, G*H]."""
    return np.concatenate([w[f"{kind}_{g}"] for g in _gates_for(cell)], axis=1)


def _local(cell: str, acts) -> tuple[np.ndarray, ...]:
    """The factors ``_step_back`` multiplies by, from ``_step``
    activations. Elementwise, so a whole sequence's come from one call."""
    if cell == GRU:
        h, z, r, _, cand = acts
        return (z * (1.0 - cand * cand), (cand - h) * (z * (1.0 - z)),
                h * (r * (1.0 - r)), 1.0 - z, r)
    _, c, f, i, o, g, tc = acts
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
                 d_pre: np.ndarray):
    """Input and weight gradients from the gate pre-activation gradients
    of any number of steps, each one GEMM or sum over all leading rows.

    ``x`` is [..., d], ``acts`` the matching ``_step`` activations and
    ``d_pre`` [..., G, H]. Returns ``d x`` and a weight-name -> gradient
    dict.
    """
    hid = d_pre.shape[-1]
    a = d_pre.reshape(-1, d_pre.shape[-2] * hid)
    h2 = acts[0].reshape(-1, hid)
    if cell == GRU:  # the candidate's recurrent input is r*h
        du = np.concatenate([h2.T @ a[:, :2 * hid],
                             acts[3].reshape(-1, hid).T @ a[:, 2 * hid:]], axis=1)
    else:
        du = h2.T @ a
    dw = x.reshape(-1, x.shape[-1]).T @ a
    db = a.sum(axis=0)
    grads = {}
    for k, g in enumerate(_gates_for(cell)):
        cols = slice(k * hid, (k + 1) * hid)
        grads[f"w_{g}"], grads[f"u_{g}"], grads[f"b_{g}"] = dw[:, cols], du[:, cols], db[cols]
    return (a @ _cat(w, "w", cell).T).reshape(x.shape), grads


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
           keep_f: np.ndarray, reverse: bool, out: np.ndarray, record: bool):
    """One direction's forward sweep over time-major ``x`` [S, B, d]:
    writes the [S, B, H] states into ``out``, zero at masked steps, where
    the carried state is frozen. Returns the direction's BPTT, a function
    from the [S, B, H] output gradient to ``d x`` and the weight
    gradients.

    When ``record`` is set the sweep keeps each step's ``_step``
    activations; otherwise it keeps none. The BPTT runs only the
    recurrent ``dh @ U.T`` products per step and collects the gate
    pre-activation gradients, from which ``_param_grads`` forms the input
    and weight gradients over all B*S rows at once.
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
                saved = [np.empty(out.shape, dtype=x.dtype) for _ in acts]
            for buf, a in zip(saved, acts):
                buf[t] = a
        h = np.where(keep[t], h_new, h)
        if c is not None:
            c = np.where(keep[t], c_new, c)
        out[t] = h * keep_f[t]

    def bptt(dy):
        local = _local(cell, saved)
        u_t = np.ascontiguousarray(_cat(w, "u", cell).T)
        dh = np.zeros_like(h)
        dc = None if c is None else np.zeros_like(c)
        d_pre = np.empty((s, b, len(_gates_for(cell)), p.hidden_size), dtype=x.dtype)
        for t in reversed(steps):
            k = keep[t]
            dh = dh + dy[t]
            dh_prev, dc_prev = _step_back(
                cell, u_t, [a[t] for a in local], np.where(k, dh, 0.0),
                None if dc is None else np.where(k, dc, 0.0), d_pre[t])
            dh = np.where(k, dh_prev, dh)
            if dc is not None:
                dc = np.where(k, dc_prev, dc)
        dx, grads = _param_grads(cell, w, x, saved, d_pre)
        return dx, [grads[k] for k in w]

    return bptt


def bidirectional_encode(seq: Tensor, mask, fwd: RecurrentParams,
                         bwd: RecurrentParams, cell: str) -> Tensor:
    """Run ``fwd`` left-to-right and ``bwd`` right-to-left over the real
    positions of ``seq`` and concatenate per-position hidden states.

    ``seq`` is [seq_len, d] or batched [B, seq_len, d]; ``mask`` is a
    boolean array of matching leading shape. Output rows at masked
    positions are zero. The whole layer is one tape op: both sweeps read
    one time-major copy of ``seq`` and write the two halves of one
    output, and the backward returns the sum of the two directions'
    input gradients.
    """
    _gates_for(cell)
    if fwd.cell != cell or bwd.cell != cell:
        raise ContractError(f"cell {cell!r} does not match params "
                            f"({fwd.cell!r}, {bwd.cell!r})")
    m = np.asarray(mask, dtype=bool)
    data = seq.data
    if seq.ndim == 2:
        data = data.reshape((1,) + seq.shape)
        m = m.reshape(1, -1)
    if data.ndim != 3:
        raise ShapeError(f"seq must be 2-D or 3-D, got shape {seq.shape}")
    if m.shape != data.shape[:2]:
        raise ShapeError(f"mask shape {m.shape} does not match sequence {data.shape[:2]}")
    if not m.any(axis=1).all():
        raise DegenerateMaskError("bidirectional_encode: a sequence is fully masked")

    # time-major: every per-step slice is contiguous
    x = np.ascontiguousarray(data.transpose(1, 0, 2))
    keep = m.T[:, :, None]
    keep_f = keep.astype(x.dtype)
    s, b, _ = x.shape
    hf = fwd.hidden_size
    out = np.empty((s, b, hf + bwd.hidden_size), dtype=x.dtype)
    inputs = (seq, *fwd.weights.values(), *bwd.weights.values())
    record = T._recording(inputs)
    sweeps = (_sweep(fwd, x, keep, keep_f, False, out[..., :hf], record),
              _sweep(bwd, x, keep, keep_f, True, out[..., hf:], record))

    def backward(dy):
        dy = dy.reshape(b, s, -1).transpose(1, 0, 2) * keep_f
        dx_f, g_f = sweeps[0](dy[..., :hf])
        dx_b, g_b = sweeps[1](dy[..., hf:])
        dx = np.ascontiguousarray((dx_b + dx_f).transpose(1, 0, 2))
        return (dx.reshape(seq.shape), *g_f, *g_b)

    # batch-major and C-contiguous, as the layers after it expect
    y = np.ascontiguousarray(out.transpose(1, 0, 2))
    return T._make(inputs, y.reshape(seq.shape[:-1] + (-1,)), backward)
