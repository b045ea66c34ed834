"""Adam, SGD, and SWATS (Adam that switches itself to SGD).

SWATS runs Adam and tracks a bias-corrected estimate of the SGD learning
rate that would reproduce Adam's steps: after each step p it computes the
projection gamma = -(p.p)/(p.g), folds it into an exponential average
lam, and switches permanently to SGD with rate Lambda = lam/(1-beta2^k)
once the estimate agrees with gamma to within ``eps_switch``.

The Adam phase calls the same kernel as ``adam_step`` and the SGD phase
the same kernel as ``sgd_step``, so a SWATS trajectory is bit-identical
to pure Adam before the switch and to SGD(Lambda) after it. gamma and
lam are accumulated at float64 regardless of parameter dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError, DivergenceError
from .tensor import Tensor

ADAM_PHASE = "adam"
SGD_PHASE = "sgd"

# checkpoint JSON types per scalar field annotation of a state class; the
# moment dicts and the nested Adam state are not scalars
_META_TYPES = {"float": (int, float), "int": (int,), "str": (str,),
               "float | None": (int, float, type(None))}


def _scalars(st) -> dict:
    return {f.name: getattr(st, f.name) for f in fields(st) if f.type in _META_TYPES}


def _read_scalars(cls, meta: dict) -> dict:
    out = {}
    for f in fields(cls):
        if f.type in _META_TYPES:
            value = meta.get(f.name)
            if isinstance(value, bool) or not isinstance(value, _META_TYPES[f.type]):
                raise ContractError(f"optimizer {f.name!r} must be {f.type}, "
                                    f"got {value!r}")
            out[f.name] = value
    return out


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ContractError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    k: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    kind = "adam"
    phase = ADAM_PHASE

    def __post_init__(self):
        _check_rate("lr", self.lr)
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ContractError(f"{name} must be in [0, 1), got {beta!r}")
        if not 0.0 < self.eps < math.inf:
            raise ContractError(f"eps must be finite and > 0, got {self.eps!r}")
        # a negative step count makes a bias correction <= 0
        if type(self.k) is not int or self.k < 0:
            raise ContractError(f"k must be an int >= 0, got {self.k!r}")


@dataclass
class SgdState:
    lr: float

    kind = "sgd"
    phase = SGD_PHASE

    def __post_init__(self):
        _check_rate("lr", self.lr)


@dataclass
class SwatsState:
    adam: AdamState = field(default_factory=AdamState)
    eps_switch: float = 1e-9
    phase: str = ADAM_PHASE
    lam: float = 0.0
    sgd_lr: float | None = None  # Lambda, fixed at the switch

    kind = "swats"

    def __post_init__(self):
        _check_rate("eps_switch", self.eps_switch)
        # no sign rule: a saved Lambda is whatever the switch estimated
        if self.sgd_lr is not None and not math.isfinite(self.sgd_lr):
            raise ContractError(f"sgd_lr must be finite, got {self.sgd_lr!r}")
        # a non-finite lam never meets eps_switch, so the switch never comes
        if not math.isfinite(self.lam):
            raise ContractError(f"lam must be finite, got {self.lam!r}")

    @property
    def k(self) -> int:
        return self.adam.k


def _checked(params: dict[str, Tensor], grads: dict[str, np.ndarray]):
    """``(name, param, gradient)`` for every param, once every gradient
    is known to be finite: a rejected step changes no state."""
    steps = [(name, p, np.asarray(grads[name])) for name, p in params.items()]
    for name, _, g in steps:
        if not np.isfinite(g).all():
            raise DivergenceError(f"gradient of {name!r} is not finite")
    return steps


def _adam_apply(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                st: AdamState) -> dict[str, np.ndarray]:
    """One Adam update on every param, in place; returns the applied
    deltas. Moment buffers are created as zeros on first touch. The
    moments and the weights are updated in their own arrays, by the same
    operations, so a step reallocates no parameter-sized array."""
    steps = _checked(params, grads)
    st.k += 1
    k = st.k
    b1, b2 = st.beta1, st.beta2
    bc1 = 1.0 - b1 ** k
    bc2 = 1.0 - b2 ** k
    deltas: dict[str, np.ndarray] = {}
    for name, p, g in steps:
        m = st.m.get(name)
        v = st.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        np.multiply(m, b1, out=m)
        np.add(m, (1.0 - b1) * g, out=m)
        np.multiply(v, b2, out=v)
        np.add(v, (1.0 - b2) * (g * g), out=v)
        st.m[name] = m
        st.v[name] = v
        delta = (-st.lr * (m / bc1)) / (np.sqrt(v / bc2) + st.eps)
        np.add(p.data, delta, out=p.data)
        deltas[name] = delta
    return deltas


def _sgd_apply(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               lr: float) -> None:
    for _, p, g in _checked(params, grads):
        p.data = p.data - lr * g


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              st: AdamState) -> AdamState:
    _adam_apply(params, grads, st)
    return st


def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
             st: SgdState) -> SgdState:
    _sgd_apply(params, grads, st.lr)
    return st


def swats_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               st: SwatsState) -> SwatsState:
    if st.phase == SGD_PHASE:
        _sgd_apply(params, grads, st.sgd_lr)
        return st
    deltas = _adam_apply(params, grads, st.adam)
    k = st.adam.k
    pg = 0.0
    pp = 0.0
    for name in params:
        d = deltas[name].ravel().astype(np.float64)
        g = np.asarray(grads[name]).ravel().astype(np.float64)
        pg += float(np.dot(d, g))
        pp += float(np.dot(d, d))
    if pg != 0.0:
        gamma = -pp / pg
        b2 = st.adam.beta2
        st.lam = b2 * st.lam + (1.0 - b2) * gamma
        lam_hat = st.lam / (1.0 - b2 ** k)
        if k > 1 and abs(lam_hat - gamma) < st.eps_switch:
            st.phase = SGD_PHASE
            st.sgd_lr = lam_hat
    return st


def apply_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state):
    """Dispatch one optimizer step by state type."""
    if isinstance(state, SwatsState):
        return swats_step(params, grads, state)
    if isinstance(state, AdamState):
        return adam_step(params, grads, state)
    if isinstance(state, SgdState):
        return sgd_step(params, grads, state)
    raise ContractError(f"unknown optimizer state {type(state).__name__}")


def make_state(kind: str, lr: float | None = None, *,
               eps_switch: float = SwatsState.eps_switch):
    """Build a fresh optimizer state: 'adam', 'sgd', or 'swats'."""
    if kind == "sgd":
        return SgdState(lr=0.01 if lr is None else lr)
    adam = AdamState(lr=AdamState.lr if lr is None else lr)
    if kind == "adam":
        return adam
    if kind == "swats":
        return SwatsState(adam=adam, eps_switch=eps_switch)
    raise ContractError(f"unknown optimizer {kind!r}, expected adam, sgd, or swats")


def state_meta(state) -> dict | None:
    """The checkpoint record of ``state``: its kind, then its scalar fields
    in declaration order, a SWATS state's Adam fields first."""
    if state is None:
        return None
    if isinstance(state, SwatsState):
        return {**state_meta(state.adam), "kind": state.kind, **_scalars(state)}
    return {"kind": state.kind, **_scalars(state)}


def state_moments(state) -> tuple[dict, dict]:
    """Adam's moment buffers in ``state``; empty for SGD or no state."""
    adam = state.adam if isinstance(state, SwatsState) else state
    return (adam.m, adam.v) if isinstance(adam, AdamState) else ({}, {})


def state_from_meta(meta: dict | None, m: dict, v: dict):
    """Rebuild a state from its ``state_meta`` record and Adam moment
    buffers. An unknown kind or a missing or mistyped scalar raises
    ``ContractError``."""
    if meta is None:
        return None
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind == "sgd":
        return SgdState(**_read_scalars(SgdState, meta))
    if kind not in ("adam", "swats"):
        raise ContractError(f"unknown optimizer kind {kind!r}")
    adam = AdamState(**_read_scalars(AdamState, meta), m=m, v=v)
    if kind == "adam":
        return adam
    st = SwatsState(adam=adam, **_read_scalars(SwatsState, meta))
    if st.phase != (ADAM_PHASE if st.sgd_lr is None else SGD_PHASE):
        raise ContractError(f"swats phase {st.phase!r} does not fit sgd_lr {st.sgd_lr!r}")
    return st


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``;
    returns the pre-clip norm (computed at float64). A non-finite norm
    leaves the gradients as they are."""
    total = 0.0
    for g in grads.values():
        g64 = np.asarray(g).ravel().astype(np.float64)
        total += float(np.dot(g64, g64))
    norm = float(np.sqrt(total))
    if norm > max_norm and 0.0 < norm < math.inf:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
