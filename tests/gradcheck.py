"""Finite-difference gradient oracles shared by the test suite.

Analytic gradients are checked against central differences computed at
float64 with step 1e-5. A coordinate passes when the absolute difference
is below 1e-8 or the relative difference is below the tolerance.
"""

import numpy as np

from sebertnets import tensor as T

H = 1e-5
REL_TOL = 1e-5
ABS_FLOOR = 1e-8


def grad_close(analytic: np.ndarray, numeric: np.ndarray,
               tol: float = REL_TOL, abs_floor: float = ABS_FLOOR) -> bool:
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff < abs_floor) | (diff / np.maximum(denom, 1e-300) < tol)
    return bool(ok.all())


def numeric_grad(f, x: np.ndarray, h: float = H) -> np.ndarray:
    """Full central-difference gradient of scalar ``f`` at ``x`` (fp64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"], op_flags=["readonly"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def numeric_grad_at(f, x: np.ndarray, coords, h: float = H) -> np.ndarray:
    """Central differences at selected flat coordinates only."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel().copy()
    out = np.zeros(len(coords))
    for j, c in enumerate(coords):
        fp = flat.copy()
        fp[c] += h
        fm = flat.copy()
        fm[c] -= h
        out[j] = (f(fp.reshape(x.shape)) - f(fm.reshape(x.shape))) / (2.0 * h)
    return out


def weighted_sum(out, w):
    """sum(out * w) as a 0-d Tensor, one test-side op over ``out``.
    ``out`` may be a bare array, as a block gives where no tape records
    it; ``w`` is a constant array of its size."""
    out = out if isinstance(out, T.Tensor) else T.Tensor(out)
    w = np.asarray(w, dtype=out.dtype).reshape(out.shape)
    return T._make((out,), np.asarray((out.data * w).sum(), dtype=out.dtype),
                   lambda g: (g * w,))


def square_sum(out):
    """sum(out * out) as a 0-d Tensor; ``out`` as in ``weighted_sum``."""
    out = out if isinstance(out, T.Tensor) else T.Tensor(out)
    x = out.data
    return T._make((out,), np.asarray((x * x).sum(), dtype=out.dtype),
                   lambda g: (g * (x + x),))


def kernel_op(kernel, *args):
    """An array kernel, which returns its output and backward, as a tape
    op over Tensor inputs, with ``args`` passed after their arrays."""
    def op(*tensors):
        out, back = kernel(*(t.data for t in tensors), *args)
        return T._make(tensors, out, back)
    return op


def check_grads(build, arrays, tol: float = REL_TOL, h: float = H) -> None:
    """Verify analytic grads of ``build(*tensors) -> scalar Tensor``
    against full finite-difference Jacobians, input by input."""
    bases = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [T.Tensor(a, requires_grad=True) for a in bases]
    with T.Tape() as tape:
        loss = build(*tensors)
    T.backward(tape, loss)

    for i, (t, base) in enumerate(zip(tensors, bases)):
        def f(x, i=i):
            vals = list(bases)
            vals[i] = x
            return float(build(*[T.Tensor(v) for v in vals]).data)
        num = numeric_grad(f, base, h)
        ana = t.grad if t.grad is not None else np.zeros_like(base)
        assert grad_close(ana, num, tol), (
            f"input {i}: analytic grad disagrees with finite differences\n"
            f"analytic:\n{ana}\nnumeric:\n{num}")
