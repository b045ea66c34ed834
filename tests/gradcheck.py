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


def source(chain, t):
    """``t`` as the first stage of ``chain``, an identity whose parameter
    is ``t``: the gradient of a Tensor that a stage reads as its input is
    then taken by name, as a weight's is."""
    if chain is not None:
        chain.add("source", lambda g: (g,), (t,))
    return t


def weighted_sum(chain, out, w):
    """sum(out * w), as the last stage of ``chain``. ``out`` is a Tensor
    or the bare array a block gives; ``w`` is a constant array of its
    size."""
    x = out.data if isinstance(out, T.Tensor) else out
    w = np.asarray(w, dtype=x.dtype).reshape(x.shape)
    if chain is not None:
        chain.add("weighted_sum", lambda _: (w,), ())
    return (x * w).sum()


def square_sum(chain, out):
    """sum(out * out), as the last stage of ``chain``; ``out`` as in
    ``weighted_sum``."""
    x = out.data if isinstance(out, T.Tensor) else out
    if chain is not None:
        chain.add("square_sum", lambda _: (x + x,), ())
    return (x * x).sum()


def kernel_op(kernel, *args):
    """An array kernel, which returns its output and backward, as a stage
    over its inputs, with ``args`` passed after their arrays: ``op(chain,
    *inputs)``. Tensor inputs are the stage's parameters; an array input,
    the output of the stage before, comes first."""
    def op(chain, *inputs):
        out, back = kernel(*(t.data if isinstance(t, T.Tensor) else t for t in inputs), *args)
        if chain is not None:
            chain.add(kernel.__name__, back, [t for t in inputs if isinstance(t, T.Tensor)])
        return out
    return op


def chain_grads(build, tensors):
    """The gradient of ``build(chain, *tensors)`` for each tensor, by
    ``backward`` over the chain it records; zeros for a tensor that no
    stage reads."""
    chain = T.Chain({str(i): t for i, t in enumerate(tensors)})
    build(chain, *tensors)
    grads = {}
    T.backward(chain, grads)
    return [grads.get(str(i), np.zeros_like(t.data)) for i, t in enumerate(tensors)]


def check_grads(build, arrays, tol: float = REL_TOL, h: float = H) -> None:
    """Verify the gradients of ``build(chain, *tensors)``, which records
    its stages on ``chain`` (None for a tape-free pass) and returns the
    scalar of its last, against full finite-difference Jacobians, input
    by input."""
    bases = [np.asarray(a, dtype=np.float64) for a in arrays]
    analytic = chain_grads(build, [T.Tensor(a) for a in bases])

    for i, (ana, base) in enumerate(zip(analytic, bases)):
        def f(x, i=i):
            vals = list(bases)
            vals[i] = x
            return float(build(None, *[T.Tensor(v) for v in vals]))
        num = numeric_grad(f, base, h)
        assert grad_close(ana, num, tol), (
            f"input {i}: analytic grad disagrees with finite differences\n"
            f"analytic:\n{ana}\nnumeric:\n{num}")
