"""Optimizer tests.

The SWATS switch step and rate oracles below were produced by a
straight-line float64 reference run (re-executed inline here) and are
frozen as constants so a regression in either the kernel arithmetic or
the switch rule shows up as a changed step index or rate.
"""

import pickle

import numpy as np
import pytest

from sebertnets.errors import ContractError, DivergenceError
from sebertnets.optim import (
    AdamState,
    SgdState,
    SwatsState,
    adam_step,
    apply_step,
    clip_global_norm,
    make_state,
    sgd_step,
    swats_step,
)
from sebertnets.tensor import Tensor


def make_params(rng, shapes, dtype=np.float64):
    return {
        f"p{i}": Tensor(rng.standard_normal(s).astype(dtype))
        for i, s in enumerate(shapes)
    }


# ---------------------------------------------------------------- Adam


def test_adam_single_step_from_zero():
    # theta=0, g=1, defaults: m_hat ~ 1, v_hat = 1 exactly, so the step
    # is -lr / (1 + eps), within an ulp of -0.001.
    p = Tensor(np.zeros(1, dtype=np.float64))
    st = AdamState()
    adam_step({"p": p}, {"p": np.ones(1)}, st)
    assert st.k == 1
    assert p.data[0] < 0.0
    assert np.isclose(p.data[0], -0.001, rtol=1e-6)


def ref_adam(thetas, grad_fn, lr, beta1, beta2, eps, steps):
    """Straight-line float64 Adam on a list of arrays."""
    thetas = [t.copy() for t in thetas]
    ms = [np.zeros_like(t) for t in thetas]
    vs = [np.zeros_like(t) for t in thetas]
    for k in range(1, steps + 1):
        grads = grad_fn(thetas)
        for i in range(len(thetas)):
            g = grads[i]
            ms[i] = beta1 * ms[i] + (1.0 - beta1) * g
            vs[i] = beta2 * vs[i] + (1.0 - beta2) * (g * g)
            m_hat = ms[i] / (1.0 - beta1 ** k)
            v_hat = vs[i] / (1.0 - beta2 ** k)
            thetas[i] = thetas[i] + (-lr * m_hat) / (np.sqrt(v_hat) + eps)
    return thetas


def test_adam_matches_reference_bitwise():
    rng = np.random.default_rng(7)
    shapes = [(3, 4), (5,), ()]
    params = make_params(rng, shapes)
    start = [params[f"p{i}"].data.copy() for i in range(len(shapes))]
    targets = [rng.standard_normal(s) for s in shapes]

    def grad_fn(thetas):
        return [t - tgt for t, tgt in zip(thetas, targets)]

    st = AdamState(lr=0.005)
    for _ in range(50):
        grads = {
            f"p{i}": params[f"p{i}"].data - targets[i] for i in range(len(shapes))
        }
        adam_step(params, grads, st)
    expect = ref_adam(start, grad_fn, 0.005, 0.9, 0.999, 1e-8, 50)
    for i in range(len(shapes)):
        assert np.array_equal(params[f"p{i}"].data, expect[i])


def test_adam_preserves_dtype():
    p = Tensor(np.ones((2, 2), dtype=np.float32))
    st = AdamState()
    adam_step({"p": p}, {"p": np.ones((2, 2), dtype=np.float32)}, st)
    # moments and updates run at the wider precision numpy promotes to;
    # the state buffers keep the param dtype on first touch
    assert st.m["p"].dtype == np.float64 or st.m["p"].dtype == np.float32


def test_adam_rejects_nonfinite_gradient():
    p = Tensor(np.zeros(2))
    st = AdamState()
    with pytest.raises(DivergenceError, match="p"):
        adam_step({"p": p}, {"p": np.array([1.0, np.nan])}, st)
    with pytest.raises(DivergenceError):
        adam_step({"p": p}, {"p": np.array([np.inf, 0.0])}, st)


@pytest.mark.parametrize("make", [
    AdamState,
    lambda: SgdState(lr=0.1),
    SwatsState,
    lambda: SwatsState(phase="sgd", sgd_lr=0.1),
], ids=["adam", "sgd", "swats-adam-phase", "swats-sgd-phase"])
def test_rejected_step_changes_no_state(make):
    # the bad gradient is the second one: the first param must not move
    # and no step count, moment or SWATS estimate may change either
    rng = np.random.default_rng(8)
    params = make_params(rng, [(3,), (2, 2)])
    st = make()
    apply_step(params, {n: rng.standard_normal(p.shape) for n, p in params.items()}, st)
    grads = {n: rng.standard_normal(p.shape) for n, p in params.items()}
    grads["p1"][1, 0] = np.nan
    before = pickle.dumps((params, st))
    with pytest.raises(DivergenceError, match="p1"):
        apply_step(params, grads, st)
    assert pickle.dumps((params, st)) == before


# ----------------------------------------------------------------- SGD


def test_sgd_step_exact():
    p = Tensor(np.array([1.0, -2.0]))
    sgd_step({"p": p}, {"p": np.array([0.5, 0.5])}, SgdState(lr=0.1))
    assert np.array_equal(p.data, np.array([1.0, -2.0]) - 0.1 * np.array([0.5, 0.5]))


def test_sgd_rejects_nonfinite_gradient():
    p = Tensor(np.zeros(1))
    with pytest.raises(DivergenceError):
        sgd_step({"p": p}, {"p": np.array([np.nan])}, SgdState(lr=0.1))


# --------------------------------------------------------------- SWATS


def ref_swats_quadratic(theta0, lr, eps_switch, max_steps):
    """Straight-line float64 SWATS on f(theta) = 0.5 * sum(theta^2).

    Returns (k_star, switch_rate, trajectory) where trajectory[k] is
    theta after step k (trajectory[0] is the start point).
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta = np.asarray(theta0, dtype=np.float64).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    lam = 0.0
    phase = "adam"
    rate = None
    k_star = None
    traj = [theta.copy()]
    for k in range(1, max_steps + 1):
        g = theta.copy()
        if phase == "adam":
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1 ** k)
            v_hat = v / (1.0 - beta2 ** k)
            p = (-lr * m_hat) / (np.sqrt(v_hat) + eps)
            theta = theta + p
            pg = float(np.dot(p, g))
            if pg != 0.0:
                gamma = -float(np.dot(p, p)) / pg
                lam = beta2 * lam + (1.0 - beta2) * gamma
                lam_hat = lam / (1.0 - beta2 ** k)
                if k > 1 and abs(lam_hat - gamma) < eps_switch:
                    phase = "sgd"
                    rate = lam_hat
                    k_star = k
        else:
            theta = theta - rate * g
        traj.append(theta.copy())
    return k_star, rate, traj


def run_swats_quadratic(theta0, lr, eps_switch, max_steps):
    theta = Tensor(np.asarray(theta0, dtype=np.float64).copy())
    st = SwatsState(adam=AdamState(lr=lr), eps_switch=eps_switch)
    k_star = None
    traj = [theta.data.copy()]
    for k in range(1, max_steps + 1):
        swats_step({"theta": theta}, {"theta": theta.data.copy()}, st)
        if k_star is None and st.phase == "sgd":
            k_star = k
        traj.append(theta.data.copy())
    return k_star, st, traj


def test_swats_scalar_quadratic_frozen_oracle():
    # frozen from the float64 reference: eps_switch=1e-4 switches at
    # step 2 with rate 0.010049142704543938
    k_star, st, _ = run_swats_quadratic([1.0], 0.01, 1e-4, 50)
    assert k_star == 2
    assert st.phase == "sgd"
    assert st.sgd_lr == 0.010049142704543938
    assert st.sgd_lr > 0.0


def test_swats_scalar_quadratic_tight_threshold():
    # a much tighter threshold delays the switch to step 3984
    k_star, st, traj = run_swats_quadratic([1.0], 0.01, 3e-5, 4200)
    assert k_star == 3984
    assert st.sgd_lr == 0.11100624900353032
    ref_k, ref_rate, ref_traj = ref_swats_quadratic([1.0], 0.01, 3e-5, 4200)
    assert ref_k == k_star and ref_rate == st.sgd_lr
    for got, want in zip(traj, ref_traj):
        assert np.array_equal(got, want)


def test_swats_matches_reference_10d():
    theta0 = np.random.default_rng(0).standard_normal(10)
    k_star, st, traj = run_swats_quadratic(theta0, 0.01, 1e-4, 200)
    assert k_star == 11
    assert st.sgd_lr == 0.017048684171833396
    ref_k, ref_rate, ref_traj = ref_swats_quadratic(theta0, 0.01, 1e-4, 200)
    assert ref_k == k_star and ref_rate == st.sgd_lr
    for got, want in zip(traj, ref_traj):
        assert np.array_equal(got, want)


def test_swats_pre_switch_is_pure_adam():
    theta0 = np.random.default_rng(0).standard_normal(10)
    _, _, swats_traj = run_swats_quadratic(theta0, 0.01, 1e-4, 11)

    p = Tensor(theta0.copy())
    st = AdamState(lr=0.01)
    adam_traj = [p.data.copy()]
    for _ in range(11):
        adam_step({"theta": p}, {"theta": p.data.copy()}, st)
        adam_traj.append(p.data.copy())
    # the switch is decided after the step is applied, so every point
    # through step k* is bit-identical to pure Adam
    for got, want in zip(swats_traj, adam_traj):
        assert np.array_equal(got, want)


def test_swats_post_switch_is_pure_sgd():
    theta0 = np.random.default_rng(0).standard_normal(10)
    k_star, st, swats_traj = run_swats_quadratic(theta0, 0.01, 1e-4, 60)
    assert k_star == 11

    p = Tensor(swats_traj[k_star].copy())
    sgd = SgdState(lr=st.sgd_lr)
    for step in range(k_star + 1, 61):
        sgd_step({"theta": p}, {"theta": p.data.copy()}, sgd)
        assert np.array_equal(p.data, swats_traj[step])


def test_swats_never_reverts():
    theta0 = np.random.default_rng(0).standard_normal(10)
    theta = Tensor(theta0.copy())
    st = SwatsState(adam=AdamState(lr=0.01), eps_switch=1e-4)
    switched_at = None
    for k in range(1, 2001):
        swats_step({"theta": theta}, {"theta": theta.data.copy()}, st)
        if switched_at is None and st.phase == "sgd":
            switched_at = k
        if switched_at is not None:
            assert st.phase == "sgd"
            assert st.sgd_lr == st.sgd_lr  # stays finite, never NaN
    assert switched_at is not None
    assert float(np.abs(theta.data).max()) < 1e-12


def test_swats_zero_projection_skips_rate_update():
    # zero gradient at step 1 gives a zero step, so p.g = 0 and the
    # rate estimate must be left untouched rather than divided by zero
    theta = Tensor(np.ones(3))
    st = SwatsState(adam=AdamState(lr=0.01), eps_switch=1e-4)
    swats_step({"theta": theta}, {"theta": np.zeros(3)}, st)
    assert st.phase == "adam"
    assert st.lam == 0.0
    assert np.array_equal(theta.data, np.ones(3))


def test_swats_multi_param_switches():
    rng = np.random.default_rng(3)
    params = make_params(rng, [(4,), (2, 3)])
    st = SwatsState(adam=AdamState(lr=0.01), eps_switch=1e-4)
    for _ in range(500):
        grads = {name: p.data.copy() for name, p in params.items()}
        swats_step(params, grads, st)
        if st.phase == "sgd":
            break
    assert st.phase == "sgd"
    assert st.sgd_lr > 0.0


# ------------------------------------------------------------ plumbing


def test_apply_step_dispatch():
    p = Tensor(np.ones(2))
    g = {"p": np.ones(2)}
    apply_step({"p": p}, g, AdamState())
    apply_step({"p": p}, g, SgdState(lr=0.1))
    apply_step({"p": p}, g, SwatsState())
    with pytest.raises(ContractError):
        apply_step({"p": p}, g, object())


def test_make_state():
    assert isinstance(make_state("adam"), AdamState)
    assert isinstance(make_state("sgd"), SgdState)
    sw = make_state("swats", lr=0.01, eps_switch=1e-4)
    assert isinstance(sw, SwatsState)
    assert sw.adam.lr == 0.01 and sw.eps_switch == 1e-4
    with pytest.raises(ContractError, match="rmsprop"):
        make_state("rmsprop")


_NAN, _INF = float("nan"), float("inf")
_RATES = {"adam-lr": lambda v: AdamState(lr=v), "sgd-lr": lambda v: SgdState(lr=v),
          "swats-eps-switch": lambda v: SwatsState(eps_switch=v),
          "swats-lr": lambda v: make_state("swats", lr=v)}


@pytest.mark.parametrize("build, value, match", [
    *[pytest.param(build, v, "finite and >= 0", id=f"{name}-{v}")
      for name, build in _RATES.items() for v in (-0.001, _NAN, _INF)],
    *[pytest.param(lambda v, n=n: AdamState(**{n: v}), v, n + r" must be in \[0, 1\)",
                   id=f"adam-{n}-{v}")
      for n in ("beta1", "beta2") for v in (-0.001, 1.0, 2.0, _NAN)],
    *[pytest.param(lambda v: AdamState(eps=v), v, "finite and > 0", id=f"adam-eps-{v}")
      for v in (0.0, -1e-8, _NAN, _INF)],
    *[pytest.param(lambda v: SwatsState(phase="sgd", sgd_lr=v), v, "sgd_lr must be finite",
                   id=f"swats-sgd-lr-{v}") for v in (_NAN, _INF, -_INF)],
    *[pytest.param(lambda v: SwatsState(lam=v), v, "lam must be finite",
                   id=f"swats-lam-{v}") for v in (_NAN, _INF, -_INF)],
    *[pytest.param(lambda v: AdamState(k=v), v, "k must be an int >= 0", id=f"adam-k-{v}")
      for v in (-1, -5, 1.0, True)],
])
def test_state_rejects_negative_or_nonfinite_rate(build, value, match):
    with pytest.raises(ContractError, match=match):
        build(value)


def test_clip_global_norm_scales_down():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == 5.0
    clipped = float(
        np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    )
    assert np.isclose(clipped, 1.0, rtol=1e-12)
    assert np.allclose(grads["a"], [0.6, 0.0], rtol=1e-12)


def test_clip_global_norm_leaves_small_gradients():
    a = np.array([0.3, 0.4])
    grads = {"a": a.copy()}
    norm = clip_global_norm(grads, 5.0)
    assert np.isclose(norm, 0.5)
    assert np.array_equal(grads["a"], a)


def test_clip_global_norm_zero_is_noop():
    grads = {"a": np.zeros(4)}
    assert clip_global_norm(grads, 5.0) == 0.0
    assert np.array_equal(grads["a"], np.zeros(4))


def test_clip_global_norm_nonfinite_is_noop():
    grads = {"a": np.array([np.inf, 1.0]), "b": np.array([2.0])}
    with np.errstate(all="raise"):
        assert clip_global_norm(grads, 1.0) == np.inf
    assert np.array_equal(grads["a"], [np.inf, 1.0])
    assert np.array_equal(grads["b"], [2.0])


def test_clip_preserves_dtype_inplace():
    g = np.full((3,), 10.0, dtype=np.float32)
    grads = {"g": g}
    clip_global_norm(grads, 1.0)
    assert grads["g"] is g
    assert g.dtype == np.float32
    assert np.isclose(float(np.sqrt(np.sum(g.astype(np.float64) ** 2))), 1.0, rtol=1e-6)
