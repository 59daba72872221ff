"""AMSGrad update rule: hand-computed step, invariants, convergence."""
import numpy as np
import pytest

from cascade_gnn.optim import NumericError, OptimizerState, amsgrad_step


def test_zero_gradient_leaves_params_unchanged():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = OptimizerState(learning_rate=0.1)
    amsgrad_step(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])


def test_hand_computed_first_step():
    # theta=1, g=1, lr=0.1, b1=0.9, b2=0.999, eps=1e-8:
    # m=0.1, v=0.001, v_hat=0.001, theta = 1 - 0.1*0.1/(sqrt(0.001)+1e-8)
    params = {"w": np.array([1.0])}
    state = OptimizerState(learning_rate=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    amsgrad_step(params, {"w": np.array([1.0])}, state)
    expected = 1.0 - 0.1 * 0.1 / (np.sqrt(0.001) + 1e-8)
    assert expected == pytest.approx(0.68377, abs=1e-5)
    assert params["w"][0] == pytest.approx(expected, abs=1e-12)
    assert state.m["w"][0] == pytest.approx(0.1)
    assert state.v["w"][0] == pytest.approx(0.001)
    assert state.v_hat["w"][0] == pytest.approx(0.001)
    assert state.step_count == 1


def test_v_hat_monotone_over_random_steps():
    rng = np.random.default_rng(0)
    params = {"w": np.zeros(4)}
    state = OptimizerState(learning_rate=1e-3)
    prev = np.zeros(4)
    for _ in range(10_000):
        amsgrad_step(params, {"w": rng.normal(size=4) * rng.exponential(1.0)}, state)
        assert (state.v_hat["w"] >= prev - 0.0).all()
        assert (state.v_hat["w"] >= state.v["w"] - 1e-18).all()
        prev = state.v_hat["w"].copy()


def test_quadratic_bowl_convergence():
    # f(theta) = (theta - 3)^2, gradient 2(theta - 3)
    params = {"w": np.array([0.0])}
    state = OptimizerState(learning_rate=0.01)
    for _ in range(5000):
        g = 2.0 * (params["w"] - 3.0)
        amsgrad_step(params, {"w": g}, state)
    assert abs(params["w"][0] - 3.0) < 1e-2


def test_non_finite_gradient_raises():
    params = {"w": np.array([1.0])}
    state = OptimizerState()
    with pytest.raises(NumericError):
        amsgrad_step(params, {"w": np.array([np.nan])}, state)
    # and the state must not have been advanced
    assert state.step_count == 0


def test_state_roundtrip():
    params = {"w": np.array([1.0, 2.0])}
    state = OptimizerState(learning_rate=0.05)
    rng = np.random.default_rng(1)
    for _ in range(5):
        amsgrad_step(params, {"w": rng.normal(size=2)}, state)
    clone = OptimizerState.from_dict(state.to_dict())
    assert clone.step_count == state.step_count
    np.testing.assert_array_equal(clone.m["w"], state.m["w"])
    np.testing.assert_array_equal(clone.v_hat["w"], state.v_hat["w"])


def test_matches_the_plain_update_expressions_bit_for_bit():
    # amsgrad_step works in preallocated buffers; the values must be those
    # of the docstring's expressions evaluated with temporaries
    rng = np.random.default_rng(2)
    shapes = {"w": (7, 5), "a": (12, 1), "b": (1, 5)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    v_hat = {k: np.zeros(s) for k, s in shapes.items()}
    state = OptimizerState(learning_rate=1e-2)
    for step in range(300):
        grads = {k: rng.normal(size=s) * rng.exponential() * (step % 3 != 0)
                 for k, s in shapes.items()}
        amsgrad_step(params, grads, state)
        for k, g in grads.items():
            m[k] = state.beta1 * m[k] + (1.0 - state.beta1) * g
            v[k] = state.beta2 * v[k] + (1.0 - state.beta2) * g * g
            v_hat[k] = np.maximum(v_hat[k], v[k])
            ref[k] = ref[k] - state.learning_rate * m[k] / (np.sqrt(v_hat[k]) + state.eps)
    for k in shapes:
        assert np.array_equal(params[k], ref[k])
        assert np.array_equal(state.m[k], m[k])
        assert np.array_equal(state.v_hat[k], v_hat[k])
