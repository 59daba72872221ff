"""AMSGrad update rule: hand-computed step, invariants, convergence."""
import numpy as np
import pytest

from cascade_gnn.optim import NumericError, OptimizerState, amsgrad_step


@pytest.mark.parametrize("zero", [np.zeros(3), None], ids=["zeros", "None"])
def test_zero_gradient_leaves_params_unchanged(zero):
    params = np.array([1.0, -2.0, 3.0])
    state = OptimizerState(learning_rate=0.1)
    amsgrad_step(params, zero, state)
    np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])


def test_hand_computed_first_step():
    # theta=1, g=1, lr=0.1, b1=0.9, b2=0.999, eps=1e-8:
    # m=0.1, v=0.001, v_hat=0.001, theta = 1 - 0.1*0.1/(sqrt(0.001)+1e-8)
    params = np.array([1.0])
    state = OptimizerState(learning_rate=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    amsgrad_step(params, np.array([1.0]), state)
    expected = 1.0 - 0.1 * 0.1 / (np.sqrt(0.001) + 1e-8)
    assert expected == pytest.approx(0.68377, abs=1e-5)
    assert params[0] == pytest.approx(expected, abs=1e-12)
    assert state.m[0] == pytest.approx(0.1)
    assert state.v[0] == pytest.approx(0.001)
    assert state.v_hat[0] == pytest.approx(0.001)
    assert state.step_count == 1


def test_v_hat_monotone_over_random_steps():
    rng = np.random.default_rng(0)
    params = np.zeros(4)
    state = OptimizerState(learning_rate=1e-3)
    prev = np.zeros(4)
    for _ in range(10_000):
        amsgrad_step(params, rng.normal(size=4) * rng.exponential(1.0), state)
        assert (state.v_hat >= prev - 0.0).all()
        assert (state.v_hat >= state.v - 1e-18).all()
        prev = state.v_hat.copy()


def test_quadratic_bowl_convergence():
    # f(theta) = (theta - 3)^2, gradient 2(theta - 3)
    params = np.array([0.0])
    state = OptimizerState(learning_rate=0.01)
    for _ in range(5000):
        g = 2.0 * (params - 3.0)
        amsgrad_step(params, g, state)
    assert abs(params[0] - 3.0) < 1e-2


def test_non_finite_gradient_raises():
    params = np.array([1.0])
    state = OptimizerState()
    with pytest.raises(NumericError):
        amsgrad_step(params, np.array([np.nan]), state)
    # and the state must not have been advanced
    assert state.step_count == 0


@pytest.mark.parametrize("index, name", [(0, "'a'"), (1, "'a'"), (2, "'b'"), (4, "'b'"),
                                         (5, "'c'")])
def test_non_finite_gradient_names_its_parameter(index, name):
    state = OptimizerState(layout=(("a", 2), ("b", 3), ("c", 1)))
    params = np.zeros(6)
    for g in (None, np.ones(6), None, None):
        amsgrad_step(params, g, state)
    before = [a.tobytes() for a in (params, state.m, state.v, state.v_hat, state.den)]
    g = np.ones(6)
    g[index] = np.inf
    g[index + 1:] = np.nan  # only the first bad value names the parameter
    with pytest.raises(NumericError, match=f"^non-finite gradient for parameter {name}$"):
        amsgrad_step(params, g, state)
    # a failed step changes nothing, bit for bit
    assert state.step_count == 4
    assert [a.tobytes() for a in (params, state.m, state.v, state.v_hat, state.den)] == before


def zero_step(step):
    # every third step, the first two of a fresh state and a run of five
    return step % 3 == 0 or step == 1 or 150 <= step < 155


def test_matches_the_plain_update_expressions_bit_for_bit():
    # amsgrad_step runs over one flat vector in preallocated buffers, and
    # takes None for a zero gradient; the values must be those of the
    # docstring's expressions evaluated per parameter with temporaries on
    # explicit +0.0 gradients, signs of zeros included
    rng = np.random.default_rng(2)
    shapes = {"w": (7, 5), "a": (12, 1), "b": (1, 5)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    params["a"][::3] = -0.0
    ref = {k: v.copy() for k, v in params.items()}
    theta = np.concatenate(list(params.values()), axis=None)
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    v_hat = {k: np.zeros(s) for k, s in shapes.items()}
    state = OptimizerState(learning_rate=1e-2)
    for step in range(300):
        if zero_step(step):
            grads = {k: np.zeros(s) for k, s in shapes.items()}
            amsgrad_step(theta, None, state)
        else:
            grads = {k: rng.normal(size=s) * rng.exponential() for k, s in shapes.items()}
            amsgrad_step(theta, np.concatenate(list(grads.values()), axis=None), state)
        for k, g in grads.items():
            m[k] = state.beta1 * m[k] + (1.0 - state.beta1) * g
            v[k] = state.beta2 * v[k] + (1.0 - state.beta2) * g * g
            v_hat[k] = np.maximum(v_hat[k], v[k])
            ref[k] = ref[k] - state.learning_rate * m[k] / (np.sqrt(v_hat[k]) + state.eps)
    assert state.step_count == 300
    for got, want in ((theta, ref), (state.m, m), (state.v, v), (state.v_hat, v_hat)):
        want = np.concatenate(list(want.values()), axis=None)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(state.den, np.sqrt(state.v_hat) + state.eps)
