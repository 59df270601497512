import numpy as np
import pytest

from probadapt.errors import ContractViolationError, TrainingDivergedError
from probadapt.optim import SgdState, sgd_step


def test_plain_sgd_is_param_minus_grad():
    params = {"w": np.array([[2.0, -1.0]])}
    sgd_step(params, {"w": np.array([[0.5, -0.5]])},
             SgdState(momentum=0.0, weight_decay=0.0), lr=1.0)
    assert np.array_equal(params["w"], np.array([[1.5, -0.5]]))


def test_momentum_recurrence_two_steps():
    # v1 = g, v2 = 0.9 g + g = 1.9 g; total displacement g + 1.9 g
    g = np.array([[1.0, 2.0]])
    params = {"w": np.zeros((1, 2))}
    state = SgdState(momentum=0.9, weight_decay=0.0)
    sgd_step(params, {"w": g}, state, lr=1.0)
    sgd_step(params, {"w": g}, state, lr=1.0)
    assert np.allclose(params["w"], -(g + 1.9 * g))


def test_weight_decay_formula():
    params = {"w": np.array([[1.0]])}
    sgd_step(params, {"w": np.array([[0.0]])},
             SgdState(momentum=0.0, weight_decay=5e-4), lr=1.0)
    assert params["w"][0, 0] == pytest.approx(0.9995)


def test_velocity_buffers_match_shapes():
    params = {"w": np.zeros((3, 2)), "b": np.zeros((1, 2))}
    grads = {"w": np.ones((3, 2)), "b": np.ones((1, 2))}
    state = SgdState()
    sgd_step(params, grads, state, lr=0.1)
    for name in params:
        assert state.velocities[name].shape == params[name].shape


def test_nonfinite_gradient_raises():
    params = {"w": np.ones((1, 1))}
    with pytest.raises(TrainingDivergedError):
        sgd_step(params, {"w": np.array([[np.nan]])}, SgdState(), lr=0.1)


def test_nonpositive_lr_rejected():
    with pytest.raises(ContractViolationError):
        sgd_step({"w": np.ones((1, 1))}, {"w": np.ones((1, 1))}, SgdState(), lr=0.0)


def test_velocity_update_matches_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    param = rng.normal(size=(4, 3))
    params = {"w": param.copy()}
    state = SgdState(momentum=0.9, weight_decay=5e-4)
    vel = np.zeros_like(param)
    for _ in range(5):
        grad = rng.normal(size=param.shape)
        sgd_step(params, {"w": grad}, state, lr=0.05)
        vel = 0.9 * vel + grad + 5e-4 * param
        param = param - 0.05 * vel
        assert np.array_equal(state.velocities["w"], vel)
        assert np.array_equal(params["w"], param)


def test_nonfinite_gradient_error_names_the_parameter():
    params = {"w": np.ones((1, 1)), "b": np.ones((1, 1))}
    with pytest.raises(TrainingDivergedError, match="parameter b"):
        sgd_step(params, {"w": np.ones((1, 1)), "b": np.array([[np.inf]])},
                 SgdState(), lr=0.1)
