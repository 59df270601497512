import numpy as np
import pytest

from probadapt.errors import ContractViolationError, TrainingDivergedError
from probadapt.optim import ParamGroup, SgdState, sgd_step


def test_plain_sgd_is_param_minus_grad():
    params = ParamGroup({"w": np.array([[2.0, -1.0]])})
    sgd_step([(params, np.array([0.5, -0.5]),
               SgdState(momentum=0.0, weight_decay=0.0), 1.0)])
    assert np.array_equal(params["w"], np.array([[1.5, -0.5]]))


def test_momentum_recurrence_two_steps():
    # v1 = g, v2 = 0.9 g + g = 1.9 g; total displacement g + 1.9 g
    g = np.array([[1.0, 2.0]])
    params = ParamGroup({"w": np.zeros((1, 2))})
    state = SgdState(momentum=0.9, weight_decay=0.0)
    sgd_step([(params, g.ravel(), state, 1.0)])
    sgd_step([(params, g.ravel(), state, 1.0)])
    assert np.allclose(params["w"], -(g + 1.9 * g))


def test_weight_decay_formula():
    params = ParamGroup({"w": np.array([[1.0]])})
    sgd_step([(params, np.array([0.0]), SgdState(momentum=0.0, weight_decay=5e-4), 1.0)])
    assert params["w"][0, 0] == pytest.approx(0.9995)


def test_velocity_buffers_match_shapes():
    params = ParamGroup({"w": np.zeros((3, 2)), "b": np.zeros((1, 2))})
    state = SgdState()
    sgd_step([(params, np.ones(8), state, 0.1)])
    assert state.velocity.shape == params.flat.shape
    for name, vel in params.views(state.velocity).items():
        assert vel.shape == params[name].shape


def test_nonfinite_gradient_raises():
    params = ParamGroup({"w": np.ones((1, 1))})
    with pytest.raises(TrainingDivergedError):
        sgd_step([(params, np.array([np.nan]), SgdState(), 0.1)])


def test_nonpositive_lr_rejected():
    with pytest.raises(ContractViolationError):
        sgd_step([(ParamGroup({"w": np.ones((1, 1))}), np.ones(1), SgdState(), 0.0)])


def test_gradient_outside_the_layout_rejected():
    with pytest.raises(ContractViolationError, match="gradient shape"):
        sgd_step([(ParamGroup({"w": np.ones((2, 2))}), np.ones((2, 2)), SgdState(), 0.1)])


def test_velocity_update_matches_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    ref = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3))}
    params = ParamGroup(ref)
    state = SgdState(momentum=0.9, weight_decay=5e-4)
    vel = {name: np.zeros_like(p) for name, p in ref.items()}
    for _ in range(5):
        grad = {name: rng.normal(size=p.shape) for name, p in ref.items()}
        sgd_step([(params, np.concatenate([g.ravel() for g in grad.values()]), state, 0.05)])
        for name in ref:
            vel[name] = 0.9 * vel[name] + grad[name] + 5e-4 * ref[name]
            ref[name] = ref[name] - 0.05 * vel[name]
            assert np.array_equal(params.views(state.velocity)[name], vel[name])
            assert np.array_equal(params[name], ref[name])


def test_nonfinite_gradient_error_names_the_parameter():
    params = ParamGroup({"w": np.ones((1, 1)), "b": np.ones((1, 1))})
    with pytest.raises(TrainingDivergedError, match="parameter b"):
        sgd_step([(params, np.array([1.0, np.inf]), SgdState(), 0.1)])


def test_nonfinite_gradient_steps_no_group():
    # the bad gradient is in the second group and in the second tensor: no
    # parameter and no velocity may move, including those checked before it
    rng = np.random.default_rng(4)
    first = ParamGroup({"w": rng.normal(size=(2, 3)), "b": rng.normal(size=(1, 3))})
    second = ParamGroup({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(1, 2))})
    warm, fresh = SgdState(), SgdState()
    sgd_step([(first, rng.normal(size=9), warm, 0.1)])
    before = (first.flat.copy(), second.flat.copy(), warm.velocity.copy())
    bad = rng.normal(size=8)
    bad[7] = np.inf
    with pytest.raises(TrainingDivergedError, match="parameter b"):
        sgd_step([(first, rng.normal(size=9), warm, 0.1), (second, bad, fresh, 0.1)])
    assert first.flat.tobytes() == before[0].tobytes()
    assert second.flat.tobytes() == before[1].tobytes()
    assert warm.velocity.tobytes() == before[2].tobytes()
    assert fresh.velocity is None


def test_group_names_are_views_of_the_flat_vector():
    params = ParamGroup({"w": np.arange(6.0).reshape(2, 3), "b": np.array([[7.0, 8.0, 9.0]])})
    assert np.array_equal(params.flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0])
    for view in params.values():
        assert np.shares_memory(view, params.flat)
    copy = params.copy()
    params.flat += 1.0
    assert np.array_equal(params["b"], [[8.0, 9.0, 10.0]])
    assert np.array_equal(copy["b"], [[7.0, 8.0, 9.0]])
    assert not np.shares_memory(copy.flat, params.flat)
