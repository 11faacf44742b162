import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from disopt.objective import FeasibleSet, LocalObjective, make_objective, quadratic_suite

BOX2 = FeasibleSet(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]))


def test_interior_point_unchanged():
    h = np.array([0.5, -0.2])
    assert np.array_equal(BOX2.projection_error(h), np.zeros(2))
    assert np.array_equal(h - BOX2.projection_error(h), h)


def test_clamp_outside_point():
    h = np.array([2.0, -3.0])
    assert np.array_equal(h - BOX2.projection_error(h), np.array([1.0, -1.0]))


def test_projection_error_examples():
    box1 = FeasibleSet(lo=np.array([-1.0]), hi=np.array([1.0]))
    assert box1.projection_error(np.array([1.5])) == pytest.approx(0.5)
    box01 = FeasibleSet(lo=np.array([0.0]), hi=np.array([1.0]))
    assert box01.projection_error(np.array([-0.25])) == pytest.approx(-0.25)
    assert np.allclose(BOX2.projection_error(np.array([2.0, 2.0])), [1.0, 1.0])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="shape"):
        BOX2.projection_error(np.array([1.0, 2.0, 3.0]))
    # an array of points is checked by its trailing shape
    with pytest.raises(ValueError, match="shape"):
        BOX2.contains(np.zeros((3, 3)))
    assert BOX2.contains(np.zeros((3, 2))) and not BOX2.contains([[0.0, 0.0], [2.0, 0.0]])


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        2,
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
def test_projection_idempotent_and_feasible(h):
    once = h - BOX2.projection_error(h)
    assert np.array_equal(once - BOX2.projection_error(once), once)
    assert BOX2.contains(once)


def test_invalid_box_rejected():
    with pytest.raises(ValueError):
        FeasibleSet(lo=np.array([1.0]), hi=np.array([-1.0]))


# ---- quadratic suite -------------------------------------------------------


def test_suite_shares_one_quadratic_per_agent():
    objs = quadratic_suite(10, 1, FeasibleSet(lo=np.array([-1.0]), hi=np.array([1.0])))
    assert len(objs) == 10
    x = np.array([0.5])
    for obj in objs:
        assert obj.evaluate(x) == pytest.approx(0.125)
        assert obj.subgradient(x) == pytest.approx(0.5)
        assert obj.mu == 1.0 and obj.lipschitz == 1.0


def test_quadratic_subgrad_bound_is_box_corner_norm():
    box = FeasibleSet(lo=np.array([-1.0, -0.5]), hi=np.array([0.25, 1.0]))
    obj = make_objective("quadratic", 2, box)
    assert obj.subgrad_bound == pytest.approx(np.sqrt(1.0 + 1.0))
    # one network-wide bound on every agent's row
    state = np.array([[-1.0, 1.0], [0.25, -0.5], [0.0, 0.0]])
    assert np.linalg.norm(obj.subgradient(state), axis=1).max() <= obj.subgrad_bound


def test_box_must_contain_origin():
    box = FeasibleSet(lo=np.array([0.5]), hi=np.array([1.0]))
    with pytest.raises(ValueError, match="origin"):
        quadratic_suite(4, 1, box)


def test_make_objective_returns_origin_minimizer():
    box = FeasibleSet(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]))
    obj = make_objective("quadratic", 2, box)
    assert np.array_equal(obj.x_star, np.zeros(2)) and not obj.x_star.flags.writeable
    with pytest.raises(ValueError, match="unknown objective"):
        make_objective("rosenbrock", 2, box)


def test_metadata_constraints_enforced():
    valid = dict(
        dimension=1,
        evaluate=lambda x: 0.0,
        subgradient=lambda x: np.zeros(1),
        mu=1.0,
        lipschitz=1.0,
        subgrad_bound=1.0,
        x_star=np.zeros(1),
    )
    LocalObjective(**valid)
    with pytest.raises(ValueError):
        LocalObjective(**{**valid, "mu": 2.0})
    # a 2-vector x* in a p = 1 run would broadcast into every error column
    with pytest.raises(ValueError, match=r"x_star has shape \(2,\), expected \(1,\)"):
        LocalObjective(**{**valid, "x_star": np.array([0.0, 0.5])})


def test_strong_convexity_inequality_sampled(rng):
    """f(x) >= f(y) + g(y)^T (x - y) + (mu/2) ||x - y||^2 on random pairs."""
    box = FeasibleSet(lo=np.full(3, -1.0), hi=np.full(3, 1.0))
    obj = quadratic_suite(1, 3, box)[0]
    for _ in range(1000):
        x, y = rng.uniform(box.lo, box.hi), rng.uniform(box.lo, box.hi)
        lhs = obj.evaluate(x)
        rhs = (
            obj.evaluate(y)
            + obj.subgradient(y) @ (x - y)
            + 0.5 * obj.mu * np.sum((x - y) ** 2)
        )
        assert lhs >= rhs - 1e-12


def test_subgradient_inequality_and_bound_sampled(rng):
    box = FeasibleSet(lo=np.full(2, -1.0), hi=np.full(2, 1.0))
    obj = quadratic_suite(1, 2, box)[0]
    for _ in range(1000):
        x, y = rng.uniform(box.lo, box.hi), rng.uniform(box.lo, box.hi)
        assert obj.evaluate(y) >= obj.evaluate(x) + obj.subgradient(x) @ (y - x) - 1e-12
        assert np.linalg.norm(obj.subgradient(x)) <= obj.subgrad_bound + 1e-12


def test_gradient_matches_central_differences(rng):
    box = FeasibleSet(lo=np.full(4, -1.0), hi=np.full(4, 1.0))
    obj = quadratic_suite(1, 4, box)[0]
    eps = 1e-6
    for _ in range(100):
        x = 0.9 * rng.uniform(box.lo, box.hi)
        g = obj.subgradient(x)
        fd = np.empty_like(g)
        for d in range(4):
            step = np.zeros(4)
            step[d] = eps
            fd[d] = (obj.evaluate(x + step) - obj.evaluate(x - step)) / (2 * eps)
        denom = max(np.linalg.norm(g), 1e-8)
        assert np.linalg.norm(fd - g) / denom <= 1e-6
