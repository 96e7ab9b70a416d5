import numpy as np
import pytest
from hypothesis import settings

import poissonext as px
from poissonext import operators as _operators

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# no per-example deadline on a shared runner, and more examples than locally
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=1000)


@pytest.fixture(autouse=True)
def _clear_operator_cache():
    yield
    _operators.build_extension_operator.cache_clear()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def params_2d():
    return px.ProblemParams(2, 0.5)


@pytest.fixture(scope="session")
def params_3d():
    return px.ProblemParams(3, 0.0)


@pytest.fixture(scope="session")
def params_3d_neg():
    return px.ProblemParams(3, -0.5)


@pytest.fixture(scope="session")
def sphere_2d(params_2d):
    return px.build_sphere_quadrature(params_2d, 64)


@pytest.fixture(scope="session")
def ball_2d(params_2d):
    return px.build_ball_quadrature(params_2d, 96, 64)


@pytest.fixture(scope="session")
def op_2d(params_2d, sphere_2d, ball_2d):
    return px.ExtensionOperator(params_2d, sphere_2d, ball_2d)


@pytest.fixture(scope="session")
def sphere_3d(params_3d):
    return px.build_sphere_quadrature(params_3d, 8)


@pytest.fixture(scope="session")
def ball_3d(params_3d):
    return px.build_ball_quadrature(params_3d, 48, 8)


@pytest.fixture(scope="session")
def op_3d(params_3d, sphere_3d, ball_3d):
    return px.ExtensionOperator(params_3d, sphere_3d, ball_3d)
