import gc

import pytest
from hypothesis import HealthCheck, settings

from varlam.env import standard_env

settings.register_profile(
    "varlam",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("varlam")


@pytest.fixture(scope="session")
def env():
    return standard_env()


@pytest.fixture
def collector():
    """Start with the cycle collector on; leave it as it was, whatever the test does."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()
