import pytest
from hypothesis import HealthCheck, settings

from starcone import build_fiber

from helpers import suite_instances

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def suite():
    """The acceptance suite: 20 seeded random block instances and their builds."""
    instances = suite_instances(20, seed=20260819)
    return [(inst, build_fiber(inst)) for inst in instances]
