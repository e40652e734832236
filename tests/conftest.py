import numpy as np
import pytest
from hypothesis import settings

from gtbsplines import build_space
from gtbsplines.config import conic_profile_demo_config, mixed_family_demo_config

# No example database: a checkout's verdict does not depend on examples a
# past run stored in its own .hypothesis/ directory.  A failure prints the
# blob that replays it (@reproduce_failure).  Each test sets its own
# max_examples and deadline.
settings.register_profile("gtbsplines", database=None, print_blob=True)
settings.load_profile("gtbsplines")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def mixed_space():
    return build_space(mixed_family_demo_config())


@pytest.fixture(scope="session")
def profile_config():
    return conic_profile_demo_config()


@pytest.fixture(scope="session")
def profile_space(profile_config):
    return build_space(profile_config)
