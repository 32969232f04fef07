import pytest
from hypothesis import settings

from mcfc.codec import letter_plan, rgb_image_plan

# Property tests draw the same examples on every run (seeded from each test's
# source), so a pass or a failure repeats instead of depending on the draw.
# `pytest --hypothesis-profile=default` restores random exploration.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def rgb_plan():
    return rgb_image_plan()


@pytest.fixture(scope="session")
def letters():
    return letter_plan()
