"""Set-up shared by every test module."""

import pytest

from tropical_heights import lab


@pytest.fixture(autouse=True)
def _empty_schedule_cache():
    """Start each test with an empty degeneration-schedule cache, so that no
    verdict depends on which tests ran before it."""
    lab._schedule_constants.cache_clear()
