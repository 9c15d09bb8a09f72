import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from randdb import random_database as _random_database  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_collection_modifyitems(items):
    """A warning raised by a test under tests/ fails it; a test that expects one asserts it with
    `pytest.warns`, or ignores it by a `filterwarnings` mark, which takes precedence over this one."""
    for item in items:
        if item.path.is_relative_to(Path(__file__).parent):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def random_database():
    return _random_database
