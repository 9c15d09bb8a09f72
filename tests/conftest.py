import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import relgnn  # noqa: E402
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


@pytest.fixture
def cold_python():
    """Runs `python <argv>` in a new process that imports the same relgnn as this one, and returns its
    stdout; a non-zero exit fails the test. What a command imports shows only in a process of its own."""
    source = str(Path(relgnn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}

    def run(*argv) -> str:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
