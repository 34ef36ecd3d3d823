import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from twostage import interim_review_instance, midterm_instance


@pytest.fixture(scope="session")
def midterm():
    return midterm_instance()


@pytest.fixture(scope="session")
def interim_review():
    return interim_review_instance()


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter: ``PYTHONPATH`` starts with this
    checkout's ``src``, so the child imports the ``twostage`` under test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
