import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from twostage import contracts, interim_review_instance, midterm_instance


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


@pytest.fixture
def record_programs(monkeypatch):
    """``record(*names)`` makes each named solver entry of ``twostage.contracts``
    append (name, program, result) to the list it returns, for every program
    handed to it."""

    def record(*names):
        handed = []
        for name in names:
            entry = getattr(contracts, name)

            def recording(lp, name=name, entry=entry):
                result = entry(lp)
                handed.append((name, lp, result))
                return result

            monkeypatch.setattr(contracts, name, recording)
        return handed

    return record
