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
    handed to it.  The program is the one argument of ``solve_lp``, a
    ``LinearProgram``, and the tuple of arguments of ``_dual_value``, the
    program's integer form."""

    def record(*names):
        handed = []
        for name in names:
            entry = getattr(contracts, name)

            def recording(*program, name=name, entry=entry):
                result = entry(*program)
                handed.append((name, program[0] if len(program) == 1 else program, result))
                return result

            monkeypatch.setattr(contracts, name, recording)
        return handed

    return record


@pytest.fixture
def record_linear_programs(monkeypatch):
    """``record()`` makes ``contracts._Compiled.program`` append to the list it
    returns, for every program it builds, the ``LinearProgram`` that
    ``contracts._linear_program`` makes of it: the program as ``solve_lp``
    gets it when it re-solves."""

    def record():
        built = []
        build = contracts._Compiled.program

        def recording(compiled, profile, with_state_transfers):
            program = build(compiled, profile, with_state_transfers)
            built.append(contracts._linear_program(*program))
            return program

        monkeypatch.setattr(contracts._Compiled, "program", recording)
        return built

    return record
