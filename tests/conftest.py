"""Fixtures shared across test modules."""

import os

import pytest

import netident
from netident import identifiability


@pytest.fixture(autouse=True)
def forget_the_last_local_rank():
    """Start every test with no local rank remembered by ``identifiability._local_rank``.

    A test that patches or counts samples then sees the same calls
    whichever test ran before it.
    """
    identifiability._local_rank.cache_clear()


@pytest.fixture
def cli_env():
    """Environment for a `python -m netident` child process.

    Puts the directory holding the imported `netident` package ahead of any
    inherited PYTHONPATH, so the child runs the same source the suite is
    testing whatever its working directory, and whether the package was made
    importable by a (possibly relative) PYTHONPATH or by an install.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(netident.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    path = package_root if not inherited else os.pathsep.join([package_root, inherited])
    return {**os.environ, "PYTHONPATH": path}
