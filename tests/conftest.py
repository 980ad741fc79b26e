"""Checks that every test gets."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """A test must reap every child process it starts: none may be left
    running, and no zombie either."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
