"""Shared fixtures for the test suite; the shared builders are in
``gamblers``."""

import pytest


@pytest.fixture
def tmp_seq(tmp_path):
    return tmp_path / "seq.seq"
