"""Shared fixtures for the whole suite."""

from __future__ import annotations

import pytest

from ebp.client import drain_pool


@pytest.fixture(autouse=True)
def _drain_session_pool():
    """Close pooled sessions after each test so none reaches the next test's depots."""
    yield
    drain_pool()
