"""Shared fixtures for the whole suite."""

from __future__ import annotations

import socket
from collections import Counter

import pytest

import ebp.client as client_mod


@pytest.fixture(autouse=True)
def _drain_session_pool():
    """Close pooled sessions after each test so none reaches the next test's depots."""
    yield
    client_mod.drain_pool()


@pytest.fixture
def connections(monkeypatch):
    """Counts the connections ``ebp.client`` opens, by address."""
    opened = Counter()
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        opened[f"{address[0]}:{address[1]}"] += 1
        return real(address, *args, **kwargs)

    monkeypatch.setattr(client_mod.socket, "create_connection", counting)
    return opened
