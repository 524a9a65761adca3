"""The benchmark's tracer wraps ``ebp`` names in place and silently skips a
name that has gone, which only makes its metrics vanish from the report.
This guard fails instead when a wrapped name no longer exists."""

from __future__ import annotations

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(spans) -> list:
    """(owner, attr) of every wrap ``install_client`` and ``install_depot``
    ask for, recorded without wrapping anything."""
    asked = []

    class Recorder(spans.Tracer):
        def wrap(self, owner, attr, name, describe=None):
            asked.append((owner, attr))

    recorder = Recorder()
    spans.install_client(recorder)
    spans.install_depot(recorder)
    return asked


def test_every_name_the_bench_tracer_wraps_exists():
    asked = wrapped_names(load_spans())
    missing = [f"{owner.__name__}.{attr}" for owner, attr in asked if getattr(owner, attr, None) is None]
    assert missing == []
    assert asked


def test_the_guard_sees_a_missing_name(monkeypatch):
    import ebp.server

    monkeypatch.delattr(ebp.server.DepotServer, "handle_transfer")
    asked = wrapped_names(load_spans())
    assert [attr for owner, attr in asked if getattr(owner, attr, None) is None] == ["handle_transfer"]


def test_batched_replies_are_read_through_the_wrapped_verbs():
    """``client.wait.us`` is built from ``client.PROBE`` and ``client.RENEW``
    spans, so a batch must read each reply through ``probe`` or ``renew``."""
    from ebp.capability import Hardness
    from ebp.client import DepotClient, ProbeInfo
    from ebp.simnet import SimCluster

    spans = load_spans()
    tracer = spans.Tracer()
    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        with DepotClient(addr) as cli:
            caps = [cli.allocate(8, 60, Hardness.SOFT).manage for _ in range(3)]
        spans.install_client(tracer)
        try:
            with DepotClient(addr) as cli:
                probed = cli.probe_many(caps)
                renewed = cli.renew_many(caps, 60)
        finally:
            tracer.uninstall()
    assert all(isinstance(info, ProbeInfo) for info in probed)
    assert all(isinstance(ms, int) for ms in renewed)
    names = [span.name for span in tracer.spans]
    assert names.count("client.PROBE") == 3
    assert names.count("client.RENEW") == 3
