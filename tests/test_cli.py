"""CLI surface: argument plumbing, exit codes, byte-exact put/get."""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import stat
import subprocess
import sys
import time
import tracemalloc

import pytest
from click.testing import CliRunner

from ebp.cli import depot_main, main, parse_budget, parse_size
from ebp.client import DepotClient
from ebp.capability import Hardness
from ebp.exnode import make_exnode, write_exnode
from ebp.lors import upload
from ebp.simnet import SimCluster


@pytest.fixture
def cluster():
    with SimCluster(3) as c:
        yield c


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_size_suffixes():
    assert parse_size("123") == 123
    assert parse_size("4KiB") == 4096
    assert parse_size("4MiB") == 4 * 1024 * 1024
    assert parse_size("1GiB") == 1024**3
    import click

    with pytest.raises(click.UsageError):
        parse_size("4MB")


def test_parse_budget():
    budget = parse_budget("wall=1000,scratch=16MiB,io=64MiB")
    assert budget.max_wall_ms == 1000
    assert budget.max_scratch_bytes == 16 * 1024**2
    assert budget.max_io_bytes == 64 * 1024**2


def test_put_then_get_byte_identical(cluster, runner, tmp_path):
    data = random.Random(21).randbytes(10 * 1024 * 1024)
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out = tmp_path / "input.xnd.json"
    result = runner.invoke(
        main,
        ["put", str(src), "--depots", ",".join(cluster.addrs()), "--k", "2",
         "--chunk", "4MiB", "-o", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert out.exists()

    dst = tmp_path / "restored.bin"
    result = runner.invoke(main, ["get", str(out), "-o", str(dst), "--parallel", "4"])
    assert result.exit_code == 0, result.output
    assert dst.read_bytes() == data


def test_get_with_all_depots_down_exits_1_with_code(cluster, runner, tmp_path):
    src = tmp_path / "f.bin"
    src.write_bytes(b"abc" * 1000)
    out = tmp_path / "f.xnd.json"
    assert (
        runner.invoke(
            main, ["put", str(src), "--depots", ",".join(cluster.addrs()), "-o", str(out)]
        ).exit_code
        == 0
    )
    for name in cluster.names():
        cluster.kill(name)
    result = runner.invoke(main, ["get", str(out), "-o", str(tmp_path / "x.bin")])
    assert result.exit_code == 1
    assert "ExtentUnavailable" in result.stderr


def test_get_streams_into_the_file(cluster, runner, tmp_path):
    """No file-sized Python object: the peak is the in-process depots'
    1 MiB LOAD copies, one per parallel fetch."""
    data = random.Random(22).randbytes(16 * 1024 * 1024)
    xnd, dst = tmp_path / "f.xnd.json", tmp_path / "f.bin"
    write_exnode(str(xnd), upload(data, cluster.addrs(), 4 * 1024 * 1024, 1))
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["get", str(xnd), "-o", str(dst), "--parallel", "2", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak < len(data) / 4
    assert dst.read_bytes() == data
    assert json.loads(result.output) == {"output": str(dst), "bytes": len(data)}


def test_get_failure_leaves_an_existing_output_as_it_was(cluster, runner, tmp_path):
    xnd, dst = tmp_path / "f.xnd.json", tmp_path / "f.bin"
    write_exnode(str(xnd), upload(b"abc" * 1000, cluster.addrs(), 1000, 2))
    dst.write_bytes(b"previous contents")
    for name in cluster.names():
        cluster.kill(name)
    result = runner.invoke(main, ["get", str(xnd), "-o", str(dst)])
    assert result.exit_code == 1
    assert "ExtentUnavailable" in result.stderr
    assert dst.read_bytes() == b"previous contents"
    assert sorted(os.listdir(tmp_path)) == ["f.bin", "f.xnd.json"]


def test_get_of_an_empty_exnode_writes_an_empty_file(runner, tmp_path):
    xnd, dst = tmp_path / "empty.xnd.json", tmp_path / "empty.bin"
    write_exnode(str(xnd), make_exnode(0, []))
    dst.write_bytes(b"previous contents")
    result = runner.invoke(main, ["get", str(xnd), "-o", str(dst), "--json"])
    assert result.exit_code == 0, result.output
    assert dst.read_bytes() == b""
    assert json.loads(result.output)["bytes"] == 0


def test_get_writes_a_fifo_in_place(cluster, runner, tmp_path):
    """A path that is not a regular file is written, never replaced."""
    data = random.Random(23).randbytes(3000)  # fits in a pipe's buffer
    xnd, fifo = tmp_path / "f.xnd.json", tmp_path / "out.fifo"
    write_exnode(str(xnd), upload(data, cluster.addrs(), 1000, 1))
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        result = runner.invoke(main, ["get", str(xnd), "-o", str(fifo)])
        got = os.read(reader, 2 * len(data))
    finally:
        os.close(reader)
    assert result.exit_code == 0, result.output
    assert got == data
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["f.xnd.json", "out.fifo"]


def test_get_keeps_an_existing_outputs_mode(cluster, runner, tmp_path):
    xnd, dst = tmp_path / "f.xnd.json", tmp_path / "f.bin"
    write_exnode(str(xnd), upload(b"secret" * 500, cluster.addrs(), 1000, 1))
    dst.write_bytes(b"previous contents")
    dst.chmod(0o600)
    result = runner.invoke(main, ["get", str(xnd), "-o", str(dst)])
    assert result.exit_code == 0, result.output
    assert dst.read_bytes() == b"secret" * 500
    assert stat.S_IMODE(dst.stat().st_mode) == 0o600


def test_get_without_room_for_the_file_leaves_the_output(cluster, runner, tmp_path, monkeypatch):
    """Space is reserved before anything is received, so a full disk is a
    clean error that removes the temporary file."""
    xnd, dst = tmp_path / "f.xnd.json", tmp_path / "f.bin"
    write_exnode(str(xnd), upload(b"abc" * 1000, cluster.addrs(), 1000, 1))
    dst.write_bytes(b"previous contents")

    def no_space(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", no_space)
    result = runner.invoke(main, ["get", str(xnd), "-o", str(dst)])
    assert result.exit_code != 0
    assert dst.read_bytes() == b"previous contents"
    assert sorted(os.listdir(tmp_path)) == ["f.bin", "f.xnd.json"]


def test_get_writes_in_place_without_a_temporary_file(cluster, runner, tmp_path, monkeypatch):
    """As in a directory the caller cannot write: the existing file is
    written in place once the whole file has arrived."""
    xnd, dst = tmp_path / "f.xnd.json", tmp_path / "f.bin"
    write_exnode(str(xnd), upload(b"abc" * 1000, cluster.addrs(), 1000, 1))
    dst.write_bytes(b"previous contents")
    real_open = os.open

    def no_temporary_file(path, flags, *args):
        if str(path).endswith(".part"):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", no_temporary_file)
    result = runner.invoke(main, ["get", str(xnd), "-o", str(dst)])
    assert result.exit_code == 0, result.output
    assert dst.read_bytes() == b"abc" * 1000
    assert sorted(os.listdir(tmp_path)) == ["f.bin", "f.xnd.json"]


def test_put_without_depots_is_usage_error(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("EBP_DEFAULT_DEPOTS", raising=False)
    src = tmp_path / "f.bin"
    src.write_bytes(b"x")
    result = runner.invoke(main, ["put", str(src)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--k", "3"], "replication k=3 must be between 1 and 1"),
        (["--chunk", "0"], "chunk_size must be >= 1"),
    ],
)
def test_put_with_a_bad_argument_is_usage_error(runner, tmp_path, args, message):
    src = tmp_path / "f.bin"
    src.write_bytes(b"x")
    result = runner.invoke(main, ["put", str(src), "--depots", "127.0.0.1:9", *args])
    assert result.exit_code == 2, result.output
    assert message in result.stderr
    assert "Traceback" not in result.output
    assert not isinstance(result.exception, ValueError)


def test_put_of_a_file_that_shrinks_mid_upload_exits_1(cluster, runner, tmp_path, monkeypatch):
    src = tmp_path / "f.bin"
    src.write_bytes(b"x" * 100)
    real_pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, offset: real_pread(fd, n - 1, offset))
    result = runner.invoke(main, ["put", str(src), "--depots", ",".join(cluster.addrs()), "--k", "1"])
    assert result.exit_code == 1, result.output
    assert f"IOError: {src} changed size during upload" in result.stderr
    assert not (tmp_path / "f.bin.xnd.json").exists()


def test_depots_env_fallback(cluster, runner, tmp_path, monkeypatch):
    monkeypatch.setenv("EBP_DEFAULT_DEPOTS", ",".join(cluster.addrs()))
    src = tmp_path / "f.bin"
    src.write_bytes(b"env fallback works")
    out = tmp_path / "f.xnd.json"
    result = runner.invoke(main, ["put", str(src), "-o", str(out), "--k", "1", "--json"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["bytes"] == 18


def test_stat_on_capability_string(cluster, runner):
    with DepotClient(cluster.addrs()[0]) as cli:
        caps = cli.allocate(64, 120, Hardness.HARD)
        cli.store(caps.write, 0, b"123456")
    result = runner.invoke(main, ["stat", caps.manage.text()])
    assert result.exit_code == 0
    assert "capacity=64" in result.stdout
    assert "used=6" in result.stdout
    assert "hardness=hard" in result.stdout
    as_json = runner.invoke(main, ["stat", caps.manage.text(), "--json"])
    doc = json.loads(as_json.stdout)
    assert doc["capacity"] == 64 and doc["hardness"] == "hard"


def test_stat_on_exnode_file(cluster, runner, tmp_path):
    src = tmp_path / "f.bin"
    src.write_bytes(b"stat me" * 512)
    out = tmp_path / "f.xnd.json"
    runner.invoke(
        main,
        ["put", str(src), "--depots", ",".join(cluster.addrs()), "-o", str(out),
         "--chunk", "1KiB"],
    )
    result = runner.invoke(main, ["stat", str(out)])
    assert result.exit_code == 0
    assert "3584 bytes in 4 extent(s)" in result.stdout


def test_renew_command(cluster, runner, tmp_path):
    src = tmp_path / "f.bin"
    src.write_bytes(b"renew me")
    out = tmp_path / "f.xnd.json"
    runner.invoke(
        main,
        ["put", str(src), "--depots", ",".join(cluster.addrs()), "-o", str(out),
         "--k", "2", "--lease", "30"],
    )
    result = runner.invoke(main, ["renew", str(out), "--extend", "900", "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["renewed"] == 2
    cap = None
    from ebp.exnode import read_exnode

    x = read_exnode(str(out))
    with DepotClient(x.extents[0].replicas[0].depot_addr) as cli:
        info = cli.probe(x.extents[0].replicas[0].manage)
    assert info.expires_in_ms > 300_000


def test_transform_command(cluster, runner):
    addr = cluster.addrs()[0]
    with DepotClient(addr) as cli:
        src = cli.allocate(9, 120, Hardness.SOFT)
        dst = cli.allocate(4, 120, Hardness.SOFT)
        cli.store(src.write, 0, b"123456789")
    result = runner.invoke(
        main,
        ["transform", addr, "checksum-crc32", "--in", src.read.text(),
         "--out", dst.write.text(), "--budget", "wall=2000,scratch=1MiB,io=1MiB",
         "--json"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["status"] == "ok"
    with DepotClient(addr) as cli:
        assert cli.load(dst.read, 0, 4).data == (0xCBF43926).to_bytes(4, "big")


def test_transform_failure_exits_1(cluster, runner):
    addr = cluster.addrs()[0]
    with DepotClient(addr) as cli:
        src = cli.allocate(100, 120, Hardness.SOFT)
        dst = cli.allocate(100, 120, Hardness.SOFT)
        cli.store(src.write, 0, b"z" * 100)
    result = runner.invoke(
        main,
        ["transform", addr, "copy-range", "--in", src.read.text(),
         "--out", dst.write.text(), "--param", "length=100",
         "--budget", "wall=2000,scratch=1MiB,io=50"],
    )
    assert result.exit_code == 1
    assert "budget_exceeded" in result.stdout


def test_lodn_run_command(cluster, runner, tmp_path):
    src = tmp_path / "f.bin"
    src.write_bytes(b"daemon bytes" * 100)
    out = tmp_path / "f.xnd.json"
    runner.invoke(
        main,
        ["put", str(src), "--depots", ",".join(cluster.addrs()), "-o", str(out), "--k", "2"],
    )
    (tmp_path / "f.policy.json").write_text(
        json.dumps(
            {"replicas": 2, "renew_before": 5, "check_period": 1,
             "preferred_depots": list(cluster.addrs())}
        )
    )
    result = runner.invoke(main, ["lodn", "run", "--dir", str(tmp_path), "--ticks", "1"])
    assert result.exit_code == 0, result.output
    assert "managed 1 exNode(s)" in result.stdout


def test_depot_serve_subprocess(tmp_path):
    config = tmp_path / "depot.json"
    port_probe = __import__("socket").socket()
    port_probe.bind(("127.0.0.1", 0))
    port = port_probe.getsockname()[1]
    port_probe.close()
    config.write_text(
        json.dumps({"total_capacity": 1 << 20, "listen_addr": f"127.0.0.1:{port}"})
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from ebp.cli import depot_main; depot_main()",
         "serve", "--config", str(config)],
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        deadline = time.time() + 10
        last_error = None
        while time.time() < deadline:
            try:
                with DepotClient(f"127.0.0.1:{port}", timeout_ms=500) as cli:
                    assert cli.stats().live_allocations == 0
                break
            except Exception as exc:  # noqa: BLE001 - retry until the server is up
                last_error = exc
                time.sleep(0.2)
        else:
            pytest.fail(f"server never came up: {last_error}")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def test_serve_without_config_is_usage_error(runner, monkeypatch):
    monkeypatch.delenv("EBP_DEPOT_CONFIG", raising=False)
    result = runner.invoke(depot_main, ["serve"])
    assert result.exit_code == 2


def test_serve_with_a_wrong_typed_config_field_is_bad_config(runner, tmp_path):
    path = tmp_path / "depot.json"
    path.write_text('{"total_capacity": "big"}')
    result = runner.invoke(depot_main, ["serve", "--config", str(path)])
    assert result.exit_code == 1
    assert "bad config: total_capacity must be a number" in result.stderr
