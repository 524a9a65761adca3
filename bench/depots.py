"""Depots as separate ``ebp-depot serve`` processes on loopback.

Each depot runs through ``depot_launcher.py`` with its own JSON config and
an ephemeral port. Its stderr, which carries the per-request INFO log, goes
to a file: a pipe that nobody reads would block the depot once it filled.
The bound address is read back from the log's ``listening on`` line, and a
depot counts as up once it answers a STATS request.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

from ebp.client import DepotClient
from ebp.errors import EbpError

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "depot_launcher.py")
DEPOTS = 3  # two hold an extent's k=2 replicas, the third is a repair target
DEPOT_CAPACITY = 1 << 30
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_LISTENING = re.compile(rb"listening on (127\.0\.0\.1:\d+)")


class DepotCluster:
    """Three depot processes; ``spans_dir`` turns their tracing on."""

    def __init__(self, workdir: str, spans_dir: str | None = None):
        self.workdir = workdir
        self.spans_dir = spans_dir
        self.procs: list = []
        self.addrs: list = []
        self._logs: list = []

    def start(self) -> list:
        os.makedirs(self.workdir, exist_ok=True)
        for i in range(DEPOTS):
            config = os.path.join(self.workdir, f"depot-{i}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"total_capacity": DEPOT_CAPACITY, "listen_addr": "127.0.0.1:0"}, fh)
            cmd = [sys.executable, LAUNCHER]
            if self.spans_dir is not None:
                cmd += ["--spans", os.path.join(self.spans_dir, f"depot-{i}.json")]
            cmd += ["serve", "--config", config]
            log_path = os.path.join(self.workdir, f"depot-{i}.log")
            with open(log_path, "wb") as log:
                self.procs.append(
                    subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
                )
            self._logs.append(log_path)
        deadline = time.monotonic() + START_TIMEOUT_S
        self.addrs = [self._await_addr(i, deadline) for i in range(DEPOTS)]
        for addr in self.addrs:
            self._await_accept(addr, deadline)
        return self.addrs

    def _await_addr(self, i: int, deadline: float) -> str:
        while True:
            with open(self._logs[i], "rb") as fh:
                match = _LISTENING.search(fh.read())
            if match:
                return match.group(1).decode("ascii")
            if self.procs[i].poll() is not None:
                raise RuntimeError(f"depot {i} exited early; see {self._logs[i]}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"depot {i} did not report its address in time")
            time.sleep(0.002)

    @staticmethod
    def _await_accept(addr: str, deadline: float) -> None:
        while True:
            try:
                with DepotClient(addr) as cli:
                    cli.stats()
                return
            except EbpError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def peak_rss_mib(self) -> float:
        """Sum of the depots' peak resident set sizes (``VmHWM``)."""
        total_kib = 0
        for proc in self.procs:
            with open(f"/proc/{proc.pid}/status", "r", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        return total_kib / 1024

    def stop(self) -> None:
        """SIGTERM every depot and wait for each to exit; kill stragglers."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
