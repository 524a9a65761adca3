"""ebp benchmark: one client process against three ``ebp-depot serve`` depots.

    python3 bench/run.py --workload {bulk,maintain,insitu} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; the program under test is ``src/ebp`` of the checkout
that holds this file. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See README.md for the workloads, the metrics and how noise is handled.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUPS = 9  # set-ups per untraced run; setup_s is their median


class Phase:
    """What one measured phase (set-ups, warm-up, timed rounds) produced."""

    def __init__(self):
        self.setup_s: list = []
        self.samples: list = []  # per timed round: {step: seconds}
        self.stolen: list = []  # per timed round: share of its time stolen by the host
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None
        self.depot_rss_mib = 0.0
        self.late_max_s = 0.0  # latest start of a round after it was due
        self.since = 0.0  # start and end of the timed rounds
        self.until = 0.0
        self.spans = None  # (client spans, {depot addr: spans}) when traced

    def end_to_end(self) -> dict:
        return {
            "setup_s": statistics.median(self.setup_s),
            "round_ms": statistics.median(sum(s.values()) for s in self.samples) * 1e3,
            "client_rss_peak_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "depot_rss_peak_MiB": self.depot_rss_mib,
        }

    def step_rates(self, workload) -> dict:
        """Each step's work over its median time, for people: {name: (rate, unit)}."""
        return {
            step: (work / statistics.median(s[step] for s in self.samples), f"{unit}/s")
            for step, (work, unit) in workload.steps.items()
        }


def stolen_s(cpu: int) -> float:
    """Seconds the VM host has stolen from ``cpu`` since boot; 0 off a VM."""
    prefix = f"cpu{cpu} "
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def measure(workload, seconds: float, outdir: str, setups: int, trace: bool, cpu: int) -> Phase:
    """Set up ``setups`` times, keep the last, then run whole rounds for ``seconds``.

    The client and its depots run on ``cpu`` alone, which is busy while a
    set-up or a round runs, so time the VM host steals from that CPU delays
    them by as much. Set-up times leave it out, and each round's step times
    are scaled by the share of the round's wall time that was not stolen.
    """
    from depots import DepotCluster
    import spans
    from workloads import Mismatch
    from ebp.errors import EbpError

    phase = Phase()
    tracer = spans.Tracer() if trace else None
    for i in range(setups):
        last = i == setups - 1
        if tracer is not None and last:
            spans.install_client(tracer)
        cluster = DepotCluster(
            os.path.join(outdir, f"setup-{i}"), spans_dir=outdir if tracer and last else None
        )
        t0, stolen = perf_counter(), stolen_s(cpu)
        try:
            addrs = cluster.start()
            workload.setup(addrs, cluster.workdir)
        except BaseException:
            workload.close()
            cluster.stop()
            raise
        phase.setup_s.append(perf_counter() - t0 - (stolen_s(cpu) - stolen))
        if not last:
            workload.close()
            cluster.stop()
    try:
        first = perf_counter()
        deadline = None
        index = 0
        while deadline is None or perf_counter() < deadline:
            due = first + index * workload.period
            if due > perf_counter():
                time.sleep(due - perf_counter())
            phase.late_max_s = max(phase.late_max_s, perf_counter() - due)
            t0, stolen = perf_counter(), stolen_s(cpu)
            try:
                samples = workload.run_round(index)
            except EbpError as exc:
                samples = None
                phase.failed += workload.ops_per_round
                print(f"round {index} failed: {exc.code}: {exc.message}", file=sys.stderr)
            phase.attempted += workload.ops_per_round
            if deadline is None:  # round 0 warms up
                phase.since = perf_counter()
                deadline = phase.since + seconds
            elif samples is not None:
                # Stolen time is counted in 10 ms ticks; every round lasts
                # far longer, so the share is never near 1.
                share = (stolen_s(cpu) - stolen) / (perf_counter() - t0)
                phase.samples.append({k: v * max(0.1, 1 - share) for k, v in samples.items()})
                phase.stolen.append(share)
            index += 1
        phase.until = perf_counter()
        workload.finish()
    except Mismatch as exc:
        phase.error = str(exc)
    finally:
        workload.close()
        phase.depot_rss_mib = cluster.peak_rss_mib()
        cluster.stop()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump(os.path.join(outdir, "client.json"))
        depot_spans = {
            addr: spans.load_spans(os.path.join(outdir, f"depot-{i}.json"))
            for i, addr in enumerate(addrs)
        }
        phase.spans = (tracer.spans, depot_spans)
    return phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("bulk", "maintain", "insitu"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ebp", "__init__.py")):
        print(f"no ebp sources at {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print(f"cannot compile {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    # SIGTERM unwinds like an error, so the depots are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    # The client and its depots share one CPU (children inherit the mask).
    # Every workload is request/response, so a second core mostly adds
    # cross-core wakeups, whose latency swings with the VM host's load.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    outdir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    if args.trace:
        # Untraced and traced halves on the same inputs; the gap is the overhead.
        plain = measure(workload, args.seconds / 2, outdir, setups=1, trace=False, cpu=cpu)
        traced = measure(workload, args.seconds / 2, outdir, setups=1, trace=True, cpu=cpu)
        phases = [plain, traced]
        client_spans, depot_spans = traced.spans
        layer, detail = spans.reduce(
            client_spans, depot_spans, traced.since, traced.until, max(1, len(traced.samples))
        )
        metrics = {n: (layer[n], u) for n, u in spans.PER_LAYER.items()}
        for name, (value, unit) in detail.items():
            print(f"layer detail: {name} = {value:.4g} {unit}")
        before, after = plain.end_to_end(), traced.end_to_end()
        for name in ("setup_s", "round_ms"):
            print(f"trace overhead: {name} {before[name]:.4g} untraced, {after[name]:.4g} traced"
                  f" ({(after[name] / before[name] - 1) * 100:+.1f}%)")
    else:
        phase = measure(workload, args.seconds, outdir, setups=SETUPS, trace=False, cpu=cpu)
        phases = [phase]
        units = {"setup_s": "s", "round_ms": "ms", "client_rss_peak_MiB": "MiB",
                 "depot_rss_peak_MiB": "MiB"}
        metrics = {n: (v, units[n]) for n, v in phase.end_to_end().items()}
        print(f"setup_s samples: {' '.join(f'{s:.3f}' for s in phase.setup_s)}")
        for step, (rate, unit) in phase.step_rates(workload).items():
            print(f"step {step}: {rate:.4g} {unit} (median)")

    errors = [p.error for p in phases if p.error]
    for error in errors:
        print(f"output check failed: {error}", file=sys.stderr)
    rounds = sum(len(p.samples) for p in phases)
    print(f"{args.workload}: {rounds} timed rounds")
    if workload.period:
        late = max(p.late_max_s for p in phases)
        print(f"latest round start: {late * 1000:.1f} ms after due (period {workload.period} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    with open(os.path.join(outdir, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump([{"rounds": p.samples, "stolen": p.stolen} for p in phases], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash layout for the client and (inherited) the depots in
        # every run: random per-process layouts move the Python-bound
        # figures by several percent from run to run.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
