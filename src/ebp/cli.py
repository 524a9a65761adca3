"""Operator CLI.

Two entry points: ``ebp-depot`` runs a depot service from a JSON config;
``ebp`` moves files in and out of the depot mesh, inspects exNodes and
capabilities, renews leases, invokes transforms and runs the policy daemon.

Conventions: sizes accept KiB/MiB/GiB suffixes, durations are plain seconds,
output is human-readable unless ``--json`` is given. Exit codes: 0 success,
1 operational failure (the wire error code lands on stderr), 2 usage error.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import signal
import sys
import threading

import click

from . import lodn, lors
from .capability import parse_capability
from .client import DepotClient, per_depot
from .depot import DepotConfig
from .errors import EbpError
from .exnode import FILE_SUFFIX, read_exnode, validate, write_exnode
from .lodn import LodnScheduler
from .nfu import ResourceBudget
from .server import DepotServer

_SIZE_UNITS = {"": 1, "KiB": 1024, "MiB": 1024**2, "GiB": 1024**3}


def parse_size(text: str) -> int:
    raw = text.strip()
    for suffix, scale in sorted(_SIZE_UNITS.items(), key=lambda kv: -len(kv[0])):
        if suffix and raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            break
    else:
        suffix, scale, number = "", 1, raw
    try:
        return int(number) * scale
    except ValueError:
        raise click.UsageError(f"cannot parse size {text!r} (use bytes or KiB/MiB/GiB)") from None


def parse_budget(text: str) -> ResourceBudget:
    fields = {}
    for item in text.split(","):
        if "=" not in item:
            raise click.UsageError(f"budget item {item!r} is not key=value")
        key, value = item.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"wall", "scratch", "io"}
    if unknown:
        raise click.UsageError(f"unknown budget keys: {sorted(unknown)}")
    try:
        return ResourceBudget(
            max_wall_ms=int(fields.get("wall", "1000")),
            max_scratch_bytes=parse_size(fields.get("scratch", "16MiB")),
            max_io_bytes=parse_size(fields.get("io", "64MiB")),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def operational(fn):
    """Map EbpError and I/O failures to exit 1 with the code on stderr."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EbpError as exc:
            click.echo(f"{exc.code}: {exc.message}", err=True)
            sys.exit(1)
        except OSError as exc:
            click.echo(f"IOError: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _depot_list(depots: str | None) -> list:
    raw = depots or os.environ.get("EBP_DEFAULT_DEPOTS", "")
    addrs = [d.strip() for d in raw.split(",") if d.strip()]
    if not addrs:
        raise click.UsageError("no depots given (use --depots or EBP_DEFAULT_DEPOTS)")
    return addrs


def _log_to_stderr() -> None:
    logging.basicConfig(level=logging.INFO, format="%(name)s %(message)s", stream=sys.stderr)


# ---------------------------------------------------------------------- ebp


@click.group()
def main() -> None:
    """Move files through depot storage, inspect and maintain them."""
    _log_to_stderr()


@main.command("put")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--depots", help="Comma-separated depot addresses (host:port,...).")
@click.option("--k", default=2, show_default=True, help="Replicas per chunk.")
@click.option("--chunk", default="4MiB", show_default=True, help="Chunk size.")
@click.option("--lease", default=3600, show_default=True, help="Lease seconds per chunk.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="exNode output path.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@operational
def put_cmd(file, depots, k, chunk, lease, output, as_json):
    """Upload FILE into the mesh and write its exNode document."""
    addrs = _depot_list(depots)
    try:
        exnode = lors.upload(file, addrs, chunk_size=parse_size(chunk), k=k, lease_s=lease)
    except ValueError as exc:  # lors refuses k or the chunk size
        raise click.UsageError(str(exc)) from None
    out_path = output or file + FILE_SUFFIX
    write_exnode(out_path, exnode)
    if as_json:
        click.echo(json.dumps({"exnode": out_path, "bytes": exnode.total_length,
                               "extents": len(exnode.extents), "replicas_per_extent": k}))
    else:
        click.echo(
            f"stored {exnode.total_length} bytes in {len(exnode.extents)} extent(s)"
            f" x{k} replicas -> {out_path}"
        )


@main.command("get")
@click.argument("exnode", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option("--parallel", default=4, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@operational
def get_cmd(exnode, output, parallel, as_json):
    """Download the file an exNode describes, byte-exact, straight into
    OUTPUT, which is replaced only once every byte has arrived."""
    x = read_exnode(exnode)
    lors.download_to(x, output, parallelism=parallel)
    if as_json:
        click.echo(json.dumps({"output": output, "bytes": x.total_length}))
    else:
        click.echo(f"wrote {x.total_length} bytes to {output}")


@main.command("stat")
@click.argument("target")
@click.option("--json", "as_json", is_flag=True)
@operational
def stat_cmd(target, as_json):
    """Describe TARGET: an exNode file or a capability string."""
    if target.startswith("ebp://"):
        cap = parse_capability(target)
        with DepotClient(cap.depot_addr) as cli:
            info = cli.probe(cap)
        doc = {
            "depot": cap.depot_addr,
            "alloc_id": cap.alloc_id,
            "capacity": info.capacity,
            "used": info.used,
            "expires_in_ms": info.expires_in_ms,
            "hardness": info.hardness.value,
        }
        if as_json:
            click.echo(json.dumps(doc))
        else:
            click.echo(
                f"allocation {cap.alloc_id} on {cap.depot_addr}:"
                f" capacity={info.capacity} used={info.used}"
                f" expires_in={info.expires_in_ms / 1000:.1f}s hardness={info.hardness.value}"
            )
        return
    exnode = read_exnode(target)
    problems = validate(exnode)
    doc = {
        "total_length": exnode.total_length,
        "extents": len(exnode.extents),
        "valid": not problems,
        "problems": problems,
        "metadata": exnode.metadata_dict(),
    }
    if as_json:
        click.echo(json.dumps(doc))
    else:
        click.echo(f"{target}: {exnode.total_length} bytes in {len(exnode.extents)} extent(s)")
        for extent in exnode.extents:
            where = ", ".join(r.depot_addr for r in extent.replicas)
            click.echo(f"  [{extent.offset}, {extent.offset + extent.length}) on {where}")
        for problem in problems:
            click.echo(f"  INVALID: {problem}")
    if problems:
        sys.exit(1)


@main.command("renew")
@click.argument("exnode", type=click.Path(exists=True, dir_okay=False))
@click.option("--extend", default=3600, show_default=True, help="Extension in seconds.")
@click.option("--json", "as_json", is_flag=True)
@operational
def renew_cmd(exnode, extend, as_json):
    """Renew the lease of every replica in an exNode."""
    replicas = [r for extent in read_exnode(exnode).extents for r in extent.replicas]
    renewable = [r for r in replicas if r.manage is not None]
    results = per_depot(
        renewable,
        lambda r: r.depot_addr,
        lambda cli, group: cli.renew_many([r.manage for r in group], extend),
    )
    codes = iter(result.code if isinstance(result, EbpError) else None for result in results)
    outcomes = [next(codes) if r.manage is not None else "no manage capability" for r in replicas]
    failures = [f"{r.depot_addr}: {why}" for r, why in zip(replicas, outcomes) if why is not None]
    renewed = outcomes.count(None)
    if as_json:
        click.echo(json.dumps({"renewed": renewed, "failures": failures}))
    else:
        click.echo(f"renewed {renewed} lease(s)")
    if failures:
        for failure in failures:
            click.echo(failure, err=True)
        sys.exit(1)


@main.command("transform")
@click.argument("depot")
@click.argument("op_name")
@click.option("--in", "inputs", multiple=True, required=True, help="Read capability (repeatable).")
@click.option("--out", "outputs", multiple=True, required=True, help="Write capability (repeatable).")
@click.option("--budget", default="wall=1000,scratch=16MiB,io=64MiB", show_default=True)
@click.option("--param", "params", multiple=True, help="key=value (repeatable).")
@click.option("--json", "as_json", is_flag=True)
@operational
def transform_cmd(depot, op_name, inputs, outputs, budget, params, as_json):
    """Run a named transform on DEPOT over the given buffers."""
    kv = {}
    for item in params:
        if "=" not in item:
            raise click.UsageError(f"param {item!r} is not key=value")
        key, value = item.split("=", 1)
        kv[key] = value
    with DepotClient(depot) as cli:
        result = cli.transform(
            op_name,
            [parse_capability(c) for c in inputs],
            [parse_capability(c) for c in outputs],
            parse_budget(budget),
            kv,
        )
    doc = {
        "status": result.status.value,
        "io_bytes_used": result.io_bytes_used,
        "wall_ms_used": result.wall_ms_used,
        "outputs_state": result.outputs_state.value,
    }
    click.echo(json.dumps(doc) if as_json else
               f"{result.status.value}: io={result.io_bytes_used}B"
               f" wall={result.wall_ms_used}ms outputs={result.outputs_state.value}")
    if result.status.value != "ok":
        sys.exit(1)


@main.group("lodn")
def lodn_group() -> None:
    """Policy daemon commands."""


@lodn_group.command("run")
@click.option("--dir", "directory", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--lease", default=3600, show_default=True, help="Lease seconds on renewal.")
@click.option("--ticks", default=None, type=int, help="Run N passes then exit (default: forever).")
@operational
def lodn_run_cmd(directory, lease, ticks):
    """Manage every exNode in DIR that has a sibling policy file."""
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    scheduler = LodnScheduler(lease_duration_s=lease)
    lodn.run_dir(directory, scheduler=scheduler, stop=stop, max_ticks=ticks)
    click.echo(f"managed {len(scheduler.entries())} exNode(s)")


# ---------------------------------------------------------------- ebp-depot


@click.group()
def depot_main() -> None:
    """Run depot services."""
    _log_to_stderr()


@depot_main.command("serve")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="Depot JSON config; falls back to EBP_DEPOT_CONFIG.")
@operational
def serve_cmd(config_path):
    """Serve one depot until SIGINT/SIGTERM."""
    path = config_path or os.environ.get("EBP_DEPOT_CONFIG")
    if not path:
        raise click.UsageError("no config given (use --config or EBP_DEPOT_CONFIG)")
    try:
        config = DepotConfig.from_json_file(path)
    except (ValueError, json.JSONDecodeError) as exc:
        click.echo(f"bad config: {exc}", err=True)
        sys.exit(1)
    server = DepotServer(config)
    signal.signal(signal.SIGINT, lambda *_: server.stop())
    signal.signal(signal.SIGTERM, lambda *_: server.stop())
    addr = server.start()
    click.echo(f"listening on {addr}", err=True)
    server.serve_forever()


if __name__ == "__main__":  # pragma: no cover
    main()
