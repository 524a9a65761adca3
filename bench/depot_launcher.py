"""Start one depot exactly as ``ebp-depot`` does, optionally traced.

    python3 bench/depot_launcher.py [--spans FILE] serve --config CONFIG

With ``--spans`` the depot's layers are wrapped before the server starts
(see ``spans.install_depot``) and the spans are written to FILE when the
depot stops. Without it this is plain ``ebp-depot``.
"""

import sys


def main() -> None:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from ebp.cli import depot_main

    if spans_path is None:
        depot_main(argv, prog_name="ebp-depot")
        return
    import spans

    tracer = spans.Tracer()
    spans.install_depot(tracer)
    try:
        depot_main(argv, prog_name="ebp-depot")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
