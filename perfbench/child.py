"""Runs one ntkreg CLI command in a fresh process, as the ``ntkreg`` script does.

Usage: python3 child.py RECORD MODE COMMAND [CLI ARGS...]

MODE is ``plain`` (run the command), ``setup`` (stop at command dispatch,
after imports and config validation) or ``trace`` (run the command with the
span tracer installed). The only addition to the real entry point is a
wrapper around the dispatched command that notes the monotonic clock when
dispatch happens. RECORD receives those timestamps, and the spans in trace
mode, as JSON when the command returns.
"""

import json
import sys
import time


def main() -> int:
    record_path, mode, *argv = sys.argv[1:]
    from ntkreg import cli

    record = {"ntkreg_file": cli.__file__}
    command = cli._COMMANDS[argv[0]]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        command = tracer.wrap_shared(command, "cli." + command.__name__)

    def dispatched(config):
        record["dispatch"] = time.monotonic()
        return 0 if mode == "setup" else command(config)

    cli._COMMANDS[argv[0]] = dispatched
    record["main_start"] = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        record["main_end"] = time.monotonic()
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(record_path, "w") as f:
            json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main())
