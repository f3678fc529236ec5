"""``an5d serve`` in its own process, with the layer timers when traced.

Usage (normally only the service workload calls it)::

    python3 perfbench/server.py --store <path> --trace 0|1 --layers-out <path>

Runs the program's own ``serve`` command on an ephemeral port; it prints the
URL line the client waits for.  On SIGINT the server stops, and a traced
server writes its layer totals to ``--layers-out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers-out", required=True)
    args = parser.parse_args(argv)
    # A process started in the background inherits SIGINT ignored; the
    # client stops the server with SIGINT, so it must always interrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro.cli import main as an5d

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return an5d(["serve", "--port", "0", "--store", args.store])
    finally:
        if tracer is not None:
            Path(args.layers_out).write_text(
                json.dumps({"layers": tracer.totals, "missing_hooks": tracer.missing})
            )


if __name__ == "__main__":
    sys.exit(main())
