"""Server launcher: ``repro-join serve`` in this process, optionally traced.

With ``--trace-out FILE`` the layer wrappers of :mod:`tracer` are installed
before the server starts (index, protocol, admission, coalescer, WAL), and
the in-memory spans are written to ``FILE`` once the server has shut down
(SIGTERM triggers the server's clean shutdown).

Usage (normally started by ``run.py``)::

    python3 perfbench/launch_server.py [--trace-out spans.json] -- \\
        base.txt --data-dir state --port-file port.txt --threshold 0.5 ...
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    require_source()
    from repro.cli import main as cli_main

    recorder = None
    if args.trace_out is not None:
        from tracer import Recorder, install_server_layers

        recorder = Recorder()
        install_server_layers(recorder)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        if recorder is not None:
            recorder.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
