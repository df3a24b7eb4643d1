"""Start ``repro-probe serve`` with every layer wrapped by the tracer.

Usage::

    python3 perfbench/service_launcher.py SPANS_FILE RUN_ID serve --data-dir DIR ...

Installs the same wrappers as the in-process traced runs, hands the
remaining arguments to the program's CLI, and writes the daemon's spans to
``SPANS_FILE`` once the daemon has drained and returned.  SIGUSR1 opens the
trace window: spans that end before it (start-up, warm-up) are dropped,
and the file ``SPANS_FILE`` with suffix ``.window`` is created to say so.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

from common import OUT_DIR, add_repo_to_path


def main() -> int:
    spans_file, run_id, *cli_args = sys.argv[1:]
    add_repo_to_path()
    from tracing import Tracer, install

    tracer = Tracer(run_id, OUT_DIR)
    window = {"opened": float("-inf")}

    def open_window(_signum, _frame) -> None:
        window["opened"] = time.perf_counter()
        Path(spans_file).with_suffix(".window").touch()

    signal.signal(signal.SIGUSR1, open_window)
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.spans = [span for span in tracer.spans if span["end"] >= window["opened"]]
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
