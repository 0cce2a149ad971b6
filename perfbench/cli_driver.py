"""Run one ``repro`` command with the layer wrappers installed.

The traced ``cli_cold`` op starts this driver instead of
``python -m repro.cli``, so the import of ``repro.cli``,
``build_parser`` and ``main`` are timed inside the child process, and
the layers below them are wrapped exactly as in-process workloads wrap
them.  The driver writes the tracer's totals to ``OUT.json`` and exits
with the command's exit code::

    python3 perfbench/cli_driver.py OUT.json run alexnet --arch tpu

``PYTHONPATH`` must name the checkout's ``src`` and this directory.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import layers
from trace_wrap import CATEGORY, Tracer

#: Span of the wrappers' installation, left out of the covered time.
INSTALL = "perfbench.install"


def main(argv) -> int:
    out, command = argv[0], argv[1:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    from repro.obs.trace import TRACER

    TRACER.enable()
    TRACER.add_span("cli.import", CATEGORY, threading.current_thread().name,
                    start, import_s)
    tracer = Tracer()
    installed = False

    def install_layers(tracer, args, kwargs, result) -> None:
        # Wrapping the layers below imports modules the command may not
        # need; doing it after build_parser has paid for the imports it
        # makes anyway keeps both build_parser's time and main's self
        # time as in an untraced call, and the extra imports count as
        # unattributed tracing cost.
        nonlocal installed
        if not installed:
            installed = True
            with TRACER.span(INSTALL, CATEGORY):
                layers.install(tracer)

    tracer.wrap(repro.cli, "build_parser", "cli.build_parser",
                install_layers)
    tracer.wrap(repro.cli, "main", "cli.main")
    try:
        code = repro.cli.main(command)
    finally:
        tracer.restore()
        TRACER.disable()
    layers.end_op(tracer)
    install_s = tracer.totals.pop(INSTALL, (0, 0.0))[1]
    Path(out).write_text(json.dumps({
        "totals": tracer.totals,
        "counts": tracer.counts,
        "covered_s": tracer.covered_s - install_s,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
