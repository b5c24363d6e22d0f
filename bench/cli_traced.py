"""Run one relaylink CLI command with the tracer installed.

    python3 bench/cli_traced.py TRACE_JSON NAME CLI_ARGS...

Behaves like ``python -m relaylink.cli CLI_ARGS...`` (same exit status, same
output files) and writes the command's spans, per-layer counts and import
time to TRACE_JSON.
"""

import sys
import time

trace_path, name, *argv = sys.argv[1:]
t0 = time.perf_counter()
import relaylink.cli as cli  # noqa: E402
import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.context = {"ksweep": "outage"}.get(argv[0], argv[0])
tracer.install()
code = tracer.call("cli.main", cli.main, argv)
tracer.uninstall()
tracer.dump(trace_path, {"command": name, "import_s": import_s})
sys.exit(code)
