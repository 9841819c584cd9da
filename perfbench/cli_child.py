"""Run one ``kz`` command under the tracer, for cli_cold's traced pass.

Usage: python3 perfbench/cli_child.py <kz arguments>

Behaves like ``python -m kzsolve.cli`` on stdout and exit code, and adds
one stderr line, TRACE_MARK followed by the tracer's JSON export, with
``cli.import_s``, ``cli.main_s`` and ``cli.emit_bytes`` samples.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout

t0 = time.perf_counter()
import kzsolve.cli  # noqa: E402  (timed import)

t1 = time.perf_counter()

from clicold import TRACE_MARK  # noqa: E402
from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
buf = io.StringIO()
code = 1
t2 = time.perf_counter()
try:
    with redirect_stdout(buf):
        code = kzsolve.cli.main(sys.argv[1:])
finally:
    t3 = time.perf_counter()
    tracer.uninstall()
    text = buf.getvalue()
    sys.stdout.write(text)
    sys.stdout.flush()
    tracer.cli_samples["cli.import_s"].append(t1 - t0)
    tracer.cli_samples["cli.main_s"].append(t3 - t2)
    tracer.cli_samples["cli.emit_bytes"].append(len(text.encode()))
    if code != 0:
        tracer.errors["cli"] += 1
    print(TRACE_MARK + json.dumps(tracer.export()), file=sys.stderr)
sys.exit(code)
