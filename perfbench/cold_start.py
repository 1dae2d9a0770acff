"""Time a fresh interpreter's `import dad` plus one cold `dad.cli.main` call.

Usage: python3 cold_start.py SRC_DIR CLI_ARG...

Prints one JSON object: the seconds from before `import dad` to the end of
the call, the exit code, the file `dad` was imported from, and the median of
three calibration loads run right after (see calib.py).
"""

import contextlib
import io
import json
import statistics
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dad  # noqa: E402
from dad import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[2:])
elapsed = time.perf_counter() - start

import calib  # noqa: E402

calib_s = statistics.median(calib.measure() for _ in range(3))
print(json.dumps({"seconds": elapsed, "code": code, "dad_file": dad.__file__, "calib_s": calib_s}))
