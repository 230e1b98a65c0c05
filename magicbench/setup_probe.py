"""Set-up time of a fresh interpreter, as run.py measures it.

    python3 magicbench/setup_probe.py <workload>     # prints {"setup_s": ...}
    python3 magicbench/setup_probe.py --import-only  # prints {"import_s": ...}

With a workload, the clock covers `import magicnoise` and one warm-up
operation, which fills the program's lazy caches: the time before the first
timed operation can start. With --import-only it covers
`import magicnoise.cli` alone, the import every CLI invocation pays.
run.py starts this script with the BLAS thread pin and PYTHONPATH set.
"""

import json
import sys
import time

start = time.perf_counter()

if sys.argv[1] == "--import-only":
    import magicnoise.cli  # noqa: F401

    print(json.dumps({"import_s": time.perf_counter() - start}))
else:
    import magicnoise  # noqa: F401

    import workloads

    workloads.runner(sys.argv[1])(workloads.FIRST_OP[sys.argv[1]])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
