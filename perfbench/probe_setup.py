"""Time one fresh process's set-up for a workload: import plus prepare.

    python3 perfbench/probe_setup.py <workload> <seed>

Prints {"setup_s": ...}.  run.py starts it several times per run and
reports the median, with the BLAS thread variables it pinned inherited.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import srcpath  # noqa: E402


def main(workload_name, seed):
    srcpath.use_checkout_source()
    import workloads

    workloads.WORKLOADS[workload_name](int(seed)).prepare()
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))


if __name__ == "__main__":
    main(*sys.argv[1:])
