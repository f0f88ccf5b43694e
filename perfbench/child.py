"""Child processes of the benchmark.

``child.py setup WORKLOAD SEED`` imports ``ssb_lab.cli``, generates the
workload's inputs and prints the CLOCK_MONOTONIC time at which it is
ready for its first operation.  ``child.py ref`` imports only numpy and
prints the same time: the reference start that set-up is scaled by.

``child.py trace SPANS_OUT ARGV...`` installs the tracing wrappers, runs
``ssb_lab.cli.main(ARGV)``, writes its spans and counters to SPANS_OUT and
exits with main's code.  Both expect ``src`` on PYTHONPATH.
"""

import json
import sys
import time


def setup(workload: str, seed: str) -> int:
    import ssb_lab.cli  # noqa: F401  (part of what set-up costs)

    from workloads import WORKLOADS
    WORKLOADS[workload].make_inputs(int(seed))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


def ref() -> int:
    import numpy  # noqa: F401

    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


def trace(spans_out: str, *argv: str) -> int:
    import ssb_lab.cli

    from tracing import Tracer
    tracer = Tracer()
    tracer.prepare()
    tracer.install()
    try:
        return ssb_lab.cli.main(list(argv))
    finally:
        with open(spans_out, "w") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts},
                      handle)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "ref": ref, "trace": trace}[mode](*rest))
