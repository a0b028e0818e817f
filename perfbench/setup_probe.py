"""Time one benchmark set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Imports the library, builds and relabels the workload's groups (writing
group files into workdir where the workload needs them), then prints the
wall-clock time, as time.time(), at which the groups were built.  run.py
starts it several times per run and reports the median set-up time.
"""

import sys
import time

from checkout import import_library


def main(argv) -> None:
    name, seed, workdir = argv
    import_library()
    import workloads

    workloads.WORKLOADS[name].setup(int(seed), workdir)
    print(repr(time.time()))


if __name__ == "__main__":
    main(sys.argv[1:])
