"""Set-up of one workload in a fresh process: import mcfc and build its inputs.

Prints ``ready`` once the inputs exist; ``run.py`` times the process from
spawn to that line.  Usage: ``python3 setup_probe.py WORKLOAD SEED WORKDIR``.
"""

import sys
from pathlib import Path

import bootstrap


def main(workload: str, seed: str, workdir: str) -> None:
    bootstrap.use_source_tree()
    import workloads

    workloads.WORKLOADS[workload].build(int(seed), Path(workdir))
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
