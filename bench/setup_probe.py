"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is what a study pays before its first replication: importing
seqdopt, then parsing and validating the workload's configs.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, cell_seed  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import seqdopt  # noqa: F401
    from seqdopt.config import parse_config
    for cell in WORKLOADS[workload]:
        parse_config(**cell.config_kwargs(cell_seed(seed, workload, cell)))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
