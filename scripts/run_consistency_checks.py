#!/usr/bin/env python3
"""Run the fluctuation-relation and Monte Carlo cross-checks in one go.

    python scripts/run_consistency_checks.py [--seed N]

Both experiments get the same extra arguments, so pass only settings that both
of them read: today that is `--seed` alone.  A flag only one of them reads
exits 2.
"""

import sys

from workreal.cli import main

if __name__ == "__main__":
    status = main(["jarzynski-check", "--out", "results/jarzynski", *sys.argv[1:]])
    status |= main(["mc-crosscheck", "--out", "results/mc", "--seed", "20",
                    *sys.argv[1:]])
    sys.exit(status)
