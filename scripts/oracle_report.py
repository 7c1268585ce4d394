#!/usr/bin/env python3
"""Score the relaxation-and-rounding pipeline against the exact association DP.

Prints one line per random instance of up to --max-users by --max-servers
(lower bound, rounded objective, exact optimum, SDP iterations) and a summary
of how often the bound holds, how often the rounding lands within 5% of
exact, and the total SDP iterations. Equivalent to `mecopt oracle-compare`.
"""

import os
import sys

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from mecopt.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["oracle-compare", *sys.argv[1:]]))
