#!/usr/bin/env python3
"""Run the whole exhaustive verification battery and print one summary line
per suite.  Exits nonzero on any failure.

    python scripts/verify_all.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lrsc.codec import LrscCode
from lrsc.oracle import verify_scalar, verify_stream
from lrsc.params import derive_params

EXACT = [(a, a * (r + 1) - 1, r) for a in (2, 3, 4) for r in (1, 2, 3)]
SHORT = [(2, 4, 2), (3, 7, 2), (3, 8, 3), (4, 9, 3)]
GRACEFUL = [(3, 2), (4, 1), (4, 2)]


def main():
    bad = 0
    for a, tau, r in EXACT + SHORT:
        code = LrscCode(derive_params(a, tau, r))
        if code.params.regime == "exact":
            rep = verify_scalar(code.weights)
            print(f"scalar  ({a},{tau},{r}): {rep.summary()}")
            bad += len(rep.failures)
        for budget, deadline, tag in ((a, tau, "budget"), (1, r, "locality")):
            rep = verify_stream(code, budget, deadline)
            print(f"{tag:>7} ({a},{tau},{r}): {rep.summary()}")
            bad += len(rep.failures)
    for a, r in GRACEFUL:
        tau = a * (r + 1) - 1
        code = LrscCode(derive_params(a, tau, r))
        for h in range(1, a + 1):
            rep = verify_stream(code, h, h * (r + 1) - 1)
            print(f"h={h}     ({a},{tau},{r}): {rep.summary()}")
            bad += len(rep.failures)
    print("ALL CLEAR" if bad == 0 else f"{bad} FAILURES")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
