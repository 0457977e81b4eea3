#!/usr/bin/env python3
"""Monte Carlo validation battery: sampled trace moments against exact values.

Runs a fixed set of seeded configurations and prints mean, exact value and
the z score of each comparison; every |z| should stay below 4, and the
script exits with status 1 when one does not.
"""

import argparse
import sys

import numpy as np

from qwishart.moments import MonomialSpec
from qwishart.montecarlo import SamplerConfig, estimate_monomial

CASES = [
    ("tr(W)  I3/I4", MonomialSpec(((1,),)), [(np.eye(3), np.eye(4))]),
    ("tr(W)  diag scale", MonomialSpec(((1,),)), [(np.eye(3), np.diag([4.0, 9.0]))]),
    ("tr(W^2)", MonomialSpec(((1, 1),)), [(np.eye(3), np.eye(4))]),
    (
        "tr(W1 W2)^2",
        MonomialSpec(((1, 2), (1, 2))),
        [(np.eye(3), np.eye(4)), (np.eye(3), np.eye(4))],
    ),
    (
        "tr(W1 W2) tr(W1)",
        MonomialSpec(((1, 2), (1,))),
        [(np.eye(2), np.eye(3)), (np.eye(2), np.eye(3))],
    ),
]


Z_LIMIT = 4.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20240809)
    args = parser.parse_args(argv)
    print(f"{'case':>20} {'mean':>14} {'exact':>12} {'stderr':>10} {'z':>6}")
    worst = 0.0
    for name, spec, colors in CASES:
        config = SamplerConfig(seed=args.seed, samples=args.samples, colors=tuple(colors))
        report = estimate_monomial(spec, config)
        worst = max(worst, report.z)
        print(
            f"{name:>20} {report.mean:>14.4f} {report.exact:>12.2f}"
            f" {report.stderr:>10.4f} {report.z:>6.2f}"
        )
    print(f"worst |z| = {worst:.2f}")
    return 1 if worst >= Z_LIMIT else 0


if __name__ == "__main__":
    sys.exit(main())
