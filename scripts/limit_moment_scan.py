#!/usr/bin/env python3
"""Print the exact fluctuation limit moments for a few trace statistics.

Each statistic is centered by its mean; the table lists the limit of its
m-th moment as a polynomial in q and lambda, optionally evaluated at a
rational q.
"""

import argparse
from fractions import Fraction

from qwishart.fluctuations import PolynomialStatistic, statistic_limit_moments
from qwishart.polynomials import MomentPolynomial

P = MomentPolynomial
q = P.symbol("q")
lam = P.symbol("lambda")

STATISTICS = {
    "trace": PolynomialStatistic.from_terms([(1, (1,))]),
    "product": PolynomialStatistic.from_terms([(1, (1, 2))]),
    "tuned-square": PolynomialStatistic.from_terms(
        [(1, (1, 1)), (-1 * (1 + q**2 + 2 * lam), (1,))]
    ),
}

MAX_ORDERS = {"trace": 16, "product": 4, "tuned-square": 12}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", default="sym", help="rational q or 'sym'")
    parser.add_argument(
        "--statistic", choices=sorted(STATISTICS), action="append", default=None
    )
    args = parser.parse_args()
    q_value = "q" if args.q in ("sym", "q") else Fraction(args.q)
    names = args.statistic or sorted(STATISTICS)
    for name in names:
        statistic = STATISTICS[name]
        print(f"== {name}")
        limits = statistic_limit_moments(statistic, MAX_ORDERS[name], q_value)
        for order, limit in enumerate(limits, start=1):
            print(f"  m{order} = {limit.value}")


if __name__ == "__main__":
    main()
