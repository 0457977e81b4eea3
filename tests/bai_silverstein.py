"""The limit covariance of traces of powers of a real sample covariance matrix.

For W = X'X / N with X an N x M matrix of i.i.d. standard normal entries and
M/N -> lambda, tr(W^r1) and tr(W^r2), centered, have the limit covariance
(Jonsson, J. Multivariate Anal. 12, 1982; Bai & Silverstein, Ann. Probab. 32,
2004, the real case)

    Cov(r1, r2) = 2 lambda^(r1+r2) sum_{k1=0}^{r1-1} sum_{k2=0}^{r2}
                  C(r1, k1) C(r2, k2) ((1 - lambda)/lambda)^(k1+k2)
                  sum_{l=1}^{r1-k1} l C(2r1-1-k1-l, r1-1) C(2r2-1-k2+l, r2-1).

It is computed here in integers, from the formula alone, so it shares nothing
with the engines: the tests hold the q = 1 limit engine against it.
"""

from __future__ import annotations

from math import comb


def trace_power_covariance(r1: int, r2: int) -> dict[int, int]:
    """Cov(r1, r2) as ``{power of lambda: integer coefficient}``, nonzero terms only.

    lambda^(r1+r2) ((1 - lambda)/lambda)^k is expanded as
    sum_i C(k, i) (-1)^i lambda^(r1+r2-k+i).
    """
    out: dict[int, int] = {}
    for k1 in range(r1):
        for k2 in range(r2 + 1):
            inner = sum(
                l * comb(2 * r1 - 1 - k1 - l, r1 - 1) * comb(2 * r2 - 1 - k2 + l, r2 - 1)
                for l in range(1, r1 - k1 + 1)
            )
            c, k = 2 * comb(r1, k1) * comb(r2, k2) * inner, k1 + k2
            for i in range(k + 1):
                e = r1 + r2 - k + i
                out[e] = out.get(e, 0) + (-1) ** i * comb(k, i) * c
    return {e: c for e, c in sorted(out.items()) if c}
