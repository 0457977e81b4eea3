"""Exact trace moments of compound real Wishart and q-Wishart matrix families.

The package evaluates finite-size expectations of products of traces of
monomials in independent (or q-orthogonal) Wishart-type random matrices by
summing over pair partitions, computes the exact large-N fluctuation moments
about the Marchenko-Pastur law, and cross-validates everything against a
direct Wick-expansion oracle and a seeded Monte Carlo sampler.
"""

from importlib import import_module as _import_module

from .pairings import (
    Coloring,
    GenusDecomposition,
    IntegerPartition,
    PairPartition,
    SignedTraversal,
    all_pairings,
    block_pairing,
    brauer,
    canonical_cycles,
    color_preserving_pairings,
    components_and_genus,
    connecting_pairings,
    crossings,
    cycle_type_pairing,
    from_permutation,
    identity_pairing,
    induced_coloring,
    is_noncrossing,
    is_top_to_bottom,
    noncrossing_image,
    traverse,
)
from .polynomials import MomentPolynomial, TraceAtom, evaluate_atom, limit_large_n
from .moments import (
    FloatOverflowError,
    MatrixBindings,
    MonomialSpec,
    brute_force_moment,
    identity_shape_moment,
    q_wishart_moment,
    real_wishart_moment,
    real_wishart_moment_general,
    single_wishart_moment,
    white_wishart_power_moment,
)
from .fluctuations import (
    LimitMoment,
    PolynomialStatistic,
    centered_trace_moment,
    centered_trace_moment_limit,
    conditional_variance_check,
    statistic_limit_moments,
)
from .mp import (
    SetPartition,
    SpectralMeasure,
    compound_mp_moment,
    mp_moment_check,
    nc_partitions,
)

# The Monte Carlo sampler is the only part of the package that needs numpy
# at import time, so it loads on first access (PEP 562): exact-only work
# never imports numpy.
_MONTECARLO_NAMES = (
    "EstimateReport",
    "SamplerConfig",
    "estimate_monomial",
    "sample_family",
    "symmetric_root",
)

__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += ["montecarlo", *_MONTECARLO_NAMES]


def __getattr__(name: str):
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        # importlib, not ``from . import``: the latter probes this hook again
        montecarlo = _import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
