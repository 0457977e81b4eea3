"""Exact trace moments of compound real Wishart and q-Wishart matrix families.

The package evaluates finite-size expectations of products of traces of
monomials in independent (or q-orthogonal) Wishart-type random matrices by
summing over pair partitions, computes the exact large-N fluctuation moments
about the Marchenko-Pastur law, and cross-validates everything against a
direct Wick-expansion oracle and a seeded Monte Carlo sampler.

Every submodule loads on first access (PEP 562): ``import qwishart`` compiles
none of them, a public name loads only the submodule that defines it, and
only the Monte Carlo sampler imports numpy.
"""

import sys as _sys

# Each submodule and the public names it defines, in the order of ``__all__``.
_PUBLIC = {
    "pairings": (
        "Coloring",
        "EnumerationBoundError",
        "GenusDecomposition",
        "IntegerPartition",
        "PairPartition",
        "SignedTraversal",
        "all_pairings",
        "block_pairing",
        "brauer",
        "canonical_cycles",
        "color_preserving_pairings",
        "components_and_genus",
        "connecting_pairings",
        "crossings",
        "cycle_type_pairing",
        "from_permutation",
        "identity_pairing",
        "induced_coloring",
        "is_noncrossing",
        "is_top_to_bottom",
        "noncrossing_image",
        "traverse",
    ),
    "polynomials": ("MomentPolynomial", "TraceAtom", "evaluate_atom", "limit_large_n"),
    "moments": (
        "FloatOverflowError",
        "MatrixBindings",
        "MonomialSpec",
        "brute_force_moment",
        "identity_shape_moment",
        "q_wishart_moment",
        "real_wishart_moment",
        "real_wishart_moment_general",
        "single_wishart_moment",
        "white_wishart_power_moment",
    ),
    "fluctuations": (
        "LimitMoment",
        "PolynomialStatistic",
        "centered_trace_moment",
        "centered_trace_moment_limit",
        "conditional_variance_check",
        "statistic_limit_moments",
    ),
    "mp": (
        "SetPartition",
        "SpectralMeasure",
        "compound_mp_moment",
        "mp_moment_check",
        "nc_partitions",
    ),
    "montecarlo": (
        "EstimateReport",
        "SamplerConfig",
        "estimate_monomial",
        "sample_family",
        "symmetric_root",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__`` of the dotted name, not ``from . import``, which probes
    # this hook again, nor importlib, which ``-X importtime`` does not log;
    # the import binds the submodule here, so the hook is not entered for it
    dotted = f"{__name__}.{home}"
    __import__(dotted)
    module = _sys.modules[dotted]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
