"""Numbers from outside: q, sizes, exact scalars and counts follow one rule.

Every public entry turns its q, sizes, exact scalars and counts into engine
values once (``polynomials._q_value``, ``_size``, ``_rational`` and
``pairings._count``; colors are counts >= 1).  A numpy integer must give exactly what the same Python int
gives, since int64 arithmetic would wrap without an error, and a q, size or
count that is not one raises a named ``ValueError``.  A spec that is not a
``MonomialSpec`` raises a named ``TypeError`` before any work.  Every B and
Sigma is read by one exact rule, so each matrix entry point refuses alike.
"""

import contextlib
import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from qwishart.fluctuations import (
    PolynomialStatistic,
    centered_trace_moment,
    centered_trace_moment_limit,
    conditional_variance_check,
    statistic_limit_moments,
)
from qwishart.moments import (
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
from qwishart.cli import run as cli_run
from qwishart.montecarlo import SamplerConfig, estimate_monomial, sample_family, symmetric_root
from qwishart.mp import (
    SetPartition,
    SpectralMeasure,
    compound_mp_moment,
    mp_moment_check,
    nc_partitions,
)
from qwishart.pairings import (
    Coloring,
    IntegerPartition,
    PairPartition,
    SignedTraversal,
    _count,
    all_pairings,
    block_pairing,
    brauer,
    canonical_cycles,
    components_and_genus,
    connecting_pairings,
    from_permutation,
    identity_pairing,
    induced_coloring,
)
from qwishart.polynomials import (
    MomentPolynomial,
    TraceAtom,
    _q_value,
    evaluate_atom,
    poly_from_json,
)

TRACE = PolynomialStatistic.from_terms([(1, (1,))])
QUARTIC = MonomialSpec(((1, 1, 1, 1),))
PAIR = MonomialSpec(((1, 1), (1, 1)))

# each call takes the integer type under test: int, then np.int64
ENTRIES = {
    "q_wishart_moment scale factor": lambda i: q_wishart_moment(
        QUARTIC, MatrixBindings.scalar([3], [i(2**20)], n_dim=2), q=1
    ),
    "q_wishart_moment q": lambda i: q_wishart_moment(PAIR, q=i(10**5)),
    "q_wishart_moment sizes": lambda i: q_wishart_moment(
        QUARTIC, MatrixBindings.scalar([i(10**6)], n_dim=i(10**6)), q=1
    ),
    "identity_shape_moment size": lambda i: identity_shape_moment(QUARTIC, [i(10**6)]),
    "brute_force_moment q": lambda i: brute_force_moment(QUARTIC, [[[1]]], [[[1]]], q=i(2**30)),
    "brute_force_moment entries": lambda i: brute_force_moment(
        QUARTIC, [[[i(2**20)]]], [[[1]]], q=1
    ),
    "white_wishart_power_moment sizes": lambda i: white_wishart_power_moment(
        (3, 2), i(10**5), i(10**5)
    ),
    "statistic_limit_moments q": lambda i: statistic_limit_moments(TRACE, 6, q=i(1000)),
    "statistic_limit_moments coefficient": lambda i: statistic_limit_moments(
        PolynomialStatistic.from_terms([(i(10**6), (1,))]), 4
    ),
    "centered_trace_moment q": lambda i: centered_trace_moment(PAIR, q=i(10**5)),
    "centered_trace_moment sizes": lambda i: centered_trace_moment(
        PAIR, q=1, shape_size=i(10**10), scale_dim=i(10**10)
    ),
    "centered_trace_moment_limit q": lambda i: centered_trace_moment_limit(
        MonomialSpec(((1, 1),) * 4), q=i(10**6)
    ),
    "conditional_variance_check q": lambda i: conditional_variance_check(TRACE, 2, q=i(10**5)),
    "mp_moment_check N": lambda i: mp_moment_check([1, 2], i(2), 3),
    "mp_moment_check eigenvalues": lambda i: mp_moment_check([i(10**6), 1], 3, 4),
    "compound_mp_moment": lambda i: compound_mp_moment(i(10**6), [i(10**6)] * 4, 4),
    "polynomial coefficient": lambda i: MomentPolynomial.constant(Fraction(i(2**62))) * 4,
}


@pytest.mark.parametrize("call", ENTRIES.values(), ids=ENTRIES.keys())
def test_numpy_integers_give_the_python_int_result(call):
    want, got = call(int), call(np.int64)
    assert got == want
    assert type(got) is type(want) and repr(got) == repr(want)


def test_wrapping_values_are_exact():
    # values that int64 arithmetic got wrong, worked out by hand or by Python ints
    assert ENTRIES["q_wishart_moment scale factor"](np.int64) == 3771848557197643025083269120
    assert ENTRIES["white_wishart_power_moment sizes"](np.int64) == (
        1000017001580028000336001440000000000
    )
    order_6 = ENTRIES["statistic_limit_moments q"](np.int64)[5].value
    lam = MomentPolynomial.symbol("lambda")
    assert order_6 == 1003003001003009009003006018018006005015015005 * lam**3


def test_q_value():
    assert _q_value("q") == "q"
    assert type(_q_value(np.int64(3))) is int
    assert _q_value(0.1) == Fraction(0.1)  # a float is its exact binary value
    half = _q_value(Fraction(np.int64(1), np.int64(2)))
    assert half == Fraction(1, 2) and type(half.numerator) is int
    assert type(_q_value(Fraction(4, 2))) is int


Q_ENTRIES = {
    "q_wishart_moment": lambda q: q_wishart_moment(PAIR, q=q),
    "brute_force_moment": lambda q: brute_force_moment(PAIR, [[[1]]], [[[1]]], q=q),
    "centered_trace_moment": lambda q: centered_trace_moment(PAIR, q=q),
    "centered_trace_moment_limit": lambda q: centered_trace_moment_limit(PAIR, q=q),
    "statistic_limit_moments": lambda q: statistic_limit_moments(TRACE, 2, q=q),
    "conditional_variance_check": lambda q: conditional_variance_check(TRACE, 0, q=q),
}


@pytest.mark.parametrize("q", [True, False, "lambda", "x", float("nan"), float("inf"), None])
@pytest.mark.parametrize("call", Q_ENTRIES.values(), ids=Q_ENTRIES.keys())
def test_bad_q_refused(call, q):
    with pytest.raises(ValueError, match="q must be the symbol 'q' or a rational number"):
        call(q)


SIZE_ENTRIES = {
    "centered_trace_moment shape_size": lambda s: centered_trace_moment(PAIR, shape_size=s),
    "centered_trace_moment scale_dim": lambda s: centered_trace_moment(PAIR, scale_dim=s),
    "white_wishart_power_moment shape_size": lambda s: white_wishart_power_moment((2,), s),
    "white_wishart_power_moment scale_size": lambda s: white_wishart_power_moment((2,), 2, s),
    "MatrixBindings.scalar shape size": lambda s: MatrixBindings.scalar([s]),
    "MatrixBindings.scalar n_dim": lambda s: MatrixBindings.scalar([2], n_dim=s),
    "identity_shape_moment shape size": lambda s: identity_shape_moment(PAIR, [s]),
}


# q and lambda are symbols, but a size named so would merge with them
@pytest.mark.parametrize("size", [2.5, True, 0, "x", "q", "lambda"])
@pytest.mark.parametrize("call", SIZE_ENTRIES.values(), ids=SIZE_ENTRIES.keys())
def test_bad_size_refused(call, size):
    with pytest.raises(ValueError, match="must be a positive integer or a symbol name"):
        call(size)


COUNT_ENTRIES = {
    "statistic_limit_moments max_order": ("max_order", lambda n: statistic_limit_moments(TRACE, n)),
    "conditional_variance_check m": ("m", lambda n: conditional_variance_check(TRACE, n)),
    "nc_partitions n": ("n", lambda n: list(nc_partitions(n))),
    "compound_mp_moment n": ("n", lambda n: compound_mp_moment(2, [1, 2, 3], n)),
    "mp_moment_check n_max": ("n_max", lambda n: mp_moment_check([1, 2], 2, n)),
}


@pytest.mark.parametrize("name, call", COUNT_ENTRIES.values(), ids=COUNT_ENTRIES.keys())
def test_numpy_count_gives_the_python_int_result(name, call):
    want, got = call(2), call(np.int64(2))
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("count", [True, False, 2.5, np.float64(2.0), "2", None, -1])
@pytest.mark.parametrize("name, call", COUNT_ENTRIES.values(), ids=COUNT_ENTRIES.keys())
def test_bad_count_refused(name, call, count):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(count)


def test_count():
    assert type(_count(np.uint64(2**64 - 1), "x", 0)) is int
    assert _count(-5, "seed", None) == -5
    for value, low, high, message in [
        (7, 1, 6, "x must be an integer in 1..6, got 7"),
        (0, 1, None, "x must be an integer >= 1, got 0"),
        (7, None, 6, "x must be an integer <= 6, got 7"),
        (True, None, None, "x must be an integer, got True"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            _count(value, "x", low, high)


# each call takes a value with a zero denominator or an infinity, and the
# message must name that value
NOT_FINITE_ENTRIES = {
    "MatrixBindings.scalar scale factor": lambda v: MatrixBindings.scalar(["M"], [v]),
    "mp_moment_check eigenvalue": lambda v: mp_moment_check([v], 2, 3),
    "compound_mp_moment aspect ratio": lambda v: compound_mp_moment(v, [1], 1),
    "compound_mp_moment base moment": lambda v: compound_mp_moment(2, [v], 1),
    "PolynomialStatistic coefficient": lambda v: PolynomialStatistic(((v, (1,)),)),
    "PolynomialStatistic.from_terms coefficient": lambda v: PolynomialStatistic.from_terms(
        [(v, (1,))]
    ),
}


@pytest.mark.parametrize("value", ["1/0", "-3/0", float("inf"), float("-inf")])
@pytest.mark.parametrize("call", NOT_FINITE_ENTRIES.values(), ids=NOT_FINITE_ENTRIES.keys())
def test_zero_denominator_or_infinity_refused(call, value):
    with pytest.raises(ValueError, match=re.escape(f"not a finite rational number: {value!r}")):
        call(value)


def test_statistic_coefficients_follow_the_rule():
    terms = ((2, (1,)), (np.int64(-1), (1, 1)))
    direct = PolynomialStatistic(terms)
    assert direct.terms[0][0] == MomentPolynomial.constant(2)
    from_terms = PolynomialStatistic.from_terms(terms)
    assert statistic_limit_moments(direct, 4) == statistic_limit_moments(from_terms, 4)
    half = PolynomialStatistic(((Fraction(1, 2), (1,)),))
    assert PolynomialStatistic.from_terms([(0.5, (1,))]) == half
    assert PolynomialStatistic.from_terms([("1/2", (1,))]) == half
    q, lam = MomentPolynomial.symbol("q"), MomentPolynomial.symbol("lambda")
    assert statistic_limit_moments(half, 2)[1].value == (1 + q) * lam * Fraction(1, 4)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: poly_from_json({"terms": [{"coeff": "1/0", "powers": {}}]}),
            "not a finite rational number: '1/0'",
        ),
        (
            lambda: MatrixBindings.numeric([([[1]], [["1/0"]])]),
            "Sigma entry [0][0] is not a number: '1/0'",
        ),
        (
            lambda: MatrixBindings.numeric([([[1, 0], [0, "2/0"]], [[1]])]),
            "B entry [1][1] is not a number: '2/0'",
        ),
    ],
    ids=["poly_from_json coefficient", "numeric Sigma entry", "numeric B entry"],
)
def test_zero_denominator_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# each call takes a spec; one that is not a MonomialSpec is refused by name
SPEC_ENTRIES = {
    "centered_trace_moment": lambda spec: centered_trace_moment(spec),
    "centered_trace_moment_limit": lambda spec: centered_trace_moment_limit(spec),
    "q_wishart_moment": lambda spec: q_wishart_moment(spec),
    "real_wishart_moment": lambda spec: real_wishart_moment(spec),
    "identity_shape_moment": lambda spec: identity_shape_moment(spec, [2]),
    "single_wishart_moment": lambda spec: single_wishart_moment(spec, [[1]], [[1]]),
    "brute_force_moment": lambda spec: brute_force_moment(spec, [[[1]]], [[[1]]]),
    "estimate_monomial": lambda spec: estimate_monomial(spec, _sampler(colors=((np.eye(1),) * 2,))),
}


@pytest.mark.parametrize(
    "spec, name", [(((1,), (1,)), "tuple"), ([[1, 1]], "list")], ids=["tuple", "list"]
)
@pytest.mark.parametrize("call", SPEC_ENTRIES.values(), ids=SPEC_ENTRIES.keys())
def test_spec_of_another_type_refused(call, spec, name):
    with pytest.raises(TypeError, match=f"^spec must be a MonomialSpec, got {name}$"):
        call(spec)


class TestColors:
    def test_numpy_colors_become_ints(self):
        coloring = Coloring.from_colors(np.array([2, 1, 2]))
        spec = MonomialSpec.from_words([np.array([1, 2]), [np.int64(2)]])
        assert coloring == Coloring.from_colors([2, 1, 2])
        assert spec == MonomialSpec(((1, 2), (2,)))
        assert all(type(c) is int for c in (*coloring.colors, coloring.s, *spec.cycle_words[0]))
        assert real_wishart_moment(spec) == real_wishart_moment(MonomialSpec(((1, 2), (2,))))

    @pytest.mark.parametrize("color", [1.0, 1.5, True, np.float64(1.0), "1", 0, -2, None])
    def test_bad_color_refused(self, color):
        message = f"^color must be an integer >= 1, got {re.escape(repr(color))}$"
        with pytest.raises(ValueError, match=message):
            Coloring.from_colors([1, color])
        with pytest.raises(ValueError, match=message):
            Coloring((1, color), 2)
        with pytest.raises(ValueError, match=message):
            MonomialSpec(((1,), (color,)))

    def test_no_points_refused(self):
        with pytest.raises(ValueError, match="^a coloring needs at least one point$"):
            Coloring.from_colors([])
        with pytest.raises(ValueError, match="^cycle words must be nonempty$"):
            MonomialSpec(((1,), ()))

    def test_numpy_statistic_words_become_ints(self):
        stat = PolynomialStatistic.from_terms([(1, np.array([1, 2])), (2, (np.int64(1),))])
        assert stat == PolynomialStatistic.from_terms([(1, (1, 2)), (2, (1,))])
        assert all(type(c) is int for _, word in stat.terms for c in word)
        assert statistic_limit_moments(stat, 2) == statistic_limit_moments(
            PolynomialStatistic.from_terms([(1, (1, 2)), (2, (1,))]), 2
        )

    @pytest.mark.parametrize("color", [1.5, True, np.float64(1.0), "1", 0, None])
    def test_bad_statistic_word_refused(self, color):
        message = f"^color must be an integer >= 1, got {re.escape(repr(color))}$"
        with pytest.raises(ValueError, match=message):
            PolynomialStatistic.from_terms([(1, (1, color))])
        with pytest.raises(ValueError, match=message):
            PolynomialStatistic(((TRACE.terms[0][0], (color,)),))

    @pytest.mark.parametrize("s", [0, 1.0, True])
    def test_bad_color_count_refused(self, s):
        with pytest.raises(ValueError, match="^s must be an integer >= 1"):
            Coloring((1,), s)

    def test_color_over_s_refused(self):
        with pytest.raises(ValueError, match=r"^colors must lie in 1\.\.s$"):
            Coloring((1, 3), 2)


def _sampler(seed=5, samples=3, colors=((np.eye(2), np.eye(2)),)):
    return SamplerConfig(seed=seed, samples=samples, colors=colors)


def _same_samples(a, b, index=0):
    return all(np.array_equal(x, y) for x, y in zip(sample_family(a, index), sample_family(b, index)))


class TestSamplerInputs:
    def test_numpy_seed_keeps_the_stream(self):
        config = _sampler(seed=np.int64(5))
        assert type(config.seed) is int and _same_samples(config, _sampler(seed=5))

    def test_seed_is_taken_mod_2_64(self):
        assert _same_samples(_sampler(seed=-1), _sampler(seed=2**64 - 1))
        assert _same_samples(_sampler(seed=2**64 + 5), _sampler(seed=5))
        assert not _same_samples(_sampler(seed=6), _sampler(seed=5))

    def test_numpy_counts(self):
        config = _sampler(samples=np.int64(3))
        assert type(config.samples) is int and config.samples == 3
        assert _same_samples(config, config, np.int64(2))
        for x, y in zip(sample_family(config, np.int64(2)), sample_family(config, 2)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("seed", [True, 2.5, "5", None])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got"):
            _sampler(seed=seed)

    @pytest.mark.parametrize("samples", [True, 2.5, np.float64(3.0), 0, -1, "3"])
    def test_bad_samples_refused(self, samples):
        with pytest.raises(ValueError, match="^samples must be an integer in 1.."):
            _sampler(samples=samples)

    @pytest.mark.parametrize("index", [True, 2.5, -1, "0"])
    def test_bad_index_refused(self, index):
        with pytest.raises(ValueError, match="^index must be an integer in 0.."):
            sample_family(_sampler(), index)

    def test_counters_do_not_wrap(self):
        # a 2x2 color takes 4 counters per sample, so 2**62 samples fill the
        # 2**64 counters; the next sample would wrap onto sample 0
        config = _sampler()
        assert config._sample_limit() == 2**62
        sample_family(config, 2**62 - 1)
        with pytest.raises(ValueError, match=f"^index must be an integer in 0..{2**62 - 1}, got"):
            sample_family(config, 2**62)
        _sampler(samples=2**62)
        with pytest.raises(ValueError, match=f"^samples must be an integer in 1..{2**62}, got"):
            _sampler(samples=2**62 + 1)


# too few per-color arguments: each is refused by name, not by a KeyError
# from inside the evaluator
PER_COLOR_REFUSALS = {
    "no Sigma": (lambda: identity_shape_moment(MonomialSpec(((1,),)), [2], []), "Sigma"),
    "one Sigma for two colors": (
        lambda: identity_shape_moment(MonomialSpec(((1, 2),)), [2, 2], [[[1]]]), "Sigma"
    ),
    "one shape size for two colors": (
        lambda: identity_shape_moment(MonomialSpec(((1, 2),)), [2]), "shape size"
    ),
}


@pytest.mark.parametrize("call, what", PER_COLOR_REFUSALS.values(), ids=PER_COLOR_REFUSALS.keys())
def test_too_few_per_color_arguments_refused(call, what):
    with pytest.raises(ValueError, match=f"^need one {what} per color$"):
        call()


# ---------------------------------------------------------------------------
# matrices: one B rule and one Sigma rule (``moments._square_rows`` and
# ``_sigma_rows``) read every matrix, exactly, so every entry point refuses
# the same inputs with the same message


def _matrices_cli(command: str, pairs) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``command --matrices`` over ``pairs``,
    with one trace of each color."""
    spec = json.dumps({"cycle_words": [[c] for c in range(1, len(pairs) + 1)]})
    matrices = json.dumps([{"B": b, "Sigma": sigma} for b, sigma in pairs])
    argv = [command, "--spec", spec, "--matrices", matrices]
    if command == "mc-validate":
        argv += ["--samples", "1000", "--seed", "7"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _one_sigma(pairs):
    (_, sigma), = pairs
    return sigma


# each entry point reads (B, Sigma) pairs; the last two read Sigma alone
MATRIX_ENTRIES = {
    "MatrixBindings.numeric": MatrixBindings.numeric,
    "brute_force_moment": lambda pairs: brute_force_moment(
        MonomialSpec(tuple((c,) for c in range(1, len(pairs) + 1))),
        [b for b, _ in pairs], [sigma for _, sigma in pairs], q=1,
    ),
    "SamplerConfig": lambda pairs: SamplerConfig(seed=1, samples=5, colors=pairs),
    "moment --matrices": lambda pairs: _matrices_cli("moment", pairs),
    "mc-validate --matrices": lambda pairs: _matrices_cli("mc-validate", pairs),
    "identity_shape_moment": lambda pairs: identity_shape_moment(
        MonomialSpec(tuple((c,) for c in range(1, len(pairs) + 1))),
        [1] * len(pairs), [sigma for _, sigma in pairs],
    ),
    "symmetric_root": lambda pairs: symmetric_root(_one_sigma(pairs)),
}
B_READERS = list(MATRIX_ENTRIES)[:5]
INF = float("inf")
# exactly positive definite: its determinant is 10^-20, but it rounds to a
# singular float matrix
NEAR_SINGULAR = [[1, 1], [1, "100000000000000000001/100000000000000000000"]]

MATRIX_REFUSALS = {
    "non-square B": ([([[1, 2]], [[1]])], "B must be square, got 1x2", B_READERS),
    "non-square Sigma": ([([[1]], [[1, 2]])], "Sigma must be square, got 1x2", None),
    "non-symmetric Sigma": ([([[1]], [[1, 2], [3, 4]])], "Sigma must be symmetric", None),
    "one-ulp asymmetric float Sigma": (
        [([[1]], [[1.0, 0.5], [0.5000000000000001, 1.0]])], "Sigma must be symmetric", None
    ),
    "indefinite Sigma": ([([[1]], [[1, 0], [0, -1]])], "Sigma must be positive definite", None),
    "Sigma of two dimensions": (
        [([[1]], [[1]]), ([[1]], [[1, 0], [0, 1]])],
        "all Sigma must share one dimension",
        list(MATRIX_ENTRIES)[:-1],
    ),
    "non-finite B": ([([[INF]], [[1]])], "B must be finite", B_READERS),
    "non-finite Sigma": ([([[1]], [[1.0, 0.0], [0.0, INF]])], "Sigma must be finite", None),
    # exact, so only the sampler's float copy of it is out of range
    "exact B beyond the double range": (
        [([["1e400"]], [[1]])], "B must be finite", ["SamplerConfig", "mc-validate --matrices"]
    ),
}


@pytest.mark.parametrize(
    "case, entry",
    [
        (case, entry)
        for case, (_, _, entries) in MATRIX_REFUSALS.items()
        for entry in entries or MATRIX_ENTRIES
    ],
)
def test_every_matrix_entry_refuses_alike(case, entry):
    pairs, message, _ = MATRIX_REFUSALS[case]
    call = MATRIX_ENTRIES[entry]
    if entry.endswith("--matrices"):
        assert call(pairs) == (2, "", f"error: --matrices: {message}\n")
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(pairs)


def test_exact_entry_beyond_the_double_range_accepted():
    bindings = MatrixBindings.numeric([([["1e400"]], [[1]])])
    assert real_wishart_moment(MonomialSpec(((1,),)), bindings) == 10**400


def test_sampler_without_colors_refused():
    with pytest.raises(ValueError, match=r"^the sampler needs at least one \(B, Sigma\) pair$"):
        SamplerConfig(seed=1, samples=5, colors=())


@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_exactly_positive_definite_sigma_accepted(entry):
    got = MATRIX_ENTRIES[entry]([([[1]], NEAR_SINGULAR)])
    if entry.endswith("--matrices"):
        code, out, _ = got
        assert code == 0
        if entry.startswith("mc-validate"):
            report = json.loads(out)
            assert report["exact"] == 2.0 and abs(report["z"]) <= 4


def test_sampler_clips_a_float_singular_root():
    # NEAR_SINGULAR rounds to [[1, 1], [1, 1]], whose float eigenvalues may
    # fall just below zero: they are clipped, and the root squares back
    root = symmetric_root(NEAR_SINGULAR)
    assert np.allclose(root, np.full((2, 2), 0.5**0.5), rtol=0, atol=1e-12)
    assert np.allclose(root @ root, np.ones((2, 2)), rtol=0, atol=1e-12)
    config = SamplerConfig(seed=7, samples=20_000, colors=(([[1]], NEAR_SINGULAR),))
    report = estimate_monomial(MonomialSpec(((1, 1),)), config)
    assert report.exact == 12.0 and report.z <= 4


# ---------------------------------------------------------------------------
# one row per refusal: the call, its exception type and its whole message.
# A count goes through ``pairings._count`` wherever it enters, so a float or
# a bool is refused by name rather than by a bare ``TypeError`` from inside


ID2 = identity_pairing(2)
CROSS2 = PairPartition.from_pairs([(1, 2), (-1, -2)])  # not top-to-bottom
COLORS2 = Coloring((1, 1), 1)
B1 = TraceAtom.make("shape", [(1, False)])
B1B2 = TraceAtom.make("shape", [(1, False), (2, False)])
FLOAT_POWER = {"kind": "shape", "word": [[1, False]], "power": 2.9}  # a JSON atom

REFUSALS = {
    # pairings
    "PairPartition n": (lambda: PairPartition(0, ()), ValueError, "n must be positive"),
    "PairPartition float n": (
        lambda: PairPartition(1.0, (1, 0)), ValueError, "n must be an integer, got 1.0"
    ),
    "PairPartition table length": (
        lambda: PairPartition(2, (1, 0)), ValueError, "match table has wrong length"
    ),
    "PairPartition fixed point": (
        lambda: PairPartition(1, (0, 1)),
        ValueError,
        "match table is not a fixed-point-free involution",
    ),
    "PairPartition entry out of range": (
        lambda: PairPartition(1, (2, 0)),
        ValueError,
        "match table is not a fixed-point-free involution",
    ),
    "PairPartition float entry": (
        lambda: PairPartition(1, (1.0, 0)),
        ValueError,
        "match table entry must be an integer, got 1.0",
    ),
    "PairPartition.match zero": (lambda: ID2.match(0), ValueError, "index 0 outside ±1..±2"),
    "PairPartition.match beyond n": (
        lambda: ID2.match(-3), ValueError, "index -3 outside ±1..±2"
    ),
    "SignedTraversal perm": (
        lambda: SignedTraversal((1, 1), (1, 1)), ValueError, "perm is not a bijection of 1..n"
    ),
    "SignedTraversal bool perm": (
        lambda: SignedTraversal((True,), (1,)),
        ValueError,
        "perm entry must be an integer, got True",
    ),
    "SignedTraversal signs": (
        lambda: SignedTraversal((1,), (0,)), ValueError, "signs must be ±1 per point"
    ),
    "SignedTraversal sign count": (
        lambda: SignedTraversal((2, 1), (1,)), ValueError, "signs must be ±1 per point"
    ),
    "SignedTraversal bool sign": (
        lambda: SignedTraversal((1,), (True,)), ValueError, "signs must be ±1 per point"
    ),
    "SignedTraversal float sign": (
        lambda: SignedTraversal((1,), (-1.0,)), ValueError, "signs must be ±1 per point"
    ),
    "PairPartition.from_pairs float index": (
        lambda: PairPartition.from_pairs([(1.0, -1.0)]),
        ValueError,
        "pair index must be an integer, got 1.0",
    ),
    "PairPartition.from_pairs float n": (
        lambda: PairPartition.from_pairs([(1, -1)], n=1.0),
        ValueError,
        "n must be an integer, got 1.0",
    ),
    "IntegerPartition no parts": (
        lambda: IntegerPartition(()), ValueError, "parts must be positive"
    ),
    "IntegerPartition zero part": (
        lambda: IntegerPartition((2, 0)), ValueError, "parts must be positive"
    ),
    "IntegerPartition increasing": (
        lambda: IntegerPartition((1, 2)), ValueError, "parts must be weakly decreasing"
    ),
    "IntegerPartition float part": (
        lambda: IntegerPartition((1.5,)), ValueError, "part must be an integer, got 1.5"
    ),
    "block_pairing no blocks": (
        lambda: block_pairing([]), ValueError, "block sizes must be positive"
    ),
    "block_pairing zero block": (
        lambda: block_pairing([2, 0]), ValueError, "block sizes must be positive"
    ),
    "block_pairing float block": (
        lambda: block_pairing([1.5]), ValueError, "block size must be an integer, got 1.5"
    ),
    "identity_pairing float n": (
        lambda: identity_pairing(2.0), ValueError, "n must be an integer, got 2.0"
    ),
    "all_pairings float n": (
        lambda: list(all_pairings(2.0)), ValueError, "n must be an integer, got 2.0"
    ),
    "all_pairings negative n": (
        lambda: list(all_pairings(-1)), ValueError, "n=-1 must be nonnegative"
    ),
    "from_permutation repeated image": (
        lambda: from_permutation([2, 2]), ValueError, "perm is not a bijection of 1..n"
    ),
    "from_permutation float entry": (
        lambda: from_permutation([1.0, 2]), ValueError, "perm entry must be an integer, got 1.0"
    ),
    "canonical_cycles image beyond n": (
        lambda: canonical_cycles([3, 1]), ValueError, "perm is not a bijection of 1..n"
    ),
    "brauer sizes": (lambda: brauer(ID2, identity_pairing(3)), ValueError, "sizes differ"),
    "brauer left factor": (
        lambda: brauer(CROSS2, ID2), ValueError, "left factor must be a top-to-bottom pairing"
    ),
    "induced_coloring coloring size": (
        lambda: induced_coloring(ID2, ID2, Coloring((1,), 1)), ValueError, "sizes differ"
    ),
    "induced_coloring left factor size": (
        lambda: induced_coloring(identity_pairing(3), ID2, COLORS2), ValueError, "sizes differ"
    ),
    "induced_coloring left factor": (
        lambda: induced_coloring(CROSS2, ID2, COLORS2),
        ValueError,
        "left factor must be a top-to-bottom pairing",
    ),
    "connecting_pairings sizes": (
        lambda: list(connecting_pairings(COLORS2, identity_pairing(3))), ValueError, "sizes differ"
    ),
    "connecting_pairings base": (
        lambda: list(connecting_pairings(COLORS2, CROSS2)),
        ValueError,
        "base must be a top-to-bottom pairing",
    ),
    "components_and_genus sizes": (
        lambda: components_and_genus(ID2, identity_pairing(3)), ValueError, "sizes differ"
    ),
    "components_and_genus base": (
        lambda: components_and_genus(CROSS2, ID2),
        ValueError,
        "base must be a top-to-bottom pairing",
    ),
    # polynomials
    "TraceAtom kind": (
        lambda: TraceAtom("other", ((1, False),)), ValueError, "kind must be 'shape' or 'scale'"
    ),
    "TraceAtom empty word": (
        lambda: TraceAtom("shape", ()),
        ValueError,
        "word must be a nonempty sequence of 1-based colors",
    ),
    "TraceAtom color zero": (
        lambda: TraceAtom("scale", ((0, False),)),
        ValueError,
        "word must be a nonempty sequence of 1-based colors",
    ),
    "TraceAtom canonical form": (
        lambda: TraceAtom("shape", ((2, False), (1, False))),
        ValueError,
        "word is not in canonical form; use TraceAtom.make",
    ),
    "TraceAtom.make empty word": (
        lambda: TraceAtom.make("shape", []),
        ValueError,
        "word must be a nonempty sequence of 1-based colors",
    ),
    "TraceAtom.make float color": (
        lambda: TraceAtom.make("shape", [(1.5, False)]),
        ValueError,
        "color must be an integer, got 1.5",
    ),
    "TraceAtom.make int flag": (
        lambda: TraceAtom.make("shape", [(1, 0)]),
        ValueError,
        "transpose flag must be a bool, got 0",
    ),
    "TraceAtom.make string flag": (
        lambda: TraceAtom.make("shape", [(1, "no")]),
        ValueError,
        "transpose flag must be a bool, got 'no'",
    ),
    "polynomial key": (
        lambda: MomentPolynomial.monomial(1, {3: 1}), TypeError, "bad polynomial key: 3"
    ),
    # an exponent is a count (``_count``), never truncated to one
    "symbol float power": (
        lambda: MomentPolynomial.symbol("N", 1.5),
        ValueError,
        "exponent must be an integer, got 1.5",
    ),
    "float power of a polynomial": (
        lambda: MomentPolynomial.symbol("q") ** 1.5,
        ValueError,
        "exponent must be an integer, got 1.5",
    ),
    "coefficient float exponent": (
        lambda: MomentPolynomial.symbol("q").coefficient({"q": 1.9}),
        ValueError,
        "exponent must be an integer, got 1.9",
    ),
    "monomial bool exponent": (
        lambda: MomentPolynomial.monomial(1, {"q": True}),
        ValueError,
        "exponent must be an integer, got True",
    ),
    "poly_from_json float atom power": (
        lambda: poly_from_json({"terms": [{"coeff": 1, "powers": {"atoms": [FLOAT_POWER]}}]}),
        ValueError,
        "exponent must be an integer, got 2.9",
    ),
    "poly_from_json bool coefficient": (
        lambda: poly_from_json({"terms": [{"coeff": True, "powers": {}}]}),
        TypeError,
        'True is not an exact number; write an integer or a quoted rational such as "1/10"',
    ),
    "negative atom exponent": (
        lambda: MomentPolynomial.monomial(1, {B1: -1}),
        ValueError,
        "atom exponents must be nonnegative",
    ),
    "negative power": (
        lambda: MomentPolynomial.symbol("q") ** -1,
        ValueError,
        "negative powers of polynomials are not defined",
    ),
    "evaluate_atom non-square matrix": (
        lambda: evaluate_atom(B1, {1: [[1, 2]]}), ValueError, "matrix must be square and nonempty"
    ),
    "evaluate_atom dimension mismatch": (
        lambda: evaluate_atom(B1B2, {1: [[1]], 2: [[1, 0], [0, 1]]}),
        ValueError,
        "dimension mismatch in matrix product",
    ),
    # mp
    "SetPartition empty block": (
        lambda: SetPartition(1, (frozenset(), frozenset({1}))),
        ValueError,
        "blocks must be nonempty and disjoint",
    ),
    "SetPartition overlapping blocks": (
        lambda: SetPartition(2, (frozenset({1, 2}), frozenset({2}))),
        ValueError,
        "blocks must be nonempty and disjoint",
    ),
    "SetPartition cover": (
        lambda: SetPartition(3, (frozenset({1}), frozenset({2}))),
        ValueError,
        "blocks must cover 1..n",
    ),
    "SetPartition order": (
        lambda: SetPartition(2, (frozenset({2}), frozenset({1}))),
        ValueError,
        "blocks must be ordered by their minima",
    ),
    "SetPartition bool n": (
        lambda: SetPartition(True, (frozenset({1}),)),
        ValueError,
        "n must be an integer >= 0, got True",
    ),
    "SetPartition float n": (
        lambda: SetPartition(1.0, (frozenset({1}),)),
        ValueError,
        "n must be an integer >= 0, got 1.0",
    ),
    "SetPartition float element": (
        lambda: SetPartition(1, (frozenset({1.0}),)),
        ValueError,
        "block element must be an integer, got 1.0",
    ),
    "SpectralMeasure string location": (
        lambda: SpectralMeasure((("x", 1),)), ValueError, "not a finite rational number: 'x'"
    ),
    "SpectralMeasure bool mass": (
        lambda: SpectralMeasure(((1, True),)), ValueError, "not a finite rational number: True"
    ),
    "mp_moment_check bool eigenvalue": (
        lambda: mp_moment_check([True], 2, 3), ValueError, "not a finite rational number: True"
    ),
    "SpectralMeasure zero mass": (
        lambda: SpectralMeasure(((1, Fraction(0)), (2, Fraction(1)))),
        ValueError,
        "masses must be positive",
    ),
    "SpectralMeasure total mass": (
        lambda: SpectralMeasure(((1, Fraction(1, 2)),)), ValueError, "masses must sum to one"
    ),
    "SpectralMeasure.from_eigenvalues none": (
        lambda: SpectralMeasure.from_eigenvalues([]), ValueError, "need at least one eigenvalue"
    ),
    "compound_mp_moment base moments": (
        lambda: compound_mp_moment(1, [1], 2),
        ValueError,
        "need the first 2 moments of the base measure",
    ),
    # moments
    "real_wishart_moment_general sizes": (
        lambda: real_wishart_moment_general(ID2, Coloring((1,), 1)), ValueError, "sizes differ"
    ),
    "real_wishart_moment_general sigma": (
        lambda: real_wishart_moment_general(CROSS2, COLORS2),
        ValueError,
        "sigma must be a top-to-bottom pairing",
    ),
    "single_wishart_moment two colors": (
        lambda: single_wishart_moment(MonomialSpec(((1, 2),)), [[1]], [[1]]),
        ValueError,
        "single-matrix moment needs a one-color spec",
    ),
    "brute_force_moment too few matrices": (
        lambda: brute_force_moment(MonomialSpec(((1, 2),)), [[[1]]], [[[1]]]),
        ValueError,
        "need one shape and one scale matrix per color",
    ),
    "white_wishart_power_moment float part": (
        lambda: white_wishart_power_moment([1.5]), ValueError, "part must be an integer, got 1.5"
    ),
    "white_wishart_power_moment bool parts": (
        lambda: white_wishart_power_moment([True, True]),
        ValueError,
        "part must be an integer, got True",
    ),
    # fluctuations
    "PolynomialStatistic no terms": (
        lambda: PolynomialStatistic(()), ValueError, "statistic needs nonempty trace words"
    ),
}


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_by_name(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is kind


def test_mp_records_read_their_numbers_by_the_one_rule():
    # a float mass is its exact binary value, so the moment stays a Fraction
    moment = compound_mp_moment(1, SpectralMeasure(((1, 1.0),)), 3)
    assert type(moment) is Fraction and moment == 5
    measure = SpectralMeasure((("1/2", "1/4"), (np.int64(2), Fraction(3, 4))))
    assert measure.atoms == ((Fraction(1, 2), Fraction(1, 4)), (2, Fraction(3, 4)))
    assert type(measure.atoms[1][0]) is int
    part = SetPartition(np.int64(2), (frozenset({np.int64(1), np.int64(2)}),))
    assert part == SetPartition(2, (frozenset({1, 2}),)) and type(part.n) is int
    assert {type(x) for x in part.blocks[0]} == {int}


def test_counts_through_the_one_rule_become_ints():
    # numpy integers are counts too, read as Python ints wherever they enter
    i = np.int64
    assert type(IntegerPartition((i(2), i(1))).parts[0]) is int
    assert type(PairPartition(i(1), (i(1), i(0))).table[0]) is int
    assert from_permutation([i(2), i(1)]) == from_permutation([2, 1])
    assert block_pairing([i(2), i(1)]) == block_pairing([2, 1])
    pairs = PairPartition.from_pairs([(i(1), i(-1))], n=i(1))
    assert pairs == PairPartition.from_pairs([(1, -1)]) and type(pairs.n) is int
    signs = SignedTraversal((2, 1), (i(1), i(-1))).signs
    assert signs == (1, -1) and type(signs[0]) is int
    atom = TraceAtom.make("shape", [(i(2), False), (i(1), True)])
    assert atom.word == ((1, False), (2, True)) and type(atom.word[0][0]) is int
    assert white_wishart_power_moment([i(1)], 2, 3) == white_wishart_power_moment([1], 2, 3)
