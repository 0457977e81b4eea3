import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwishart.polynomials import (
    MomentPolynomial,
    TraceAtom,
    _canonical_word,
    _make_monomial,
    _term_sort_key,
    evaluate_atom,
    limit_large_n,
    poly_from_json,
    poly_to_json,
    rational_to_str,
)

P = MomentPolynomial
q = P.symbol("q")
lam = P.symbol("lambda")
N = P.symbol("N")


rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


@st.composite
def poly_st(draw):
    terms = draw(
        st.lists(
            st.tuples(
                rationals,
                st.integers(0, 3),
                st.integers(-2, 2),
                st.integers(0, 2),
            ),
            max_size=5,
        )
    )
    out = P.zero()
    for coeff, eq_, en, el in terms:
        out = out + P.monomial(coeff, {"q": eq_, "N": en, "lambda": el})
    return out


@st.composite
def rational_matrix_st(draw, n=3):
    return [
        [draw(st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)) for _ in range(n)]
        for _ in range(n)
    ]


class TestRing:
    def test_cancellation(self):
        p = 3 * q**2 + lam
        assert (p + (-1) * p).is_zero()

    def test_monomial_product(self):
        assert q * q == P.symbol("q", 2)

    def test_small_expansion(self):
        assert (1 + q) * (1 + q**2) == 1 + q + q**2 + q**3

    @given(poly_st(), poly_st(), poly_st())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(poly_st())
    def test_canonical_equality(self, a):
        rebuilt = P.zero()
        for mono, coeff in reversed(a.terms()):
            rebuilt = rebuilt + P({mono: coeff})
        assert rebuilt == a
        assert hash(rebuilt) == hash(a)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            P.symbol("x")


class TestSubstitution:
    def test_scalar(self):
        assert P.symbol("q", 2).substitute({"q": 1}) == P.constant(1)

    def test_symbol_to_poly(self):
        m = P.symbol("M")
        assert m.substitute({"M": lam * N}) == lam * N

    def test_atom_binding(self):
        atom = TraceAtom.make("shape", [(1, False), (1, False)])
        p = 2 * P.atom(atom)
        assert p.substitute({atom: 4}) == P.constant(8)

    def test_negative_power(self):
        p = P.monomial(3, {"N": -2})
        assert p.substitute({"N": 2}) == P.constant(Fraction(3, 4))

    @given(poly_st(), rationals, rationals)
    def test_substitute_commutes_with_evaluation(self, p, qv, lv):
        both = p.substitute({"q": qv, "lambda": lv})
        stepwise = p.substitute({"q": qv}).substitute({"lambda": lv})
        assert both == stepwise


class TestLimit:
    def test_drops_vanishing(self):
        assert limit_large_n(3 + 5 * P.symbol("N", -1)) == P.constant(3)

    def test_keeps_finite(self):
        p = lam**2 * q**4 + 2 * lam**3 * P.symbol("N", -1)
        assert limit_large_n(p) == lam**2 * q**4

    def test_rejects_divergence(self):
        with pytest.raises(ValueError):
            limit_large_n(N + 1)


class TestAtoms:
    def test_rotation_canonical(self):
        a = TraceAtom.make("scale", [(2, False), (1, False)])
        b = TraceAtom.make("scale", [(1, False), (2, False)])
        assert a == b

    def test_reversal_with_flip(self):
        # tr(B1 B2') and tr(B2 B1') agree for real matrices
        a = TraceAtom.make("shape", [(1, False), (2, True)])
        b = TraceAtom.make("shape", [(2, False), (1, True)])
        assert a == b

    def test_transpose_word_vs_plain(self):
        assert TraceAtom.make("shape", [(1, True), (1, True)]) == TraceAtom.make(
            "shape", [(1, False), (1, False)]
        )
        assert TraceAtom.make("shape", [(1, True), (1, False)]) != TraceAtom.make(
            "shape", [(1, False), (1, False)]
        )

    def test_canonicalization_idempotent(self):
        word = ((2, True), (1, False), (2, False))
        atom = TraceAtom.make("shape", word)
        assert TraceAtom.make("shape", atom.word) == atom

    def test_str(self):
        atom = TraceAtom.make("shape", [(2, False), (2, True)])
        assert str(atom) == "tr(B2 B2')"

    def test_unpickled_atom_is_found_under_another_hash_seed(self):
        # an atom stores its hash, and a string's hash differs between
        # processes, so the stored hash must be recomputed on load
        src = str(Path(__file__).resolve().parents[1] / "src")
        make = "TraceAtom.make('scale', [(2, False), (1, False)])"

        def run(seed: str, code: str, stdin: str = "") -> str:
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            code = "import pickle, sys\nfrom qwishart.polynomials import TraceAtom\n" + code
            return subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout

        data = run("1", f"sys.stdout.write(pickle.dumps({make}).hex())")
        load = (
            "atom = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            f"print(atom in {{{make}: 1}}, hash(atom) == hash((atom.kind, atom.word)))\n"
        )
        assert run("2", load, data).split() == ["True", "True"]


def _canonical_word_by_all_rotations(word):
    """Least word over all 2L rotations of the word and its transpose-flipped reversal."""
    reversed_flipped = tuple((c, not t) for c, t in reversed(word))
    best = word
    for w in (word, reversed_flipped):
        for i in range(len(w)):
            cand = w[i:] + w[:i]
            if cand < best:
                best = cand
    return best


_LETTERS = st.tuples(st.integers(1, 3), st.booleans())


class TestCanonicalWord:
    """Rotations from the least letter alone against all rotations."""

    @given(st.lists(_LETTERS, min_size=1, max_size=12))
    def test_matches_all_rotations(self, word):
        word = tuple(word)
        assert _canonical_word(word) == _canonical_word_by_all_rotations(word)

    def test_matches_all_rotations_on_seeded_words(self):
        rng = random.Random(28)
        for _ in range(5000):
            word = tuple(
                (rng.randint(1, 3), rng.random() < 0.5) for _ in range(rng.randint(1, 10))
            )
            assert _canonical_word(word) == _canonical_word_by_all_rotations(word)

class TestEvaluateAtom:
    def test_identity_word(self):
        atom = TraceAtom.make("shape", [(1, False)])
        assert evaluate_atom(atom, {1: [[1, 0], [0, 1]]}) == 2

    def test_gram_word(self):
        b = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        atom = TraceAtom.make("shape", [(1, False), (1, True)])
        assert evaluate_atom(atom, {1: b}) == 1 + 4 + 9 + 16

    @given(rational_matrix_st(), rational_matrix_st())
    def test_invariance_under_canonicalization_group(self, b1, b2):
        mats = {1: b1, 2: b2}
        word = ((1, False), (2, True), (1, False))
        base = evaluate_atom(TraceAtom.make("shape", word), mats)
        for i in range(3):
            rotated = word[i:] + word[:i]
            flipped = tuple((c, not t) for c, t in reversed(word))
            for w in (rotated, flipped):
                direct = _evaluate_raw(w, mats)
                assert direct == base

    def test_missing_color(self):
        atom = TraceAtom.make("scale", [(3, False)])
        with pytest.raises(ValueError):
            evaluate_atom(atom, {1: [[1]]})


def _evaluate_raw(word, mats):
    # direct product evaluation without canonicalization
    from qwishart.polynomials import _matmul, _matrix_rows, _trace, _transpose

    rows = None
    for color, transposed in word:
        m = _matrix_rows(mats[color])
        if transposed:
            m = _transpose(m)
        rows = m if rows is None else _matmul(rows, m)
    return _trace(rows)


class TestJson:
    def test_round_trip(self):
        atom = TraceAtom.make("shape", [(1, False), (1, True)])
        p = P.monomial(Fraction(3, 4), {"q": 2, "N": -1, atom: 1}) + lam
        assert poly_from_json(poly_to_json(p)) == p

    @given(poly_st())
    def test_round_trip_random(self, p):
        assert poly_from_json(poly_to_json(p)) == p

    def test_term_order_deterministic(self):
        p = N + q + lam
        coeffs = [term["powers"] for term in poly_to_json(p)["terms"]]
        assert coeffs == [{"q": 1}, {"lambda": 1}, {"N": 1}]

    def test_rational_strings(self):
        assert rational_to_str(Fraction(3)) == "3"
        assert rational_to_str(Fraction(-3, 4)) == "-3/4"

    @pytest.mark.parametrize("coeff", [0.5, 1.0, True])
    def test_float_and_bool_coefficients_refused(self, coeff):
        with pytest.raises(TypeError):
            poly_from_json({"terms": [{"coeff": coeff, "powers": {}}]})

    def test_integer_and_string_coefficients(self):
        data = {"terms": [{"coeff": 2, "powers": {"q": 1}}, {"coeff": "4/2", "powers": {}}]}
        assert poly_from_json(data) == 2 * q + 2


class TestCoefficientTypes:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: P({(): 0.1}),
            lambda: P.constant(0.1),
            lambda: P.monomial(0.5, {"q": 1}),
            lambda: P.constant(True),
            lambda: P({(): "1/2"}),
        ],
    )
    def test_float_bool_and_str_refused(self, make):
        with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
            make()

    def test_integral_fraction_stored_as_int(self):
        (_, coeff), = P.constant(Fraction(6, 3)).terms()
        assert type(coeff) is int and coeff == 2
        (_, coeff), = (P.constant(Fraction(1, 2)) * 2 * q).terms()
        assert type(coeff) is int and coeff == 1

    def test_numpy_integers_do_not_wrap(self):
        np = pytest.importorskip("numpy")
        big = P.constant(np.int64(2**62)) * P.constant(np.int64(4))
        (_, coeff), = big.terms()
        assert type(coeff) is int and coeff == 2**64

    def test_division_by_a_rational(self):
        assert P.monomial(6, {"q": 1}) / 4 == P.monomial(Fraction(3, 2), {"q": 1})
        (_, coeff), = (P.constant(Fraction(3, 2)) / Fraction(3, 4)).terms()
        assert type(coeff) is int and coeff == 2
        with pytest.raises(ZeroDivisionError):
            P.constant(1) / 0
        with pytest.raises(TypeError):
            P.constant(1) / 0.5

    def test_constant_value_is_fraction(self):
        assert type(P.constant(3).constant_value()) is Fraction
        assert type(P.zero().constant_value()) is Fraction


# ---------------------------------------------------------------------------
# The Fraction-only arithmetic that integer coefficients replaced, on plain
# {monomial: Fraction} dicts.  It stays as the oracle for the int/Fraction
# arithmetic of MomentPolynomial.


def _f_merge(m1, m2):
    powers = dict(m1)
    for key, e in m2:
        powers[key] = powers.get(key, 0) + e
    return _make_monomial(powers)


def _f_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        c = out.get(mono, Fraction(0)) + coeff
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)
    return out


def _f_neg(a):
    return {m: -c for m, c in a.items()}


def _f_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _f_merge(m1, m2)
            c = out.get(mono, Fraction(0)) + c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


def _f_pow(a, exponent):
    out = {(): Fraction(1)}
    for _ in range(exponent):
        out = _f_mul(out, a)
    return out


def _f_constant(value):
    return {(): Fraction(value)} if value else {}


def _f_substitute(a, bindings):
    out = {}
    for mono, coeff in a.items():
        factor = {_make_monomial({k: e for k, e in mono if k not in bindings}): coeff}
        for key, e in mono:
            if key not in bindings:
                continue
            value = bindings[key]
            if e >= 0:
                factor = _f_mul(factor, _f_pow(value, e))
            else:
                factor = _f_mul(factor, _f_constant(value.get((), Fraction(0)) ** e))
        out = _f_add(out, factor)
    return out


def _f_coefficient(a, powers):
    out = {}
    for mono, coeff in a.items():
        mono_map = dict(mono)
        if all(mono_map.get(k, 0) == e for k, e in powers.items()):
            rest = _make_monomial({k: e for k, e in mono if k not in powers})
            out = _f_add(out, {rest: coeff})
    return out


def _f_limit(a):
    out = {}
    for mono, coeff in a.items():
        n_exp = dict(mono).get("N", 0)
        if n_exp > 0:
            raise ValueError("diverges")
        if n_exp == 0:
            out[mono] = coeff
    return out


def _f_rational(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _f_sorted(a):
    return sorted(a.items(), key=lambda t: _term_sort_key(t[0]))


def _f_str(a):
    if not a:
        return "0"
    parts = []
    for mono, coeff in _f_sorted(a):
        factors = [str(coeff)] if coeff != 1 or not mono else []
        for key, e in mono:
            name = key if isinstance(key, str) else str(key)
            factors.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _f_json(a):
    terms = []
    for mono, coeff in _f_sorted(a):
        powers, atoms = {}, []
        for key, e in mono:
            if isinstance(key, str):
                powers[key] = e
            else:
                atoms.append({"kind": key.kind, "word": [[c, t] for c, t in key.word], "power": e})
        if atoms:
            powers["atoms"] = atoms
        terms.append({"coeff": _f_rational(coeff), "powers": powers})
    return {"terms": terms}


ATOM = TraceAtom.make("scale", [(1, False), (1, True)])

# integers (some beyond int64), proper fractions and integral Fractions
mixed_coeffs = st.one_of(
    st.integers(-30, 30),
    st.integers(-(2**70), 2**70),
    rationals,
    st.integers(-9, 9).map(Fraction),
)


@st.composite
def mixed_terms_st(draw, max_size=4):
    """(coeff, powers) pairs over q, lambda, N (Laurent) and one atom."""
    return draw(
        st.lists(
            st.tuples(
                mixed_coeffs,
                st.fixed_dictionaries(
                    {
                        "q": st.integers(0, 3),
                        "lambda": st.integers(0, 2),
                        "N": st.integers(-2, 1),
                        ATOM: st.integers(0, 1),
                    }
                ),
            ),
            max_size=max_size,
        )
    )


def _pair(terms):
    """The polynomial of ``terms`` and the oracle's dict of the same terms."""
    oracle = {}
    for coeff, powers in terms:
        oracle = _f_add(oracle, {_make_monomial(powers): Fraction(coeff)})
    return P.sum(P.monomial(coeff, powers) for coeff, powers in terms), oracle


def _assert_matches(poly, oracle):
    stored = dict(poly.terms())
    assert stored == oracle
    for coeff in stored.values():
        assert type(coeff) is (int if Fraction(coeff).denominator == 1 else Fraction)
    assert str(poly) == _f_str(oracle)
    assert json.dumps(poly_to_json(poly)) == json.dumps(_f_json(oracle))
    if set(stored) <= {()}:
        value = poly.constant_value()
        assert type(value) is Fraction and value == oracle.get((), 0)


class TestFractionOracle:
    """Int-or-Fraction arithmetic equals the Fraction-only arithmetic it replaced."""

    @given(
        mixed_terms_st(), mixed_terms_st(), mixed_terms_st(), st.integers(0, 3),
        mixed_coeffs, mixed_coeffs.filter(bool),
    )
    def test_operations(self, ta, tb, tc, exponent, qv, nv):
        (a, fa), (b, fb), (c, fc) = _pair(ta), _pair(tb), _pair(tc)
        for poly, oracle in ((a, fa), (b, fb)):
            _assert_matches(poly, oracle)
        _assert_matches(a + b, _f_add(fa, fb))
        _assert_matches(a - b, _f_add(fa, _f_neg(fb)))
        _assert_matches(a * b, _f_mul(fa, fb))
        _assert_matches(a**exponent, _f_pow(fa, exponent))
        _assert_matches(P.sum([a, b, c]), _f_add(_f_add(fa, fb), fc))
        _assert_matches(a * qv + nv, _f_add(_f_mul(fa, _f_constant(qv)), _f_constant(nv)))
        _assert_matches(a / nv, _f_mul(fa, _f_constant(Fraction(1) / nv)))
        assert a.denominator() == math.lcm(1, *(c.denominator for c in fa.values()))
        bound = {"q": qv, "lambda": b, "N": nv}
        oracle_bound = {"q": _f_constant(qv), "lambda": fb, "N": _f_constant(nv)}
        _assert_matches(a.substitute(bound), _f_substitute(fa, oracle_bound))
        _assert_matches(a.substitute({"q": qv}), _f_substitute(fa, {"q": _f_constant(qv)}))
        for powers in ({"q": 1}, {"N": -1, "lambda": 0}, {ATOM: 1}):
            _assert_matches(a.coefficient(powers), _f_coefficient(fa, powers))
        try:
            expected = _f_limit(fa)
        except ValueError:
            with pytest.raises(ValueError):
                limit_large_n(a)
        else:
            _assert_matches(limit_large_n(a), expected)
