"""Seeded workload generator for the qwishart benchmark.

Pure Python with no qwishart import: a workload is a list of JSON-ready
query dicts built from ``random.Random(seed)``, so one seed always yields the
same inputs and the program under test receives only those inputs.

Each workload fixes its cost structure (word lengths, color counts, sample
counts, subcommands) and lets the seed choose what does not change the
amount of work: color labels, letter arrangement within a color-count
signature, rational coefficients, matrix entries and sampler seeds.  That
keeps the wall time comparable across seeds while the outputs differ.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

ENUMERATION_BOUND = 9  # mirrors qwishart.pairings.ENUMERATION_BOUND

WORKLOADS = ("finite-exact", "limit-moments", "mc-validate", "cli-short")

# Nominal seconds per batch at the commit that defined the benchmark (one
# batch is one fresh interpreter running every query once).  The batch count
# of a run is a pure function of this and --seconds, so the number of latency
# samples, and with it the tail percentile, never depends on machine speed.
NOMINAL_BATCH_S = {
    "finite-exact": 2.6,
    "limit-moments": 2.4,
    "mc-validate": 2.9,
    "cli-short": 4.0,
}


def batches_for(workload: str, seconds: int) -> int:
    return max(2, round(seconds / NOMINAL_BATCH_S[workload]))


def double_factorial(k: int) -> int:
    out = 1
    for i in range(k, 0, -2):
        out *= i
    return out


def closed_form_tables(colors) -> int:
    """Color-preserving pairings of a coloring: prod over colors of (2k_c - 1)!!."""
    out = 1
    for k in Counter(colors).values():
        out *= double_factorial(2 * k - 1)
    return out


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _poly(terms) -> dict:
    """Polynomial in the package's JSON form from (coeff, powers) pairs."""
    return {"terms": [{"coeff": _rat(Fraction(c)), "powers": dict(p)} for c, p in terms]}


def _arrange(rng: random.Random, lengths, counts):
    """Words of the given lengths over colors 1..s with the given letter counts.

    The color labels are permuted and the letters shuffled, so the table
    count prod (2k_c - 1)!! and the degree stay fixed for every seed.
    """
    labels = list(range(1, len(counts) + 1))
    rng.shuffle(labels)
    letters = [labels[c] for c, k in enumerate(counts) for _ in range(k)]
    rng.shuffle(letters)
    words, start = [], 0
    for size in lengths:
        words.append(letters[start : start + size])
        start += size
    return words


def _sym2(rng: random.Random, diag, off):
    a, c = rng.choice(diag), rng.choice(diag)
    b = rng.choice(off)
    return [[_rat(Fraction(a)), _rat(b)], [_rat(b), _rat(Fraction(c))]]


def _numeric_pairs(rng: random.Random, s: int):
    """Per-color (B, Sigma): symmetric 2x2 B and positive definite 2x2 Sigma."""
    off = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(1, 4)]
    return [
        [_sym2(rng, [1, 2, 3], off), _sym2(rng, [1, 2, 3], off)] for _ in range(s)
    ]


def _scalar_binding(rng: random.Random, s: int):
    sizes = ["M"] if s == 1 else [f"M{j + 1}" for j in range(s)]
    choices = [
        {"rat": "1"},
        {"rat": "2"},
        {"rat": "1/2"},
        {"poly": _poly([(1, {"N": -1})])},
        {"poly": _poly([(3, {"N": -1})])},
    ]
    return {"sizes": sizes, "scales": [rng.choice(choices) for _ in range(s)]}


def _eigenvalues(rng: random.Random, k: int):
    """k distinct positive rationals: the shape matrix size is fixed at k."""
    pool = sorted({Fraction(a, b) for a in range(1, 7) for b in (1, 2, 3)})
    return sorted(rng.sample(pool, k))


# ---------------------------------------------------------------------------
# finite-exact

# (function, word lengths, per-color letter counts).  Single-color slots use
# the classical moment so the white-Wishart closed form can check them; the
# n = 4 slots are cheap enough for the brute-force Wick oracle.  No
# single-color spec of degree 7 or more: one alone would take the whole run.
FINITE_SLOTS = (
    ("q", (2, 2), (2, 2)),
    ("real", (3, 1), (4,)),
    ("q", (2, 2, 2), (3, 3)),
    ("real", (3, 2), (5,)),
    ("q", (3, 3, 2), (3, 3, 2)),
    ("real", (4, 3), (4, 3)),
    ("q", (4, 2, 2), (4, 2, 2)),
)
CENTERED_SLOTS = (((2, 1, 3), (6,)), ((2, 2, 2), (3, 3)))


def _finite_exact(rng: random.Random):
    queries = []
    for fn, lengths, counts in FINITE_SLOTS:
        words = _arrange(rng, lengths, counts)
        s = len(counts)
        numeric = _numeric_pairs(rng, s)
        scalar = _scalar_binding(rng, s)
        for mode in ("symbolic", "numeric", "scalar"):
            q = {"kind": "moment", "fn": fn, "words": words, "mode": mode}
            if mode == "numeric":
                q["matrices"] = numeric
            elif mode == "scalar":
                q["scalar"] = scalar
            queries.append(q)
    for lengths, counts in CENTERED_SLOTS:
        queries.append({"kind": "centered", "words": _arrange(rng, lengths, counts)})
    for _ in range(2):
        eigs = _eigenvalues(rng, 3)
        queries.append(
            {"kind": "mp", "eigenvalues": [_rat(x) for x in eigs], "N": 2, "n_max": 5}
        )
    return queries


# ---------------------------------------------------------------------------
# limit-moments


def _coeff(rng: random.Random) -> dict:
    return _poly([(Fraction(rng.choice([1, 1, 2, 3, -1, -2]), rng.choice([1, 1, 2, 3])), {})])


def _stat_term(coeff: dict, word) -> dict:
    return {"coeff": {"poly": coeff}, "word": list(word)}


def _tuned_square(rng: random.Random, color: int, scale: int) -> list:
    """c * (tr(W^2) - (1 + q^2 + 2 lambda) tr(W)): m2 = c^2 lambda^2 (1+q^2+q^4+q^6)."""
    a = _poly([(-scale, {}), (-scale, {"q": 2}), (-2 * scale, {"lambda": 1})])
    return [_stat_term(_poly([(scale, {})]), (color, color)), _stat_term(a, (color,))]


def _limit_moments(rng: random.Random):
    a, b = rng.sample([1, 2], 2)
    c = rng.choice([1, 2])
    scale = rng.choice([1, 2, 3])
    return [
        # one single-color degree-7 block spec: 135,135 mostly uncolored tables
        {"kind": "limit", "family": "trace", "orders": 7,
         "stat": [_stat_term(_coeff(rng), (c,))]},
        {"kind": "limit", "family": "product", "orders": 4,
         "stat": [_stat_term(_coeff(rng), (a, b))]},
        {"kind": "limit", "family": "tuned", "orders": 3, "scale": scale,
         "stat": _tuned_square(rng, c, scale)},
        {"kind": "limit", "family": "mixed", "orders": 4,
         "stat": [_stat_term(_coeff(rng), (a,)), _stat_term(_coeff(rng), (a, b))]},
        {"kind": "cvar", "m": 3, "stat": [_stat_term(_coeff(rng), (c,))]},
        {"kind": "cvar", "m": 2, "stat": [_stat_term(_coeff(rng), (a, b))]},
        {"kind": "cvar", "m": 1, "stat": _tuned_square(rng, c, scale)},
    ]


# ---------------------------------------------------------------------------
# mc-validate

# (word lengths, per-color letter counts, B sizes, Sigma size, samples):
# the shapes of scripts/mc_vs_exact.py plus larger B and Sigma, in three cost
# classes (2 light, 3 medium, 2 heavy) so that the median and the tail
# percentile each fall inside one class rather than on a boundary.
MC_SLOTS = (
    ((1,), (1,), (3,), 4, 100_000),
    ((1,), (1,), (3,), 2, 150_000),
    ((2,), (2,), (3,), 4, 200_000),
    ((2, 2), (2, 2), (3, 3), 4, 100_000),
    ((2, 1), (2, 1), (2, 2), 3, 150_000),
    ((1,), (1,), (6,), 8, 200_000),
    ((2,), (1, 1), (4, 4), 6, 200_000),
)


def _diag(values) -> list:
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _mc_validate(rng: random.Random):
    queries = []
    for lengths, counts, b_sizes, n_dim, samples in MC_SLOTS:
        words = _arrange(rng, lengths, counts)
        matrices = [
            [_diag([rng.randint(1, 3) for _ in range(m)]),
             _diag([rng.randint(1, 4) for _ in range(n_dim)])]
            for m in b_sizes
        ]
        queries.append({"kind": "mc", "words": words, "matrices": matrices,
                        "samples": samples, "sampler_seed": rng.randrange(2**32)})
    return queries


# ---------------------------------------------------------------------------
# cli-short


def _cli(argv) -> dict:
    return {"kind": "cli", "argv": [str(x) for x in argv]}


def _stat_json(terms) -> str:
    return json.dumps({"terms": terms}, separators=(",", ":"))


def _cli_short(rng: random.Random):
    c = rng.choice([1, 2])
    a, b = rng.sample([1, 2], 2)
    eigs = _eigenvalues(rng, 2)
    words = _arrange(rng, (2, 1), (3,))
    scalar = {"M": ["M"], "scale": [{"poly": _poly([(rng.choice([1, 2]), {"N": -1})])}]}
    coloring = [x for w in _arrange(rng, (7,), (4, 3)) for x in w]
    return [
        _cli(["table1"]),
        _cli(["fluctuation-limit", "--Q", _stat_json([_stat_term(_coeff(rng), (c,))]),
              "--orders", 6]),
        _cli(["t5-check", "--Q", _stat_json([_stat_term(_coeff(rng), (a, b))]), "--m", 2]),
        _cli(["mp-check", "--eigenvalues", json.dumps([_rat(x) for x in eigs]),
              "--N", 2, "--n-max", 4]),
        _cli(["q-moment", "--spec", json.dumps({"cycle_words": words}),
              "--scalar", json.dumps(scalar, separators=(",", ":"))]),
        # n = 7 uncolored takes about 12 s and 128 MB; n = 6 keeps a batch short
        _cli(["enumerate", "--n", 6]),
        _cli(["enumerate", "--n", 7, "--coloring", ",".join(map(str, coloring))]),
    ]


_GENERATORS = {
    "finite-exact": _finite_exact,
    "limit-moments": _limit_moments,
    "mc-validate": _mc_validate,
    "cli-short": _cli_short,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's queries for this seed, each tagged with its index."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    queries = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for i, query in enumerate(queries):
        query["id"] = i
    for words in (w for q in queries for w in enumerated_specs(q)):
        if sum(len(x) for x in words) > ENUMERATION_BOUND:
            raise AssertionError(f"generated spec {words} exceeds the enumeration bound")
    return queries


# ---------------------------------------------------------------------------
# what each query enumerates (for the closed-form table count)


def stat_words(stat) -> list[tuple[int, ...]]:
    return [tuple(t["word"]) for t in stat]


def statistic_block_specs(words, orders: int) -> list[tuple]:
    """Block specs that orders 1..k of a statistic expand into, with repeats."""
    return [combo for m in range(1, orders + 1) for combo in product(words, repeat=m)]


def cvar_block_specs(words, m: int) -> list[tuple]:
    """Block specs behind the conditional-variance identity, with repeats."""
    shift = max(c for w in words for c in w)
    y = [tuple(c + shift for c in w) for w in words]
    total = list(words) + y
    lhs = list(product(*([total, total] + [total] * m)))
    rhs = list(product(words, repeat=2)) + list(product(*([total] * m)))
    return lhs + [r for r in rhs if r]


def _cli_specs(argv) -> list[tuple]:
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "table1":
        return [((1, 2), (1, 2))]
    if cmd == "fluctuation-limit":
        return statistic_block_specs(stat_words(json.loads(opts["--Q"])["terms"]),
                                     int(opts["--orders"]))
    if cmd == "t5-check":
        return cvar_block_specs(stat_words(json.loads(opts["--Q"])["terms"]), int(opts["--m"]))
    if cmd == "mp-check":
        return [((1,) * n,) for n in range(1, int(opts["--n-max"]) + 1)]
    if cmd == "q-moment":
        return [tuple(tuple(w) for w in json.loads(opts["--spec"])["cycle_words"])]
    if cmd == "enumerate":
        if "--coloring" in opts:
            return [(tuple(int(x) for x in opts["--coloring"].split(",")),)]
        return [((1,) * int(opts["--n"]),)]
    raise ValueError(f"unknown subcommand {cmd}")


def enumerated_specs(query: dict) -> list[tuple]:
    """Word tuples whose colorings the query's engine enumerates, with repeats."""
    kind = query["kind"]
    if kind in ("moment", "centered", "mc"):
        return [tuple(tuple(w) for w in query["words"])]
    if kind == "mp":
        return [((1,) * n,) for n in range(1, query["n_max"] + 1)]
    if kind == "limit":
        return statistic_block_specs(stat_words(query["stat"]), query["orders"])
    if kind == "cvar":
        return cvar_block_specs(stat_words(query["stat"]), query["m"])
    if kind == "cli":
        return _cli_specs(query["argv"])
    raise ValueError(f"unknown query kind {kind}")


def coloring_of(words) -> tuple[int, ...]:
    return tuple(c for w in words for c in w)


def summary(queries) -> dict:
    """Query count and closed-form table totals, so a generator change shows."""
    specs = [w for q in queries for w in enumerated_specs(q)]
    distinct = sorted(set(specs))
    return {
        "queries": len(queries),
        "enumerations": len(specs),
        "tables_closed_form": sum(closed_form_tables(coloring_of(w)) for w in specs),
        "distinct_specs": len(distinct),
        "distinct_tables_closed_form": sum(
            closed_form_tables(coloring_of(w)) for w in distinct
        ),
    }
