"""Command-line front end: deterministic JSON/CSV output, inline or @file args.

Exit codes: 0 success, 2 input validation failure (the message names the
offending flag), 1 internal assertion failure, 141 (128 + SIGPIPE) when the
reader closes the output pipe early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import fluctuations, moments, mp, pairings
from .polynomials import (
    MomentPolynomial,
    _symbol_rank,
    poly_from_json,
    poly_to_json,
    rational_to_str,
)


class CliInputError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _load(field: str, value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise CliInputError(field, f"cannot read {value[1:]}: {exc}") from exc
    return value


def _parse_json(field: str, value: str):
    try:
        return json.loads(_load(field, value))
    except json.JSONDecodeError as exc:
        raise CliInputError(field, f"invalid JSON: {exc}") from exc


def _parse_spec(field: str, value: str) -> moments.MonomialSpec:
    data = _parse_json(field, value)
    if isinstance(data, dict):
        words = data.get("cycle_words")
    else:
        words = data
    try:
        return moments.MonomialSpec.from_words(words)
    except (TypeError, ValueError) as exc:
        raise CliInputError(field, str(exc)) from exc


def _parse_pairing(field: str, value: str) -> pairings.PairPartition:
    data = _parse_json(field, value)
    try:
        return pairings.PairPartition.from_pairs(data)
    except (TypeError, ValueError) as exc:
        raise CliInputError(field, str(exc)) from exc


def _parse_coloring(field: str, value: str) -> pairings.Coloring:
    raw = _load(field, value)
    try:
        if raw.lstrip().startswith("["):
            colors = json.loads(raw)
        else:
            colors = [int(x) for x in raw.split(",")]
        return pairings.Coloring.from_colors(colors)
    except (TypeError, ValueError) as exc:
        raise CliInputError(field, str(exc)) from exc


def _entry_from_json(field: str, value):
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(field, f"bad rational {value!r}") from exc
    if isinstance(value, bool) or value is None:
        raise CliInputError(field, f"bad numeric entry {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    return float(value)


def _json_matrix(field: str, rows):
    """Parsed entries of a list of lists; anything else is left for the library to name."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        return rows
    return [[_entry_from_json(field, x) for x in row] for row in rows]


def _parse_matrices(field: str, value: str) -> moments.MatrixBindings:
    data = _parse_json(field, value)
    if isinstance(data, dict):
        data = [data]
    pairs = []
    try:
        for color in data:
            pairs.append((_json_matrix(field, color["B"]), _json_matrix(field, color["Sigma"])))
        return moments.MatrixBindings.numeric(pairs)
    except CliInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(field, str(exc)) from exc


def _parse_scalar(field: str, value: str) -> moments.MatrixBindings:
    data = _parse_json(field, value)
    try:
        sizes = data["M"]
        if not isinstance(sizes, list):
            raise ValueError("M must be a JSON list")
        factors = []
        for entry in data.get("scale", ["1"] * len(sizes)):
            if isinstance(entry, dict):
                factors.append(poly_from_json(entry["poly"]))
            else:
                factors.append(_entry_from_json(field, entry))
        return moments.MatrixBindings.scalar(sizes, factors, data.get("N", "N"))
    except CliInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(field, str(exc)) from exc


def _parse_statistic(field: str, value: str) -> fluctuations.PolynomialStatistic:
    data = _parse_json(field, value)
    try:
        terms = []
        for term in data["terms"]:
            coeff = term["coeff"]
            if isinstance(coeff, dict):
                coeff = poly_from_json(coeff["poly"])
            else:
                coeff = Fraction(coeff)
            terms.append((coeff, tuple(int(c) for c in term["word"])))
        return fluctuations.PolynomialStatistic.from_terms(terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(field, str(exc)) from exc


def _parse_q(field: str, value: str):
    if value in ("sym", "q"):
        return "q"
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(field, f"bad q value {value!r}") from exc


def _result_json(result):
    if isinstance(result, MomentPolynomial):
        return poly_to_json(result)
    if isinstance(result, (int, Fraction)):
        return rational_to_str(result)
    return result


def _poly_csv_rows(polys, prefix: list[str]) -> tuple[list[str], list[list[str]]]:
    """Header and rows for ``(prefix values, polynomial)`` pairs.

    Every symbol of any polynomial gets one column, in monomial key order,
    so all rows have the header's width.
    """
    symbols = sorted({sym for _, poly in polys for sym in poly.symbols()}, key=_symbol_rank)
    header = prefix + ["coeff"] + symbols + ["atoms"]
    rows = []
    for values, poly in polys:
        for term in poly_to_json(poly)["terms"]:
            atoms = term["powers"].get("atoms", [])
            atom_text = " ".join(
                _atom_str(a["kind"], a["word"]) + (f"^{a['power']}" if a["power"] != 1 else "")
                for a in atoms
            )
            rows.append(
                values
                + [term["coeff"]]
                + [str(term["powers"].get(sym, 0)) for sym in symbols]
                + [atom_text]
            )
    return header, rows


def _atom_str(kind: str, word) -> str:
    letter = "B" if kind == "shape" else "S"
    return "tr(" + " ".join(f"{letter}{c}" + ("'" if t else "") for c, t in word) + ")"


def _emit_csv(out, header, rows) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _emit_json(out, payload) -> None:
    """Strict JSON: a NaN or infinity raises before anything is written."""
    out.write(json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_enumerate(args, out) -> int:
    """Stream the JSON; its count, the closed form prod_c (2k_c - 1)!!, is
    checked against the enumeration bound before the header is written.
    """
    if args.n < 0:
        raise CliInputError("--n", f"n={args.n} must be nonnegative")
    if args.coloring is not None:
        coloring = _parse_coloring("--coloring", args.coloring)
        if coloring.n != args.n:
            raise CliInputError("--coloring", "coloring length must equal --n")
        stream = pairings.color_preserving_pairings(coloring)
        colors = list(coloring.colors)
        pos_colors = coloring.position_colors()
    else:
        stream = pairings.all_pairings(args.n)
        colors = pos_colors = None
    count = _checked("--n", pairings._check_tables, args.n, pos_colors) if args.n > 0 else 0
    compact = {"separators": (",", ":")}
    out.write(f'{{"n":{args.n},"coloring":{json.dumps(colors, **compact)},')
    out.write(f'"count":{count},"pairings":[')
    for i, pp in enumerate(stream):
        out.write(("," if i else "") + json.dumps([list(pair) for pair in pp.pairs()], **compact))
    out.write("]}\n")
    return 0


def _moment_common(args, q, out) -> int:
    symbolic = bool(args.symbolic)
    chosen = [x for x in (args.matrices, args.scalar) if x is not None]
    if len(chosen) + (1 if symbolic else 0) != 1:
        raise CliInputError(
            "--symbolic", "choose exactly one of --symbolic, --matrices, --scalar"
        )
    bindings = None
    mode = "symbolic"
    if args.matrices is not None:
        bindings = _parse_matrices("--matrices", args.matrices)
        mode = "numeric"
    elif args.scalar is not None:
        bindings = _parse_scalar("--scalar", args.scalar)
        mode = "scalar"

    if getattr(args, "sigma", None) is not None:
        if args.spec is not None:
            raise CliInputError("--sigma", "give either --spec or --sigma, not both")
        if args.coloring is None:
            raise CliInputError("--coloring", "--sigma requires --coloring")
        sigma = _parse_pairing("--sigma", args.sigma)
        coloring = _parse_coloring("--coloring", args.coloring)
        field = "--sigma"
        fn, fn_args = moments.real_wishart_moment_general, (sigma, coloring, bindings)
        echo = {
            "sigma": [list(p) for p in sigma.pairs()],
            "coloring": list(coloring.colors),
        }
    else:
        if getattr(args, "coloring", None) is not None:
            raise CliInputError(
                "--coloring", "--coloring requires --sigma; a spec carries its own colors"
            )
        if args.spec is None:
            raise CliInputError("--spec", "a spec is required")
        spec = _parse_spec("--spec", args.spec)
        field = "--spec"
        if q is None:
            fn, fn_args = moments.real_wishart_moment, (spec, bindings)
        else:
            fn, fn_args = moments.q_wishart_moment, (spec, bindings, q)
        echo = {"spec": {"cycle_words": [list(w) for w in spec.cycle_words]}}
    try:
        result = fn(*fn_args)
    except ValueError as exc:
        if str(exc).startswith("float matrices require"):
            field = "--q"
        elif str(exc).startswith(("B for color", "bindings cover")):
            field = "--scalar" if mode == "scalar" else "--matrices"
        raise CliInputError(field, str(exc)) from exc
    except moments.FloatOverflowError as exc:
        raise CliInputError("--matrices", "the result is not finite (float overflow)") from exc
    except OverflowError as exc:
        raise CliInputError("--matrices", f"float overflow: {exc}") from exc

    if args.format == "csv":
        if not isinstance(result, MomentPolynomial):
            _emit_csv(out, ["value"], [[str(result)]])
        else:
            _emit_csv(out, *_poly_csv_rows([([], result)], []))
        return 0
    payload = dict(echo)
    payload["mode"] = mode
    if q is not None:
        payload["q"] = "sym" if isinstance(q, str) else rational_to_str(q)
    payload["result"] = _result_json(result)
    _emit_json(out, payload)
    return 0


def _cmd_moment(args, out) -> int:
    return _moment_common(args, None, out)


def _cmd_q_moment(args, out) -> int:
    q = _parse_q("--q", args.q)
    return _moment_common(args, q, out)


def _limit(order_field: str, fn, *args):
    """``fn(*args)``; a table bound is set by the --Q words alone, others by the order."""
    try:
        return fn(*args)
    except ValueError as exc:
        tables = getattr(exc, "bound", None) == pairings.TABLE_BOUND
        raise CliInputError("--Q" if tables else order_field, str(exc)) from exc


def _cmd_fluctuation_limit(args, out) -> int:
    statistic = _parse_statistic("--Q", args.Q)
    q = _parse_q("--q", args.q)
    if args.orders < 1:
        raise CliInputError("--orders", "orders must be at least 1")
    limits = _limit("--orders", fluctuations.statistic_limit_moments, statistic, args.orders, q)
    if args.format == "csv":
        orders = [([str(m)], lm.value) for m, lm in enumerate(limits, start=1)]
        _emit_csv(out, *_poly_csv_rows(orders, ["order"]))
        return 0
    payload = {
        "q": "sym" if isinstance(q, str) else rational_to_str(q),
        "orders": [
            {"order": m, "value": poly_to_json(lm.value)}
            for m, lm in enumerate(limits, start=1)
        ],
    }
    _emit_json(out, payload)
    return 0


def _cmd_t5_check(args, out) -> int:
    statistic = _parse_statistic("--Q", args.Q)
    q = _parse_q("--q", args.q)
    if args.m < 0:
        raise CliInputError("--m", "m must be nonnegative")
    diff = _limit("--m", fluctuations.conditional_variance_check, statistic, args.m, q)
    if args.format == "csv":
        _emit_csv(out, *_poly_csv_rows([([], diff)], []))
        return 0
    _emit_json(out, {"m": args.m, "difference": poly_to_json(diff), "zero": diff.is_zero()})
    return 0


def _cmd_mp_check(args, out) -> int:
    if args.input is not None:
        data = _parse_json("--input", args.input)
        if not isinstance(data, dict):
            raise CliInputError("--input", "expected a JSON object")
        eig_field = n_field = n_max_field = "--input"
        eigenvalues, scale_dim, n_max = data.get("eigenvalues"), data.get("N"), data.get("n_max")
    else:
        if args.eigenvalues is None or args.N is None or args.n_max is None:
            raise CliInputError(
                "--eigenvalues", "need --eigenvalues, --N and --n-max (or --input)"
            )
        eig_field, n_field, n_max_field = "--eigenvalues", "--N", "--n-max"
        eigenvalues = _parse_json("--eigenvalues", args.eigenvalues)
        scale_dim, n_max = args.N, args.n_max
    _checked(n_max_field, mp._check_n_max, n_max)
    _checked(n_field, mp._check_scale_dim, scale_dim)
    eigs = _checked(eig_field, _eigenvalues, eig_field, eigenvalues)
    report = mp.mp_moment_check(eigs, scale_dim, n_max)
    payload = {
        "lambda": rational_to_str(report.aspect_ratio),
        "rows": [
            {
                "n": row.n,
                "lhs": rational_to_str(row.lhs),
                "rhs": rational_to_str(row.rhs),
                "equal": row.equal,
            }
            for row in report.rows
        ],
        "all_equal": report.all_equal,
    }
    _emit_json(out, payload)
    return 0


def _checked(field: str, check, *args):
    """``check(*args)``, with its input errors reported against ``field``."""
    try:
        return check(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliInputError(field, str(exc)) from exc


def _eigenvalues(field: str, values) -> list[Fraction]:
    if not isinstance(values, list):
        raise ValueError("eigenvalues must be a JSON list")
    return mp._check_eigenvalues([Fraction(_entry_from_json(field, x)) for x in values])


def _config_int(data: dict, key: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliInputError("--config", f"{key} must be a JSON integer, got {value!r}")
    return value


def _cmd_mc_validate(args, out) -> int:
    from . import montecarlo  # loads numpy, which no other command needs

    if args.config is not None:
        data = _parse_json("--config", args.config)
        if not isinstance(data, dict):
            raise CliInputError("--config", "expected a JSON object")
        for key in ("spec", "matrices"):
            if key not in data:
                raise CliInputError("--config", f"missing {key!r}")
        seed = _config_int(data, "seed", args.seed)
        samples = _config_int(data, "samples", args.samples)
        spec_field = matrices_field = samples_field = "--config"
        spec_text, matrices = json.dumps(data["spec"]), json.dumps(data["matrices"])
    else:
        if args.spec is None or args.matrices is None:
            raise CliInputError("--spec", "need --spec and --matrices (or --config)")
        seed, samples = args.seed, args.samples
        spec_field, matrices_field, samples_field = "--spec", "--matrices", "--samples"
        matrices, spec_text = args.matrices, args.spec
    if samples < 2:
        raise CliInputError(samples_field, "need at least 2 samples for a standard error")
    spec = _parse_spec(spec_field, spec_text)
    bindings = _parse_matrices(matrices_field, matrices)
    try:
        config = montecarlo.SamplerConfig(
            seed=seed,
            samples=samples,
            colors=tuple(
                (
                    [[float(x) for x in row] for row in b],
                    [[float(x) for x in row] for row in sigma],
                )
                for b, sigma in zip(bindings.shapes, bindings.scales)
            ),
        )
        report = montecarlo.estimate_monomial(spec, config)
    except (TypeError, ValueError) as exc:
        raise CliInputError(matrices_field, str(exc)) from exc
    except moments.FloatOverflowError as exc:  # the exact value
        raise CliInputError(matrices_field, "the estimate is not finite (float overflow)") from exc
    except OverflowError as exc:
        raise CliInputError(matrices_field, f"float overflow: {exc}") from exc
    values = (report.mean, report.stderr, report.exact, report.z)
    if not all(math.isfinite(x) for x in values):
        raise CliInputError(matrices_field, "the estimate is not finite (float overflow)")
    payload = {
        "spec": {"cycle_words": [list(w) for w in spec.cycle_words]},
        "seed": seed,
        "samples": samples,
        "mean": report.mean,
        "stderr": report.stderr,
        "exact": report.exact,
        "z": report.z,
    }
    _emit_json(out, payload)
    return 0


def _cmd_table1(args, out) -> int:
    spec = moments.MonomialSpec(((1, 2), (1, 2)))
    coloring = spec.coloring()
    sigma = spec.pairing()
    payload_rows = []
    for gamma in pairings.color_preserving_pairings(coloring):
        product = pairings.brauer(sigma, gamma)
        induced = pairings.induced_coloring(sigma, gamma, coloring)
        term = moments.pairing_term(sigma.table, coloring.colors, gamma.table, True)
        payload_rows.append(
            {
                "gamma": [list(p) for p in gamma.pairs()],
                "cr": pairings.crossings(gamma),
                "pi_gamma": [list(c) for c in pairings.traverse(gamma).cycles()],
                "pi_sigma_gamma": [list(c) for c in pairings.traverse(product).cycles()],
                "induced_coloring": list(induced.colors),
                "contribution": poly_to_json(MomentPolynomial({term: 1})),
            }
        )
    _emit_json(out, {"rows": payload_rows})
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwishart",
        description="Exact trace moments of compound real Wishart and q-Wishart families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_q=False, with_sigma=False):
        p.add_argument("--spec", help="monomial spec JSON, or @file")
        if with_sigma:
            p.add_argument("--sigma", help="top-to-bottom pairing JSON, or @file")
            p.add_argument("--coloring", help="coloring of --sigma as JSON list or comma list")
        p.add_argument("--matrices", help="per-color {B, Sigma} JSON, or @file")
        p.add_argument("--scalar", help='scalar bindings JSON {"M": [...], "scale": [...]}')
        p.add_argument("--symbolic", action="store_true", help="keep trace atoms symbolic")
        if with_q:
            p.add_argument("--q", default="sym", help="rational q or 'sym'")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("enumerate", help="list pair partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coloring")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("moment", help="classical Wishart trace moment")
    common(p, with_sigma=True)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("q-moment", help="q-Wishart trace moment")
    common(p, with_q=True)
    p.set_defaults(func=_cmd_q_moment)

    p = sub.add_parser("fluctuation-limit", help="limit moments of a centered statistic")
    p.add_argument("--Q", required=True, help="statistic JSON, or @file")
    p.add_argument("--orders", type=int, required=True)
    p.add_argument("--q", default="sym")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_fluctuation_limit)

    p = sub.add_parser("t5-check", help="conditional-variance identity check")
    p.add_argument("--Q", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", default="sym")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_t5_check)

    p = sub.add_parser("mp-check", help="finite-size compound Marchenko-Pastur check")
    p.add_argument("--input", help='JSON {"eigenvalues": [...], "N": n, "n_max": k}')
    p.add_argument("--eigenvalues", help="JSON list of rationals")
    p.add_argument("--N", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.set_defaults(func=_cmd_mp_check)

    p = sub.add_parser("mc-validate", help="Monte Carlo validation of the exact formula")
    p.add_argument("--config", help="JSON {seed, samples, spec, matrices}")
    p.add_argument("--spec")
    p.add_argument("--matrices")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=_cmd_mc_validate)

    p = sub.add_parser("table1", help="two-color squared-trace expansion table")
    p.set_defaults(func=_cmd_table1)

    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except CliInputError as exc:
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
