import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qwishart import pairings

from qwishart.cli import run
from qwishart.polynomials import MomentPolynomial, poly_from_json, poly_to_json


SRC = Path(__file__).resolve().parents[1] / "src"
TRACE = '{"terms":[{"coeff":"1","word":[1]}]}'
PRODUCT = '{"terms":[{"coeff":"1","word":[1,2]}]}'
QUINTIC = '{"terms":[{"coeff":"1","word":[1,1,1,1,1]}]}'
SQUARE = '{"terms":[{"coeff":"1","word":[1,1]}]}'


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def capture_json(argv):
    code, text = capture(argv)
    assert code == 0, text
    return json.loads(text)


class TestEnumerate:
    def test_count_and_shape(self):
        data = capture_json(["enumerate", "--n", "2"])
        assert data["count"] == 3
        assert data["pairings"][0] == [[1, -1], [2, -2]]

    def test_coloring_filter(self):
        data = capture_json(["enumerate", "--n", "4", "--coloring", "1,2,1,2"])
        assert data["count"] == 9

    def test_byte_identical_runs(self):
        assert capture(["enumerate", "--n", "3"]) == capture(["enumerate", "--n", "3"])

    @pytest.mark.parametrize("extra", [[], ["--coloring", ",".join("1" * 10)]])
    def test_bound_checked_before_the_header(self, capsys, extra):
        code, text = capture(["enumerate", "--n", "10", *extra])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: --n: at least 654729075 pairings")

    def test_colored_count_within_the_bound(self):
        # degree 10, but five colors of two points each: 3^5 pairings
        data = capture_json(["enumerate", "--n", "10", "--coloring", "1,2,3,4,5,1,2,3,4,5"])
        assert data["count"] == len(data["pairings"]) == 243

    def test_closed_pipe_is_quiet(self):
        # a reader that stops early gets neither a traceback nor exit 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qwishart", "enumerate", "--n", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.read(50).startswith(b'{"n":7,')
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), stderr) == (141, b"")

    @pytest.mark.parametrize("extra", [[], ["--coloring", "1"]])
    def test_negative_n_names_flag(self, capsys, extra):
        code, text = capture(["enumerate", "--n", "-1", *extra])
        assert (code, text) == (2, "")
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, coloring",
        [
            (0, None),
            (1, None),
            (4, None),
            (6, None),
            (5, "1,2,1,3,2"),
            (6, "1,1,2,2,1,1"),
            (7, "1,2,1,1,2,2,1"),
        ],
    )
    def test_stream_matches_whole_document(self, n, coloring):
        # the streamed text equals the document serialised in one piece, with
        # the closed-form count equal to the number of pairings listed
        argv = ["enumerate", "--n", str(n)]
        if coloring is None:
            stream = pairings.all_pairings(n)
            colors = None
        else:
            argv += ["--coloring", coloring]
            colors = [int(c) for c in coloring.split(",")]
            stream = pairings.color_preserving_pairings(pairings.Coloring.from_colors(colors))
        items = [[list(pair) for pair in pp.pairs()] for pp in stream]
        payload = {"n": n, "coloring": colors, "count": len(items), "pairings": items}
        expected = json.dumps(payload, separators=(",", ":")) + "\n"
        assert capture(argv) == (0, expected)

    @pytest.mark.parametrize("coloring", ["[1,1.5]", "[1,true]", "[0,1]", '[1,"1"]', "1,1.5", "[]"])
    def test_bad_coloring_names_flag(self, capsys, coloring):
        n = 0 if coloring == "[]" else 2
        code, text = capture(["enumerate", "--n", str(n), "--coloring", coloring])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: --coloring: ")

    def test_streams_in_bounded_memory(self):
        # 10,395 pairings at n = 7; holding them as lists took about 7 MB
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        tracemalloc.start()
        try:
            code = run(["enumerate", "--n", "7", "--coloring", "1,1,1,1,1,1,2"], out=Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1_000_000


class TestMoment:
    def test_symbolic_table(self):
        data = capture_json(
            ["moment", "--spec", '{"cycle_words":[[1,2],[1,2]]}', "--symbolic"]
        )
        assert data["mode"] == "symbolic"
        assert len(data["result"]["terms"]) == 9

    def test_numeric_exact(self):
        matrices = json.dumps(
            [
                {"B": [["1", "0"], ["0", "1"]], "Sigma": [["1", "0"], ["0", "1"]]},
            ]
        )
        data = capture_json(
            ["moment", "--spec", '{"cycle_words":[[1]]}', "--matrices", matrices]
        )
        assert data["result"] == "4"

    def test_sigma_route_round_trip(self):
        pairs = capture_json(["enumerate", "--n", "3"])["pairings"]
        top_to_bottom = [p for p in pairs if all(a > 0 > b for a, b in p)]
        for pairing in top_to_bottom[:3]:
            data = capture_json(
                [
                    "moment",
                    "--sigma",
                    json.dumps(pairing),
                    "--coloring",
                    "1,1,1",
                    "--symbolic",
                ]
            )
            assert data["sigma"] == pairing

    def test_mode_exclusivity(self):
        code, _ = capture(["moment", "--spec", '{"cycle_words":[[1]]}'])
        assert code == 2

    @pytest.mark.parametrize("spec", [[], ["--spec", "[[1,1]]"]])
    def test_coloring_without_sigma_names_flag(self, capsys, spec):
        # a spec carries its own colors, so a --coloring beside it would be ignored
        code, out = capture(["moment", *spec, "--coloring", "1,2", "--symbolic"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: --coloring: ")

    @pytest.mark.parametrize("command", ["moment", "q-moment"])
    @pytest.mark.parametrize("word", ["[1.0]", "[true]", "[1,2.5]", "[0]", '["1"]'])
    def test_non_integer_color_names_flag(self, capsys, command, word):
        code, text = capture([command, "--spec", f"[{word}]", "--symbolic"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: --spec: color must be an integer >= 1, got "), err

    @pytest.mark.parametrize("word", ["[1.5]", "[true]", "[1,2.5]", "[0]", '["1"]'])
    def test_non_integer_statistic_word_names_flag(self, capsys, word):
        q_json = f'{{"terms":[{{"coeff":"1","word":{word}}}]}}'
        code, text = capture(["fluctuation-limit", "--Q", q_json, "--orders", "2"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: --Q: color must be an integer >= 1, got "), err

    def test_numeric_csv_is_one_value(self):
        argv = numeric_argv("moment", "[[1,1]]", [["1/2"]], [[3]]) + ["--format", "csv"]
        assert capture(argv) == (0, "value\n27/4\n")

    def test_one_matrices_object_is_one_color(self):
        listed = capture_json(numeric_argv("moment", "[[1,1]]", [["1/2"]], [[3]]))
        argv = ["moment", "--spec", "[[1,1]]", "--matrices", '{"B":[["1/2"]],"Sigma":[[3]]}']
        assert capture_json(argv) == listed

    def test_csv_format(self):
        code, text = capture(
            ["moment", "--spec", '{"cycle_words":[[1,2]]}', "--symbolic", "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "coeff,atoms"
        assert "tr(B1) tr(B2) tr(S1 S2)" in lines[1]


class TestQMoment:
    def test_has_no_coloring_flag(self, capsys):
        # q-moment takes only a spec, which carries its own colors
        code, out = capture(["q-moment", "--spec", "[[1,1]]", "--coloring", "1,2", "--symbolic"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --coloring" in capsys.readouterr().err

    def test_symbolic_q(self):
        data = capture_json(
            [
                "q-moment",
                "--spec",
                '{"cycle_words":[[1,1]]}',
                "--scalar",
                '{"M": ["M"]}',
            ]
        )
        powers = [t["powers"] for t in data["result"]["terms"]]
        assert {"q": 1, "N": 1, "M": 1} in powers

    def test_rational_q(self):
        data = capture_json(
            [
                "q-moment",
                "--spec",
                '{"cycle_words":[[1,1]]}',
                "--scalar",
                '{"M": [2], "N": 2}',
                "--q",
                "1/2",
            ]
        )
        # M^2 N + M N^2 + q M N = 8 + 8 + 2 = 18
        assert data["result"] == "18"

    def test_scale_factor_poly(self):
        scale = {"M": ["M"], "scale": [{"poly": {"terms": [{"coeff": "1", "powers": {"N": -1}}]}}]}
        data = capture_json(
            ["q-moment", "--spec", '{"cycle_words":[[1]]}', "--scalar", json.dumps(scale)]
        )
        assert poly_from_json(data["result"]).symbols() == {"M"}


def numeric_argv(command, spec, b, sigma):
    return [command, "--spec", spec, "--matrices", json.dumps([{"B": b, "Sigma": sigma}])]


def _one_term(powers):
    """A ``{"poly": ...}`` exact field of one term with coefficient 1 and ``powers``."""
    return {"poly": {"terms": [{"coeff": "1", "powers": powers}]}}


def _atom(word, power):
    return {"atoms": [{"kind": "shape", "word": word, "power": power}]}


def _statistic(powers):
    return json.dumps({"terms": [{"coeff": _one_term(powers), "word": [1]}]})


def _scale(powers):
    return json.dumps({"M": ["M"], "scale": [_one_term(powers)]})


class TestMomentErrorsNameTheFlag:
    """Each input error of the moment call names the flag that carries the input."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                numeric_argv("q-moment", "[[1,1]]", [[1.0, 2], [2, 1]], [[2]]),
                "--q: float matrices require a numeric q",
            ),
            (
                numeric_argv("q-moment", "[[1,1]]", [[1, 2], [3, 1]], [[2]]),
                "--matrices: B for color 1 must be symmetric",
            ),
            (
                numeric_argv("q-moment", "[[1,2]]", [[1]], [[1]]),
                "--matrices: bindings cover 1 colors, spec needs 2",
            ),
            (
                ["moment", "--spec", "[[1,2]]", "--scalar", '{"M":[2]}'],
                "--scalar: bindings cover 1 colors, spec needs 2",
            ),
            (
                ["moment", "--sigma", "[[1,-1],[2,-2]]", "--coloring", "1,2"]
                + ["--scalar", '{"M":[2]}'],
                "--scalar: bindings cover 1 colors, spec needs 2",
            ),
            (
                ["moment", "--spec", "[[1,1]]", "--scalar", '{"M":[2.5],"N":3}'],
                "--scalar: shape size must be a positive integer or a symbol name, got 2.5",
            ),
            (
                ["moment", "--spec", "[[1,1]]", "--scalar", '{"M":[true],"N":3}'],
                "--scalar: shape size must be a positive integer or a symbol name, got True",
            ),
            (
                ["q-moment", "--spec", "[[1,1]]", "--scalar", '{"M":[-2],"N":3}'],
                "--scalar: shape size must be a positive integer or a symbol name, got -2",
            ),
            (
                ["moment", "--spec", "[[1,1]]", "--scalar", '{"M":[2],"N":0}'],
                "--scalar: n_dim must be a positive integer or a symbol name, got 0",
            ),
            (
                ["moment", "--spec", "[[1,1]]", "--scalar", '{"M":[2],"N":2.5}'],
                "--scalar: n_dim must be a positive integer or a symbol name, got 2.5",
            ),
            (
                ["moment", "--spec", "[[1,1]]", "--scalar", '{"M":"MM"}'],
                "--scalar: M must be a JSON list",
            ),
            (
                numeric_argv("moment", "[[1]]", [["1e400", 0.5], [0.5, 1]], [[2]]),
                "--matrices: B must be finite",
            ),
            (
                numeric_argv("moment", "[[1]]", [[1]], [["-1e400", 0.5], [0.5, 1]]),
                "--matrices: Sigma must be finite",
            ),
            (
                numeric_argv("moment", "[[1]]", [1, 2], [[1]]),
                "--matrices: B must be a list of rows of numbers",
            ),
            # --matrices entries are read by the library's one reader, which names the entry
            (
                numeric_argv("moment", "[[1]]", [["1/0"]], [[1]]),
                "--matrices: B entry [0][0] is not a number: '1/0'",
            ),
            (
                numeric_argv("moment", "[[1]]", [[True]], [[1]]),
                "--matrices: B entry [0][0] is not a number: True",
            ),
            (
                numeric_argv("moment", "[[1]]", [[1, None]], [[1]]),
                "--matrices: B entry [0][1] is not a number: None",
            ),
            (
                numeric_argv("moment", "[[1]]", [["x"]], [[1]]),
                "--matrices: B entry [0][0] is not a number: 'x'",
            ),
            (
                numeric_argv("q-moment", "[[1]]", [[1]], [[2, 0], [0, "1/0"]]),
                "--matrices: Sigma entry [1][1] is not a number: '1/0'",
            ),
            (
                numeric_argv("moment", "[[1]]", [[1]], 7),
                "--matrices: Sigma must be a list of rows of numbers",
            ),
            # q and lambda are symbols, but a size named so would merge with them
            (
                ["q-moment", "--spec", '{"cycle_words":[[1,1]]}', "--scalar", '{"M":["q"]}'],
                "--scalar: shape size must be a positive integer or a symbol name, got 'q'",
            ),
            (
                ["moment", "--spec", "[[1,1]]", "--scalar", '{"M":[2],"N":"lambda"}'],
                "--scalar: n_dim must be a positive integer or a symbol name, got 'lambda'",
            ),
            # the sampler is refused for want of any pair, not for a dimension mismatch
            (
                ["mc-validate", "--spec", "[[1]]", "--matrices", "[]"],
                "--matrices: the sampler needs at least one (B, Sigma) pair",
            ),
            # exponents, atom colors and flags inside a polynomial are read, never truncated
            (
                ["fluctuation-limit", "--Q", _statistic({"lambda": 0.5}), "--orders", "2"],
                "--Q: exponent must be an integer, got 0.5",
            ),
            (
                ["q-moment", "--spec", "[[1]]", "--scalar", _scale({"N": 1.5})],
                "--scalar: exponent must be an integer, got 1.5",
            ),
            (
                ["q-moment", "--spec", "[[1]]", "--scalar", _scale(_atom([[1.7, False]], 1))],
                "--scalar: color must be an integer, got 1.7",
            ),
            (
                ["fluctuation-limit", "--Q", _statistic(_atom([[1, "no"]], 1)), "--orders", "2"],
                "--Q: transpose flag must be a bool, got 'no'",
            ),
            (
                ["q-moment", "--spec", "[[1]]", "--scalar", _scale(_atom([[1, False]], 2.9))],
                "--scalar: exponent must be an integer, got 2.9",
            ),
            # the commands' own checks of which flags go together
            (
                ["moment", "--spec", "[[1]]", "--sigma", "[[1,-1]]", "--coloring", "1"]
                + ["--symbolic"],
                "--sigma: give either --spec or --sigma, not both",
            ),
            (
                ["moment", "--sigma", "[[1,-1]]", "--symbolic"],
                "--coloring: --sigma requires --coloring",
            ),
            (["moment", "--symbolic"], "--spec: a spec is required"),
            (
                ["fluctuation-limit", "--Q", TRACE, "--orders", "0"],
                "--orders: orders must be at least 1",
            ),
            (["t5-check", "--Q", TRACE, "--m", "-1"], "--m: m must be nonnegative"),
            (
                ["enumerate", "--n", "2", "--coloring", "1,1,1"],
                "--coloring: coloring length must equal --n",
            ),
            (
                ["mp-check", "--eigenvalues", '["1"]', "--N", "2"],
                "--eigenvalues: need --eigenvalues, --N and --n-max (or --input)",
            ),
            (
                ["mc-validate", "--spec", "[[1]]"],
                "--spec: need --spec and --matrices (or --config)",
            ),
        ],
    )
    def test_message_and_flag(self, capsys, argv, message):
        assert capture(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestMissingKeysAreNamed:
    """A JSON object without a key the input needs is reported as that key missing."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["fluctuation-limit", "--Q", '{"terms":[{"word":[1]}]}', "--orders", "2"],
                "--Q: missing 'coeff'",
            ),
            (
                ["fluctuation-limit", "--Q", "{}", "--orders", "2"],
                "--Q: missing 'terms'",
            ),
            (
                ["q-moment", "--spec", "[[1]]", "--scalar", '{"scale":["1"]}'],
                "--scalar: missing 'M'",
            ),
            (
                ["moment", "--spec", "[[1]]", "--matrices", '[{"B":[[1]]}]'],
                "--matrices: missing 'Sigma'",
            ),
            (
                ["mc-validate", "--config", '{"spec":[[1]]}'],
                "--config: missing 'matrices'",
            ),
        ],
        ids=["Q coeff", "Q terms", "scalar", "matrices", "config"],
    )
    def test_message_and_flag(self, capsys, argv, message):
        assert capture(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


_ZERO_DENOMINATOR = {"poly": {"terms": [{"coeff": "1/0", "powers": {}}]}}


class TestZeroDenominatorNamesTheFlag:
    """A rational with a zero denominator inside a polynomial is an input error."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (
                ["fluctuation-limit", "--orders", "2", "--Q"]
                + [json.dumps({"terms": [{"coeff": _ZERO_DENOMINATOR, "word": [1]}]})],
                "--Q",
            ),
            (
                ["moment", "--spec", "[[1,1]]", "--scalar"]
                + [json.dumps({"M": ["M"], "scale": [_ZERO_DENOMINATOR]})],
                "--scalar",
            ),
        ],
        ids=["Q", "scalar"],
    )
    def test_exit_two_without_traceback(self, capsys, argv, field):
        assert capture(argv) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: {field}: not a finite rational number: '1/0'\n"
        assert "Traceback" not in err


_NOT_EXACT = 'is not an exact number; write an integer or a quoted rational such as "1/10"'


class TestExactFieldsRefuseDecimals:
    """A JSON decimal is a binary double; exact fields refuse it and name the flag."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (
                ["fluctuation-limit", "--Q", '{"terms":[{"coeff":0.1,"word":[1]}]}']
                + ["--orders", "2"],
                "--Q",
            ),
            (
                ["q-moment", "--spec", "[[1]]", "--scalar", '{"M":["M"],"scale":[0.1]}'],
                "--scalar",
            ),
            (["mp-check", "--eigenvalues", "[0.1, 1]", "--N", "2", "--n-max", "2"], "--eigenvalues"),
            (["mp-check", "--input", '{"eigenvalues":[0.1, 1],"N":2,"n_max":2}'], "--input"),
        ],
    )
    def test_decimal_refused(self, capsys, argv, field):
        assert capture(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {field}: 0.1 {_NOT_EXACT}\n"

    def test_poly_coefficient_decimal_refused(self, capsys):
        poly = {"terms": [{"coeff": 0.5, "powers": {}}]}
        q_json = json.dumps({"terms": [{"coeff": {"poly": poly}, "word": [1]}]})
        assert capture(["fluctuation-limit", "--Q", q_json, "--orders", "2"]) == (2, "")
        assert capsys.readouterr().err == f"error: --Q: 0.5 {_NOT_EXACT}\n"

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1/0", "not a finite rational number: '1/0'"),
            (0.5, f"0.5 {_NOT_EXACT}"),
            (True, f"True {_NOT_EXACT}"),
        ],
        ids=["zero denominator", "decimal", "bool"],
    )
    def test_one_mistake_one_message(self, capsys, value, message):
        # each exact field reads a bad number alike, bare or inside {"poly": ...}
        inside = {"poly": {"terms": [{"coeff": value, "powers": {}}]}}
        argvs = [
            ["fluctuation-limit", "--orders", "2", "--Q"]
            + [json.dumps({"terms": [{"coeff": coeff, "word": [1]}]})]
            for coeff in (value, inside)
        ] + [
            ["q-moment", "--spec", "[[1]]", "--scalar", json.dumps({"M": ["M"], "scale": [scale]})]
            for scale in (value, inside)
        ]
        argvs.append(["mp-check", "--N", "2", "--n-max", "2", "--eigenvalues", json.dumps([value])])
        for argv, field in zip(argvs, ["--Q", "--Q", "--scalar", "--scalar", "--eigenvalues"]):
            assert capture(argv) == (2, "")
            assert capsys.readouterr().err == f"error: {field}: {message}\n"

    def test_quoted_rational_is_exact(self):
        data = capture_json(
            ["fluctuation-limit", "--Q", '{"terms":[{"coeff":"1/10","word":[1]}]}']
            + ["--orders", "2"]
        )
        assert {t["coeff"] for t in data["orders"][1]["value"]["terms"]} == {"1/100"}

    def test_matrices_keep_floats(self):
        data = capture_json(numeric_argv("moment", "[[1]]", [[0.5]], [[1]]))
        assert data["result"] == 0.5


class TestFluctuationLimit:
    def test_orders(self):
        data = capture_json(
            ["fluctuation-limit", "--Q", '{"terms":[{"coeff":"1","word":[1]}]}', "--orders", "4"]
        )
        assert [entry["order"] for entry in data["orders"]] == [1, 2, 3, 4]
        assert data["orders"][0]["value"]["terms"] == []
        second = poly_from_json(data["orders"][1]["value"])
        from qwishart.polynomials import MomentPolynomial as P

        assert second == (1 + P.symbol("q")) * P.symbol("lambda")

    def test_poly_coefficient_round_trip(self):
        data = capture_json(
            ["fluctuation-limit", "--Q", '{"terms":[{"coeff":"1","word":[1]}]}', "--orders", "2"]
        )
        coeff = {"poly": data["orders"][1]["value"]}
        q_json = json.dumps({"terms": [{"coeff": coeff, "word": [1]}]})
        data2 = capture_json(["fluctuation-limit", "--Q", q_json, "--orders", "2"])
        assert data2["orders"][1]["value"]["terms"]

    def test_rational_q_reaches_coefficients(self):
        # tuned square tr(W^2) - (1 + q^2 + 2 lambda) tr(W): m2 = lambda^2 (1+q^2+q^4+q^6)
        q, lam = MomentPolynomial.symbol("q"), MomentPolynomial.symbol("lambda")
        shift = {"poly": poly_to_json(-1 * (1 + q**2 + 2 * lam))}
        terms = [{"coeff": "1", "word": [1, 1]}, {"coeff": shift, "word": [1]}]
        data = capture_json(
            ["fluctuation-limit", "--Q", json.dumps({"terms": terms}), "--q", "0", "--orders", "2"]
        )
        assert poly_from_json(data["orders"][1]["value"]) == lam**2

    def test_csv(self):
        code, text = capture(
            [
                "fluctuation-limit",
                "--Q",
                '{"terms":[{"coeff":"1","word":[1]}]}',
                "--orders",
                "2",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(text)))
        # order 1 is zero, so the header must come from every order at once
        assert header[:2] == ["order", "coeff"] and {"q", "lambda"} <= set(header)
        assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize(
    "argv, field",
    [
        (["moment", "--spec", json.dumps([[1] * 10]), "--symbolic"], "--spec"),
        (["q-moment", "--spec", json.dumps([[1] * 10]), "--symbolic"], "--spec"),
        (
            ["moment", "--sigma", json.dumps([[j, -j] for j in range(1, 11)]),
             "--coloring", ",".join("1" * 10), "--symbolic"],
            "--sigma",
        ),
        # over the limit sum's work bound
        (["fluctuation-limit", "--Q", TRACE, "--orders", "300"], "--orders"),
        (["t5-check", "--Q", PRODUCT, "--m", "18"], "--m"),
        # the connector walks of tr(W^5) are over the table bound at any order
        (["fluctuation-limit", "--Q", QUINTIC, "--orders", "2"], "--Q"),
        (["t5-check", "--Q", QUINTIC, "--m", "0"], "--Q"),
        # over the limit sum's memory bound
        (["fluctuation-limit", "--Q", SQUARE, "--orders", "20"], "--orders"),
    ],
)
def test_enumeration_bounds_name_the_flag(capsys, argv, field):
    assert capture(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "bound" in err


@pytest.mark.parametrize(
    "command",
    [
        ["fluctuation-limit", "--orders", "2"],
        ["t5-check", "--m", "0"],
        # an odd order or m has a zero limit with no sum, and refuses the same
        ["fluctuation-limit", "--orders", "1"],
        ["t5-check", "--m", "1"],
    ],
)
def test_limit_coefficient_symbols_name_the_statistic(capsys, command):
    coeff = {"poly": {"terms": [{"coeff": "1", "powers": {"N": -1}}]}}
    stat = json.dumps({"terms": [{"coeff": coeff, "word": [1]}]})
    assert capture(command + ["--Q", stat]) == (2, "")
    assert capsys.readouterr().err.startswith("error: --Q: limit statistic coefficients")


_OVER_Q = {"poly": {"terms": [{"coeff": "1", "powers": {"q": -1}}]}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["fluctuation-limit", "--orders", "2", "--q", "0", "--Q"]
            + [json.dumps({"terms": [{"coeff": _OVER_Q, "word": [1]}]})],
            "--Q: a limit statistic coefficient holds q^-1, undefined at q = 0",
        ),
        (
            ["t5-check", "--m", "2", "--q", "0", "--Q"]
            + [json.dumps({"terms": [{"coeff": _OVER_Q, "word": [1]}]})],
            "--Q: a limit statistic coefficient holds q^-1, undefined at q = 0",
        ),
        (
            ["q-moment", "--spec", '{"cycle_words":[[1,1]]}', "--q", "0", "--scalar"]
            + [json.dumps({"M": ["M"], "scale": [_OVER_Q]})],
            "--scalar: a scale factor may not hold q",
        ),
        (
            ["fluctuation-limit", "--orders", "1", "--q", "0", "--Q"]
            + [json.dumps({"terms": [{"coeff": _OVER_Q, "word": [1]}]})],
            "--Q: a limit statistic coefficient holds q^-1, undefined at q = 0",
        ),
        (
            ["t5-check", "--m", "1", "--q", "0", "--Q"]
            + [json.dumps({"terms": [{"coeff": _OVER_Q, "word": [1]}]})],
            "--Q: a limit statistic coefficient holds q^-1, undefined at q = 0",
        ),
    ],
    ids=["fluctuation-limit", "t5-check", "q-moment", "fluctuation-limit order 1", "t5-check m 1"],
)
def test_negative_power_of_q_at_q_zero_names_the_flag(capsys, argv, message):
    assert capture(argv) == (2, "")
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


class TestT5Check:
    def test_zero(self):
        data = capture_json(
            ["t5-check", "--Q", '{"terms":[{"coeff":"1","word":[1]}]}', "--m", "1"]
        )
        assert data["zero"] is True
        assert data["difference"]["terms"] == []

    def test_csv_of_the_zero_difference(self):
        argv = ["t5-check", "--Q", '{"terms":[{"coeff":"1","word":[1,2]}]}', "--m", "2"]
        assert capture(argv + ["--format", "csv"]) == (0, "coeff,atoms\n")


class TestMpCheck:
    def test_flags(self):
        data = capture_json(
            ["mp-check", "--eigenvalues", '["1","4"]', "--N", "2", "--n-max", "4"]
        )
        assert data["all_equal"] is True
        assert [row["n"] for row in data["rows"]] == [1, 2, 3, 4]

    def test_input_object(self):
        data = capture_json(
            ["mp-check", "--input", '{"eigenvalues":["1"],"N":2,"n_max":3}']
        )
        assert data["all_equal"] is True
        assert data["lambda"] == "1/2"

    def test_bad_eigenvalue(self):
        code, _ = capture(["mp-check", "--eigenvalues", '["0"]', "--N", "2", "--n-max", "2"])
        assert code == 2

    @pytest.mark.parametrize(
        "eigenvalues,n_dim,n_max,field",
        [
            ('["1"]', "0", "3", "--N"),
            ('["1"]', "-2", "3", "--N"),
            ("[]", "2", "3", "--eigenvalues"),
            ('"12"', "2", "3", "--eigenvalues"),
            ("[true]", "2", "3", "--eigenvalues"),
            ("[Infinity]", "2", "3", "--eigenvalues"),
            ('["1"]', "2", "-1", "--n-max"),
            ('["1"]', "2", "10", "--n-max"),
        ],
    )
    def test_names_the_flag(self, capsys, eigenvalues, n_dim, n_max, field):
        argv = ["mp-check", "--eigenvalues", eigenvalues, "--N", n_dim, "--n-max", n_max]
        assert capture(argv) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "data",
        ["[1]", '{"eigenvalues":["1"],"N":2.0,"n_max":3}', '{"eigenvalues":["1"],"N":2}'],
    )
    def test_bad_input_object(self, capsys, data):
        assert capture(["mp-check", "--input", data]) == (2, "")
        assert capsys.readouterr().err.startswith("error: --input: ")


class TestMcValidate:
    ONE = '[{"B":[[1.0]],"Sigma":[[1.0]]}]'

    def test_small_run(self):
        matrices = json.dumps([{"B": [[1.0]], "Sigma": [[1.0]]}])
        data = capture_json(
            [
                "mc-validate",
                "--spec",
                '{"cycle_words":[[1]]}',
                "--matrices",
                matrices,
                "--seed",
                "3",
                "--samples",
                "4000",
            ]
        )
        assert data["exact"] == pytest.approx(1.0)
        assert data["z"] <= 4.0

    def test_config_object(self):
        config = json.dumps(
            {
                "seed": 3,
                "samples": 500,
                "spec": {"cycle_words": [[1]]},
                "matrices": [{"B": [[1.0]], "Sigma": [[1.0]]}],
            }
        )
        data = capture_json(["mc-validate", "--config", config])
        assert data["samples"] == 500

    @pytest.mark.parametrize(
        "matrices",
        [
            '[{"B":[[NaN]],"Sigma":[[1.0]]}]',
            '[{"B":[[1.0]],"Sigma":[[Infinity]]}]',
        ],
    )
    def test_non_finite_matrices_name_flag(self, capsys, matrices):
        argv = ["mc-validate", "--spec", '{"cycle_words":[[1]]}', "--matrices", matrices]
        code, text = capture(argv)
        assert (code, text) == (2, "")
        assert "--matrices" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--samples", "0"], "--samples"),
            (["--samples", "1"], "--samples"),
        ],
    )
    def test_sample_flags_named(self, capsys, extra, field):
        argv = ["mc-validate", "--spec", "[[1]]", "--matrices", self.ONE] + extra
        assert capture(argv) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "config",
        [
            "[1]",
            '{"spec":[[1]]}',
            '{"matrices":[{"B":[[1.0]],"Sigma":[[1.0]]}]}',
            '{"seed":1.5,"spec":[[1]],"matrices":[{"B":[[1.0]],"Sigma":[[1.0]]}]}',
            '{"samples":2.7,"spec":[[1]],"matrices":[{"B":[[1.0]],"Sigma":[[1.0]]}]}',
            '{"samples":true,"spec":[[1]],"matrices":[{"B":[[1.0]],"Sigma":[[1.0]]}]}',
            '{"samples":1,"spec":[[1]],"matrices":[{"B":[[1.0]],"Sigma":[[1.0]]}]}',
            '{"spec":[[0]],"matrices":[{"B":[[1.0]],"Sigma":[[1.0]]}]}',
            '{"spec":[[1]],"matrices":[{"B":[[1.0]],"Sigma":[[-1.0]]}]}',
        ],
    )
    def test_bad_config_named(self, capsys, config):
        assert capture(["mc-validate", "--config", config]) == (2, "")
        assert capsys.readouterr().err.startswith("error: --config: ")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("spec", ["[[1,1]]", "[[1],[2]]"])
    def test_float_overflow_named(self, capsys, spec):
        # tr(B^2) overflows in a power, tr(B1) tr(B2) in a product
        big = '{"B":[[1e200]],"Sigma":[[1.0]]}'
        matrices = f"[{big},{big}]"
        commands = ((["moment"], "result"), (["mc-validate", "--samples", "10"], "estimate"))
        for command, what in commands:
            argv = command + ["--spec", spec, "--matrices", matrices]
            assert capture(argv) == (2, "")
            err = capsys.readouterr().err
            assert err == f"error: --matrices: the {what} is not finite (float overflow)\n"

    def test_emit_json_is_strict(self):
        from qwishart.cli import _emit_json

        buf = io.StringIO()
        with pytest.raises(ValueError):
            _emit_json(buf, {"z": float("inf")})
        assert buf.getvalue() == ""


class TestTable:
    def test_crossing_sequence(self):
        data = capture_json(["table1"])
        assert [row["cr"] for row in data["rows"]] == [0, 1, 0, 1, 6, 5, 0, 5, 4]


class TestErrorsAndFiles:
    def test_bad_json_names_field(self, capsys):
        code, _ = capture(["moment", "--spec", "{oops", "--symbolic"])
        assert code == 2
        assert "--spec" in capsys.readouterr().err

    def test_at_file_indirection(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"cycle_words":[[1,2],[1,2]]}')
        data = capture_json(["moment", "--spec", f"@{spec_file}", "--symbolic"])
        assert len(data["result"]["terms"]) == 9

    def test_missing_at_file(self, capsys):
        code, _ = capture(["moment", "--spec", "@/nonexistent.json", "--symbolic"])
        assert code == 2


def _readme_block(heading, language):
    """The first ``language`` code block after the README's ``heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _readme_commands():
    block = _readme_block("## Command line", "sh")
    commands = []
    for paragraph in block.split("\n\n"):
        lines = [line for line in paragraph.splitlines() if not line.startswith("#")]
        if lines:
            commands.append(shlex.split("\n".join(lines).replace("\\\n", " ")))
    return commands


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
    def test_command_line_examples_run(self, argv):
        assert argv[0] == "qwishart"
        code, text = capture(argv[1:])
        assert code == 0, text

    def test_python_api_sketch_runs(self):
        namespace = {}
        exec(_readme_block("## Python API sketch", "python"), namespace)
        assert len(namespace["limits"]) == 6
