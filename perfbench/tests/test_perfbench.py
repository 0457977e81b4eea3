"""Tests of the benchmark itself (not part of the package's suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calls  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qwishart import color_preserving_pairings  # noqa: E402
from qwishart.pairings import Coloring  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cost_structure_is_seed_invariant(workload):
    """Seeds change the inputs, not the number of tables the workload visits."""
    summaries = [workloads.summary(workloads.generate(workload, s)) for s in range(5)]
    assert all(s["tables_closed_form"] == summaries[0]["tables_closed_form"] for s in summaries)
    assert all(s["queries"] == summaries[0]["queries"] for s in summaries)


def test_closed_form_table_count_matches_the_enumerator():
    specs = {w for name in workloads.WORKLOADS
             for q in workloads.generate(name, 3) for w in workloads.enumerated_specs(q)}
    colorings = {workloads.coloring_of(w) for w in specs}
    small = [c for c in colorings if workloads.closed_form_tables(c) <= 2000]
    assert len(small) >= 10
    for colors in small:
        count = sum(1 for _ in color_preserving_pairings(Coloring.from_colors(colors)))
        assert count == workloads.closed_form_tables(colors), colors


def test_names_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert set(w["name"] for w in spec["workloads"]) == set(workloads.WORKLOADS)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=300,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def test_run_prints_every_declared_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = _run("mc-validate", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


# ---------------------------------------------------------------------------
# every check rejects a corrupted result


def _bump_first_coeff(node) -> bool:
    """Add 1 to the first exact coefficient found; True when one was changed."""
    if isinstance(node, dict):
        if isinstance(node.get("coeff"), str):
            node["coeff"] = str(Fraction(node["coeff"]) + 1)
            return True
        if isinstance(node.get("rat"), str):
            node["rat"] = str(Fraction(node["rat"]) + 1)
            return True
        return any(_bump_first_coeff(v) for v in node.values())
    if isinstance(node, list):
        return any(_bump_first_coeff(v) for v in node)
    return False


def _corrupt(query: dict, output: dict) -> dict:
    bad = copy.deepcopy(output)
    kind = query["kind"]
    if kind == "mp":
        row = bad["mp"]["rows"][-1]
        row[1] = str(Fraction(row[1]) + 1)
    elif kind == "mc":
        bad["mc"]["exact"] += 1.0
    elif kind == "cvar" and not bad["poly"]["terms"]:
        bad["poly"]["terms"].append({"coeff": "1", "powers": {}})
    elif kind == "cli" and query["argv"][0] == "enumerate":
        bad["cli"]["stdout"]["pairings"][0][0].reverse()
    elif kind == "cli" and query["argv"][0] == "mp-check":
        row = bad["cli"]["stdout"]["rows"][-1]
        row["lhs"] = row["rhs"] = str(Fraction(row["lhs"]) + 1)
    elif kind == "cli" and query["argv"][0] == "t5-check":
        bad["cli"]["stdout"]["difference"]["terms"].append({"coeff": "1", "powers": {}})
    else:
        assert _bump_first_coeff(bad), query
    return bad


def _cases():
    fe = workloads.generate("finite-exact", 4)
    lm = workloads.generate("limit-moments", 4)
    mc = workloads.generate("mc-validate", 4)
    cli = workloads.generate("cli-short", 4)
    slot = [q for q in fe if q["kind"] == "moment" and len(q["words"]) == 2
            and sum(map(len, q["words"])) == 4][:3]
    single = [q for q in fe if q["kind"] == "moment" and q["fn"] == "real"][:3]
    yield "moment-oracle", slot
    yield "moment-white", single
    yield "centered", [[q for q in fe if q["kind"] == "centered"][-1]]
    yield "mp", [[q for q in fe if q["kind"] == "mp"][0]]
    yield "limit", [next(q for q in lm if q.get("family") == "product")]
    yield "cvar", [next(q for q in lm if q["kind"] == "cvar" and q["m"] == 1)]
    yield "mc", [mc[0]]
    for q in cli:
        if not (q["argv"][0] == "enumerate" and "--coloring" not in q["argv"]):
            yield "cli-" + q["argv"][0], [q]


@pytest.mark.parametrize("name,queries", list(_cases()))
def test_each_check_rejects_a_corrupted_result(name, queries):
    outputs = [calls.encode(q, calls.execute(q)) for q in queries]
    assert checks.verify(queries, outputs, tracing.NULL) == [True] * len(queries)
    for i, query in enumerate(queries):
        bad = list(outputs)
        bad[i] = _corrupt(query, outputs[i])
        assert not checks.verify(queries, bad, tracing.NULL)[i], (name, i)
