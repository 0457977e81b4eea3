"""The experiment scripts run and report their verdicts."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qwishart.montecarlo import EstimateReport
from qwishart.pairings import ENUMERATION_BOUND

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load(name: str, directory: Path = SCRIPTS):
    spec = importlib.util.spec_from_file_location(f"script_{name}", directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMcVsExact:
    def test_battery_passes(self, capsys):
        assert load("mc_vs_exact").main(["--samples", "20000"]) == 0
        assert "worst |z|" in capsys.readouterr().out

    @pytest.mark.parametrize("z, status", [(3.99, 0), (4.0, 1), (float("inf"), 1)])
    def test_exit_status_follows_worst_z(self, monkeypatch, z, status):
        script = load("mc_vs_exact")
        report = EstimateReport(mean=1.0, stderr=0.5, samples=10, exact=1.0, z=z)
        monkeypatch.setattr(script, "estimate_monomial", lambda spec, config: report)
        assert script.main(["--samples", "10"]) == status


def test_limit_moment_scan_prints_every_order(monkeypatch, capsys):
    script = load("limit_moment_scan")
    argv = ["limit_moment_scan.py"]
    for name in ("trace", "product", "tuned-square"):
        argv += ["--statistic", name]
    monkeypatch.setattr(sys, "argv", argv)
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("==")] == [
        "== trace",
        "== product",
        "== tuned-square",
    ]
    assert sum(line.startswith("  m") for line in lines) == sum(script.MAX_ORDERS.values())


def test_limit_moment_scan_substitutes_rational_q(monkeypatch, capsys):
    # the tuned square's coefficients carry q, so they must take q = 0 too
    script = load("limit_moment_scan")
    argv = ["limit_moment_scan.py", "--q", "0", "--statistic", "tuned-square"]
    monkeypatch.setattr(sys, "argv", argv)
    script.main()
    values = [line.split("=", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(values) == script.MAX_ORDERS["tuned-square"]
    assert not any("q" in value for value in values)


def _record(workload, seed, trace, metrics, **shared):
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": "abc",
        "source_sha256": "def",
        "python": "3.11.7",
        "numpy": "1.26.4",
        "nproc": 2,
        "failed_frac": 0.0,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
    }
    record.update(shared)
    return record


class TestBenchSummary:
    def write(self, tmp_path, records):
        for r in records:
            name = f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
            (tmp_path / name).write_text(json.dumps(r))
        (tmp_path / "finite-exact-seed1-spans.json").write_text("[]")  # not a record

    def test_medians_quartiles_and_traced_run(self, tmp_path):
        walls = [0.30, 0.34, 0.32, 0.36, 0.31]
        records = [
            _record("finite-exact", seed, 0, {"wall_s": wall})
            for seed, wall in zip(range(1, 6), walls)
        ]
        records.append(_record("finite-exact", 9, 1, {"fluctuations.finite_centered_s": 0.04}))
        records.append(_record("cli-short", 1, 0, {"wall_s": 1.2}, failed_frac=0.5))
        self.write(tmp_path, records)
        out = tmp_path / "BENCH.json"
        assert load("bench_summary").main([str(tmp_path), "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert (summary["git_sha"], summary["nproc"], summary["numpy"]) == ("abc", 2, "1.26.4")
        finite = summary["workloads"]["finite-exact"]
        assert finite["seeds"] == [1, 2, 3, 4, 5] and finite["traced_seeds"] == [9]
        wall = finite["end_to_end"]["wall_s"]
        assert wall["median"] == 0.32 and wall["runs"] == 5 and wall["unit"] == "s"
        assert (wall["q1"], wall["q3"]) == (0.31, 0.34)
        assert abs(wall["iqr"] - 0.03) < 1e-12
        assert wall["per_seed"] == {"1": 0.30, "2": 0.34, "3": 0.32, "4": 0.36, "5": 0.31}
        assert finite["per_layer"] == {
            "fluctuations.finite_centered_s": {"unit": "s", "value": 0.04}
        }
        short = summary["workloads"]["cli-short"]
        assert short["end_to_end"]["wall_s"]["iqr"] == 0.0
        assert short["per_layer"] == {} and short["failed_frac_max"] == 0.5

    @pytest.mark.parametrize("key", ["git_sha", "nproc", "python"])
    def test_rejects_records_from_two_trees(self, tmp_path, capsys, key):
        first = _record("finite-exact", 1, 0, {"wall_s": 0.3})
        second = _record("finite-exact", 2, 0, {"wall_s": 0.3}, **{key: "other"})
        self.write(tmp_path, [first, second])
        assert load("bench_summary").main([str(tmp_path)]) == 2
        assert f"disagree on {key}" in capsys.readouterr().err

    def test_per_seed_values_pair_two_trees(self, tmp_path):
        # two summaries of the same seeds can be compared run by run
        summaries = []
        for tree, walls in (("parent", [0.30, 0.34, 0.32]), ("change", [0.25, 0.35, 0.24])):
            (tmp_path / tree).mkdir()
            records = [
                _record("finite-exact", seed, 0, {"wall_s": w}, git_sha=tree)
                for seed, w in zip((7, 8, 9), walls)
            ]
            self.write(tmp_path / tree, records)
            out = tmp_path / f"{tree}.json"
            assert load("bench_summary").main([str(tmp_path / tree), "--out", str(out)]) == 0
            summaries.append(json.loads(out.read_text()))
        parent, change = (
            s["workloads"]["finite-exact"]["end_to_end"]["wall_s"]["per_seed"] for s in summaries
        )
        assert parent.keys() == change.keys() == {"7", "8", "9"}
        assert sum(change[seed] < parent[seed] for seed in parent) == 2

    def test_rejects_a_repeated_seed(self, tmp_path, capsys):
        records = [_record("finite-exact", 1, 0, {"wall_s": w}) for w in (0.3, 0.4)]
        for i, r in enumerate(records):  # two records of one seed under two file names
            (tmp_path / f"finite-exact-seed1-run{i}-trace0.json").write_text(json.dumps(r))
        assert load("bench_summary").main([str(tmp_path)]) == 2
        assert "repeat a seed of finite-exact" in capsys.readouterr().err

    def test_no_records(self, tmp_path, capsys):
        assert load("bench_summary").main([str(tmp_path)]) == 2
        assert "no run records" in capsys.readouterr().err

    def summaries(self, tmp_path, trees):
        """Write one summary per tree of ``{workload: {seed: wall_s}}``; return the paths."""
        paths = []
        for tree, walls in trees:
            (tmp_path / tree).mkdir()
            records = [
                _record(workload, seed, 0, {"wall_s": w}, git_sha=tree)
                for workload, by_seed in walls.items()
                for seed, w in by_seed.items()
            ]
            self.write(tmp_path / tree, records)
            paths.append(tmp_path / f"{tree}.json")
            assert load("bench_summary").main([str(tmp_path / tree), "--out", str(paths[-1])]) == 0
        return [str(path) for path in paths]

    def test_compare_pairs_by_seed(self, tmp_path, capsys):
        parent, change = self.summaries(
            tmp_path,
            [
                ("parent", {"finite-exact": {7: 0.30, 8: 0.40, 9: 0.20}, "cli-short": {7: 1.0}}),
                ("change", {"finite-exact": {7: 0.15, 8: 0.50, 9: 0.10, 10: 0.01}}),
            ],
        )
        assert load("bench_summary").main(["--compare", parent, change]) == 0
        # medians 0.30 -> 0.15 (seed 10 has no parent run); cli-short is in one summary only
        assert capsys.readouterr().out == (
            "finite-exact wall_s: 0.3 [IQR 0.1] -> 0.125 s, ratio 0.417, "
            "change lower in 2/3 seeds\n"
        )

    def test_compare_a_summary_with_itself(self, tmp_path, capsys):
        (summary,) = self.summaries(tmp_path, [("tree", {"finite-exact": {1: 0.3, 2: 0.4}})])
        assert load("bench_summary").main(["--compare", summary, summary]) == 0
        assert "ratio 1.000, change lower in 0/2 seeds" in capsys.readouterr().out

    def test_per_query_medians_and_compare_lines(self, tmp_path, capsys):
        # two batches of three queries per run; query 1 moves, the others do not
        batches = {
            "parent": {7: [[0.1, 0.4, 0.2], [0.3, 0.6, 0.2]], 8: [[0.2, 0.5, 0.2]]},
            "change": {7: [[0.2, 0.1, 0.2], [0.2, 0.3, 0.2]], 8: [[0.2, 0.1, 0.2]]},
        }
        paths = []
        for tree, runs in batches.items():
            (tmp_path / tree).mkdir()
            records = [
                _record("limit-moments", seed, 0, {"wall_s": 1.0}, git_sha=tree,
                        batch_query_s=times)
                for seed, times in runs.items()
            ]
            self.write(tmp_path / tree, records)
            paths.append(str(tmp_path / f"{tree}.json"))
            assert load("bench_summary").main([str(tmp_path / tree), "--out", paths[-1]]) == 0
        per_query = json.loads(Path(paths[0]).read_text())["workloads"]["limit-moments"]["per_query"]
        assert list(per_query) == ["0", "1", "2"]
        assert per_query["1"]["per_seed"] == {"7": 0.5, "8": 0.5}
        assert load("bench_summary").main(["--compare", *paths]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "limit-moments query 0 raw: 0.2 [IQR 0] -> 0.2 s, ratio 1.000, "
            "change lower in 0/2 seeds",
            "limit-moments query 1 raw: 0.5 [IQR 0] -> 0.15 s, ratio 0.300, "
            "change lower in 2/2 seeds",
            "limit-moments query 2 raw: 0.2 [IQR 0] -> 0.2 s, ratio 1.000, "
            "change lower in 0/2 seeds",
        ]
        assert load("bench_summary").main(["--compare", paths[0], paths[0]]) == 0
        assert all("ratio 1.000," in line for line in capsys.readouterr().out.splitlines())

    def test_compare_rejects_disjoint_summaries(self, tmp_path, capsys):
        parent, change = self.summaries(
            tmp_path,
            [("parent", {"finite-exact": {1: 0.3}}), ("change", {"cli-short": {1: 1.0}})],
        )
        assert load("bench_summary").main(["--compare", parent, change]) == 2
        assert "share no workload" in capsys.readouterr().err

    def test_compare_exits_quietly_on_a_closed_pipe(self, tmp_path):
        # as ``--compare ... | head``: the reader is gone before the lines are written
        (summary,) = self.summaries(tmp_path, [("tree", {"finite-exact": {1: 0.3}})])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, str(SCRIPTS / "bench_summary.py"), "--compare", summary, summary],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_compare_names_an_unreadable_summary(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert load("bench_summary").main(["--compare", missing, missing]) == 2
        assert capsys.readouterr().err.startswith("bench_summary: --compare: ")


def test_benchmark_bound_mirrors_the_package():
    # the benchmark's generator keeps its own copy of the degree bound
    assert load("workloads", ROOT / "perfbench").ENUMERATION_BOUND == ENUMERATION_BOUND
