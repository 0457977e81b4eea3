"""The experiment scripts run and report their verdicts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qwishart.montecarlo import EstimateReport

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
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

    def test_no_records(self, tmp_path, capsys):
        assert load("bench_summary").main([str(tmp_path)]) == 2
        assert "no run records" in capsys.readouterr().err
