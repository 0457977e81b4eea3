"""The experiment scripts run and report their verdicts."""

import importlib.util
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
