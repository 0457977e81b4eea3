"""Child processes: the command-line invocations and their peak memory.

Kept free of any qwishart import, so that a worker running only
command-line queries stays small: a child's peak RSS on Linux starts from
its parent's resident size at spawn.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str]) -> tuple[int, bytes, float]:
    """Exit code, stdout and peak RSS in MB of one child process."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env()
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def execute_cli(query: dict, tr):
    """One ``python -m qwishart`` invocation, in a ``cli.invocation`` span."""
    with tr.span("cli.invocation", command=query["argv"][0]) as attrs:
        code, out, rss = run_process([sys.executable, "-m", "qwishart", *query["argv"]])
        attrs["peak_rss_mb"] = rss
    return code, out, rss


def encode_cli(query: dict, result) -> dict:
    code, out, _ = result
    try:
        parsed = json.loads(out)
    except ValueError:
        parsed = None
    return {"cli": {"returncode": code, "stdout": parsed}}
