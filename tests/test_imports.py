"""numpy loads on first float use only.

pytest has already imported numpy in this process, so every check runs in a
fresh interpreter with the package source on its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MONTECARLO_NAMES = (
    "EstimateReport",
    "SamplerConfig",
    "estimate_monomial",
    "sample_family",
    "symmetric_root",
)
STAT_TRACE = '{"terms":[{"coeff":"1","word":[1]}]}'
STAT_PRODUCT = '{"terms":[{"coeff":"1","word":[1,2]}]}'
SPEC = '{"cycle_words":[[1,2],[1,2]]}'
SCALAR = '{"M":["M",3],"scale":["1","1/2"],"N":"N"}'
RATIONAL_MATRICES = json.dumps(
    [
        {"B": [["1", "1/2"], ["1/2", "3"]], "Sigma": [["2", "1/3"], ["1/3", "1"]]},
        {"B": [[1, 0], [0, 2]], "Sigma": [[1, 0], [0, 1]]},
    ]
)
FLOAT_MATRICES = json.dumps([{"B": [[1.0]], "Sigma": [[2.0]]}])

EXACT_COMMANDS = {
    "table1": ["table1"],
    "enumerate": ["enumerate", "--n", "4", "--coloring", "1,2,1,2"],
    "fluctuation-limit": ["fluctuation-limit", "--Q", STAT_TRACE, "--orders", "4"],
    "t5-check": ["t5-check", "--Q", STAT_PRODUCT, "--m", "2"],
    "mp-check": ["mp-check", "--eigenvalues", '["1","4"]', "--N", "2", "--n-max", "4"],
    "moment-symbolic": ["moment", "--spec", SPEC, "--symbolic"],
    "moment-scalar": ["moment", "--spec", SPEC, "--scalar", SCALAR],
    "moment-matrices": ["moment", "--spec", SPEC, "--matrices", RATIONAL_MATRICES],
    "q-moment-symbolic": ["q-moment", "--spec", SPEC, "--symbolic"],
    "q-moment-scalar": ["q-moment", "--spec", SPEC, "--scalar", SCALAR, "--q", "1/2"],
    "q-moment-matrices": ["q-moment", "--spec", SPEC, "--matrices", RATIONAL_MATRICES],
}


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return proc.stdout


def cli_exit_and_numpy(argv) -> list:
    code = (
        "import io, json, sys\n"
        "from qwishart.cli import run\n"
        f"code = run({argv!r}, out=io.StringIO())\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n"
    )
    return json.loads(fresh_python(code))


def test_import_leaves_numpy_unloaded():
    code = "import sys, qwishart; print('numpy' in sys.modules, 'qwishart.montecarlo' in sys.modules)"
    assert fresh_python(code).split() == ["False", "False"]


@pytest.mark.parametrize("argv", EXACT_COMMANDS.values(), ids=EXACT_COMMANDS.keys())
def test_exact_command_leaves_numpy_unloaded(argv):
    assert cli_exit_and_numpy(argv) == [0, False]


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--spec", '{"cycle_words":[[1,1]]}', "--matrices", FLOAT_MATRICES],
        ["mc-validate", "--spec", '{"cycle_words":[[1]]}', "--matrices", FLOAT_MATRICES,
         "--samples", "100"],
    ],
    ids=["moment-float-matrices", "mc-validate"],
)
def test_float_command_loads_numpy(argv):
    # the control: the check above can see numpy when a command needs it
    assert cli_exit_and_numpy(argv) == [0, True]


def test_sampler_names_resolve_on_first_access():
    code = (
        "import json\n"
        "import qwishart\n"
        "star = {}\n"
        "exec('from qwishart import *', star)\n"
        "import qwishart.montecarlo as mc\n"
        f"names = {MONTECARLO_NAMES!r}\n"
        "same = all(getattr(qwishart, n) is getattr(mc, n) is star[n] for n in names)\n"
        "try:\n"
        "    qwishart.no_such_name\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "print(json.dumps({'same': same, 'module': qwishart.montecarlo is mc,\n"
        "                  'star': sorted(n for n in names if n in star),\n"
        "                  'dir': sorted(n for n in names if n in dir(qwishart)),\n"
        "                  'missing': missing}))\n"
    )
    report = json.loads(fresh_python(code))
    names = sorted(MONTECARLO_NAMES)
    assert report == {"same": True, "module": True, "star": names, "dir": names, "missing": True}


def test_first_sampler_access_loads_numpy():
    code = (
        "import sys, qwishart\n"
        "config = qwishart.SamplerConfig\n"
        "print(config is sys.modules['qwishart.montecarlo'].SamplerConfig, 'numpy' in sys.modules)\n"
    )
    assert fresh_python(code).split() == ["True", "True"]
