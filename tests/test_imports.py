"""Every submodule loads on first use, and numpy on first sampler use only.

pytest has already imported numpy and the package in this process, so every
check runs in a fresh interpreter with the package source on its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# each submodule and the public names it defines, in the order of __all__
PUBLIC = {
    "pairings": (
        "Coloring",
        "EnumerationBoundError",
        "GenusDecomposition",
        "IntegerPartition",
        "PairPartition",
        "SignedTraversal",
        "all_pairings",
        "block_pairing",
        "brauer",
        "canonical_cycles",
        "color_preserving_pairings",
        "components_and_genus",
        "connecting_pairings",
        "crossings",
        "cycle_type_pairing",
        "from_permutation",
        "identity_pairing",
        "induced_coloring",
        "is_noncrossing",
        "is_top_to_bottom",
        "noncrossing_image",
        "traverse",
    ),
    "polynomials": ("MomentPolynomial", "TraceAtom", "evaluate_atom", "limit_large_n"),
    "moments": (
        "FloatOverflowError",
        "MatrixBindings",
        "MonomialSpec",
        "brute_force_moment",
        "identity_shape_moment",
        "q_wishart_moment",
        "real_wishart_moment",
        "real_wishart_moment_general",
        "single_wishart_moment",
        "white_wishart_power_moment",
    ),
    "fluctuations": (
        "LimitMoment",
        "PolynomialStatistic",
        "centered_trace_moment",
        "centered_trace_moment_limit",
        "conditional_variance_check",
        "statistic_limit_moments",
    ),
    "mp": ("SetPartition", "SpectralMeasure", "compound_mp_moment", "mp_moment_check", "nc_partitions"),
    "montecarlo": (
        "EstimateReport",
        "SamplerConfig",
        "estimate_monomial",
        "sample_family",
        "symmetric_root",
    ),
}
ALL = [name for module, names in PUBLIC.items() for name in (module, *names)]
MONTECARLO_NAMES = PUBLIC["montecarlo"]
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
    # float entries are decided and summed exactly, so numpy stays unloaded
    "moment-float-matrices": [
        "moment", "--spec", '{"cycle_words":[[1,1]]}', "--matrices", FLOAT_MATRICES
    ],
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args`` and the package source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter and return its stdout."""
    proc = run_python("-c", code)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return proc.stdout


# the submodules each subcommand loads besides cli
MOMENT_MODULES = ["moments", "pairings", "polynomials"]
# the limits are transfer sums over connector tallies, with no finite-moment code
LIMIT_MODULES = ["fluctuations", "pairings", "polynomials"]
COMMAND_MODULES = {
    "table1": MOMENT_MODULES,
    "enumerate": ["pairings"],
    "fluctuation-limit": LIMIT_MODULES,
    "t5-check": LIMIT_MODULES,
    "mp-check": ["mp", *MOMENT_MODULES],
    **{name: MOMENT_MODULES for name in EXACT_COMMANDS if "moment-" in name},
}


# modules that building a record once imported (dataclasses, and through it inspect)
RECORD_MACHINERY = ("dataclasses", "inspect")
LOADED_MACHINERY = f"[m for m in {RECORD_MACHINERY!r} if m in sys.modules]"


def cli_run(argv) -> list:
    """Exit code, whether numpy loaded, the package's submodules loaded and the
    record machinery loaded."""
    code = (
        "import io, json, sys\n"
        "from qwishart.cli import run\n"
        f"code = run({argv!r}, out=io.StringIO())\n"
        "loaded = sorted(m[9:] for m in sys.modules if m.startswith('qwishart.'))\n"
        f"print(json.dumps([code, 'numpy' in sys.modules, loaded, {LOADED_MACHINERY}]))\n"
    )
    return json.loads(fresh_python(code))


def cli_exit_and_numpy(argv) -> list:
    return cli_run(argv)[:2]


def test_import_leaves_numpy_unloaded():
    code = "import sys, qwishart; print('numpy' in sys.modules, 'qwishart.montecarlo' in sys.modules)"
    assert fresh_python(code).split() == ["False", "False"]


def test_import_loads_no_submodule():
    code = "import sys, qwishart; print(sorted(m for m in sys.modules if m.startswith('qwishart.')))"
    assert fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("argv", EXACT_COMMANDS.values(), ids=EXACT_COMMANDS.keys())
def test_exact_command_leaves_numpy_unloaded(argv):
    assert cli_exit_and_numpy(argv) == [0, False]


@pytest.mark.parametrize("name", EXACT_COMMANDS)
def test_command_loads_only_its_modules(name):
    modules = sorted(["cli", *COMMAND_MODULES[name]])
    assert cli_run(EXACT_COMMANDS[name]) == [0, False, modules, []]


def test_limits_leave_the_finite_engine_unloaded():
    # the centered finite moment checks its spec and substitutes through moments,
    # so its first call loads them, even one that refuses its spec
    code = (
        "import json, sys\n"
        "from qwishart import fluctuations as f\n"
        "loaded = lambda: 'qwishart.moments' in sys.modules\n"
        "stat = f.PolynomialStatistic.from_terms([(1, (1, 2)), (-2, (1,))])\n"
        "f.statistic_limit_moments(stat, 4)\n"
        "f.conditional_variance_check(stat, 2)\n"
        "limits = loaded()\n"
        "try:\n"
        "    f.centered_trace_moment(None)\n"
        "except TypeError:\n"
        "    pass\n"
        "print(json.dumps([limits, loaded()]))\n"
    )
    assert json.loads(fresh_python(code)) == [False, True]


def test_records_load_no_dataclass_machinery():
    code = (
        "import json, sys, qwishart\n"
        "records = [qwishart.MonomialSpec, qwishart.PolynomialStatistic, qwishart.SetPartition]\n"
        f"print(json.dumps({LOADED_MACHINERY}))\n"
    )
    assert json.loads(fresh_python(code)) == []


def test_public_names_resolve_to_their_submodule_objects():
    # each name is read from the package first, then from its own submodule
    code = (
        "import importlib, json, qwishart\n"
        f"public = {PUBLIC!r}\n"
        "lazy = {m: [getattr(qwishart, n) for n in (m, *names)] for m, names in public.items()}\n"
        "wrong = []\n"
        "for m, names in public.items():\n"
        "    module = importlib.import_module('qwishart.' + m)\n"
        "    wrong += [n for n, obj in zip((m, *names), lazy[m])\n"
        "              if obj is not (module if n == m else getattr(module, n))]\n"
        "print(json.dumps({'wrong': wrong, 'all': qwishart.__all__}))\n"
    )
    assert json.loads(fresh_python(code)) == {"wrong": [], "all": ALL}


def test_star_import_names_are_unchanged():
    code = (
        "import json\n"
        "star = {}\n"
        "exec('from qwishart import *', star)\n"
        "print(json.dumps(sorted(n for n in star if n != '__builtins__')))\n"
    )
    assert json.loads(fresh_python(code)) == sorted(ALL)


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-validate", "--spec", '{"cycle_words":[[1]]}', "--matrices", FLOAT_MATRICES,
         "--samples", "100"],
    ],
    ids=["mc-validate"],
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


@pytest.mark.parametrize(
    "args",
    [["-c", "import qwishart; qwishart.q_wishart_moment"], ["-m", "qwishart", "table1"]],
    ids=["public-name", "cli"],
)
def test_lazily_loaded_submodules_are_logged_by_importtime(args):
    # the hook imports through the interpreter's import statement path, which
    # -X importtime logs, so start-up is attributed to each module
    proc = run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    logged = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {"qwishart.moments", "qwishart.pairings", "qwishart.polynomials"} <= logged
