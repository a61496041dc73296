"""Start-up footprint: no command loads scipy.optimize, and only optimal-n loads the threshold solver."""
import json
import subprocess
import sys

import pytest

ARGS = ["--k", "4", "--samples-m", "6", "--snr-db", "10", "--report-snr-db", "10"]

COMMANDS = [
    ["analyze", *ARGS, "--n", "2", "--lambda", "12"],
    ["roc", *ARGS, "--n", "1", "--n", "3", "--pf-grid", "1e-6:0.5:7"],
    ["simulate", *ARGS, "--n", "2", "--lambda-grid", "8:16:3", "--trials", "1000", "--seed", "3",
     "--workers", "2"],
]

SCRIPT = """
import json, sys
import coopsense.cli as cli
out, module = sys.argv[1], sys.argv[4]
seen = {}
for i, argv in enumerate(json.loads(sys.argv[2])):
    assert cli.main([*argv, "--out", f"{out}/{i}.csv"]) == 0
seen["before"] = module in sys.modules
assert cli.main(["optimal-n", *json.loads(sys.argv[3]), "--target-qm", "0.1",
                 "--out", f"{out}/n.csv"]) == 0
seen["after"] = module in sys.modules
import coopsense.roc
import scipy.optimize
seen["same_brentq"] = coopsense.roc.optimize.brentq is scipy.optimize.brentq
print(json.dumps(seen))
"""


def run_python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_command_loads_scipy_optimize(tmp_path):
    # the crossovers are solved by coopsense._inversion.crossings; roc.optimize stays a lazy, untouched binding
    seen = run_python(SCRIPT, str(tmp_path), json.dumps(COMMANDS), json.dumps(ARGS), "scipy.optimize._optimize")
    assert seen == {"before": False, "after": False, "same_brentq": True}


@pytest.mark.parametrize("first", ["scipy.optimize", "scipy.stats"])
def test_an_already_imported_scipy_optimize_is_reused(first):
    code = (f"import json, sys, {first}, coopsense.roc\n"
            "print(json.dumps(coopsense.roc.optimize is sys.modules['scipy.optimize']"
            " and type(coopsense.roc.optimize) is type(sys)))")
    assert run_python(code) is True


def test_only_optimal_n_loads_the_threshold_solver(tmp_path):
    seen = run_python(SCRIPT, str(tmp_path), json.dumps(COMMANDS), json.dumps(ARGS), "coopsense._inversion")
    assert seen == {"before": False, "after": True, "same_brentq": True}
