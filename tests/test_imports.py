"""Each quasicartan module imports cleanly when it is the first one loaded
(grouprings and pairs import each other: grouprings at module level,
pairs inside check_lbh)."""

import os
import subprocess
import sys

import pytest

MODULES = ["cli", "finring", "groupoid", "grouprings", "pairs",
           "reconstruct", "steinberg", "twist"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", f"import quasicartan.{module}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
