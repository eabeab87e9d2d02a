import os
import subprocess
import sys

import tomokit

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(tomokit.__file__))


def test_runtime_scenarios_pass_without_the_test_extra(tmp_path):
    # the runtime CI job installs numpy only: shadow the test extra so
    # that an import of any of it fails here as it would there
    shadow = tmp_path / "shadow"
    for name in ("scipy", "hypothesis", "pytest"):
        (shadow / name).mkdir(parents=True)
        (shadow / name / "__init__.py").write_text(
            f"raise ImportError('{name} is not installed')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(shadow), SRC]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(TESTS, "runtime_scenarios.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
