"""Package-level contract: the runtime needs numpy alone."""

import os
import subprocess
import sys


def test_import_leaves_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = "import sys, cellfree_sim; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
