"""The package's public surface."""
import os
import subprocess
import sys
from pathlib import Path

import inghamlab


def test_all_names_resolve():
    missing = [name for name in inghamlab.__all__
               if not hasattr(inghamlab, name)]
    assert missing == []
    assert len(set(inghamlab.__all__)) == len(inghamlab.__all__)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; a fresh CLI process must not pay
    # for importing it
    src = str(Path(inghamlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, inghamlab.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
