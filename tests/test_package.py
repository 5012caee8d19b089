"""The top-level package: exported names and the cost of `import ktflow`."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import ktflow
assert "numpy" not in sys.modules, "import ktflow loaded numpy"
assert ktflow.errors.KTError
assert "numpy" not in sys.modules, "ktflow.errors loaded numpy"
missing = [name for name in ktflow.__all__ if getattr(ktflow, name, None) is None]
assert not missing, missing
"""


def test_all_names_resolve_and_import_stays_light():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
