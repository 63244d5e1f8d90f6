"""The README's library quick start runs against the package as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

import asrrkit

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the second block reuses the first block's line, so they run as one script
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
