"""The README's library quick start runs against the package as it is, and
its table of config keys is config.KEYS."""

import os
import re
import subprocess
import sys
from pathlib import Path

import asrrkit
from asrrkit.config import KEYS, REQUIRED

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the second block reuses the first block's line, so they run as one script
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_readme_key_table_is_the_config_table():
    # each row's key and default as the table holds it: a value, in SI as
    # %g prints it, required, or absent
    section = README.read_text().split("### Config keys\n")[1].split("\n## ")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.M))
    expect = {key: "absent" if default is None else default if default is REQUIRED
              else f"{default:g}" for key, (default, *_) in KEYS.items()}
    assert rows == expect
