"""The README's library quick start runs against the package as it is, its
table of config keys is config.KEYS, its table of what validate sees of
each law is test_mutants.LAWS, and its example config is the reference
one."""

import os
import re
import subprocess
import sys
from pathlib import Path

import asrrkit
from asrrkit.config import KEYS, REQUIRED, parse_config_text
from asrrkit.validate import REFERENCE_CONFIG
from test_cli import REFERENCE_CONFIG as CLI_REFERENCE_CONFIG
from test_mutants import LAWS

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


def test_readme_law_table_is_the_mutation_table():
    # each row's law, the checks that fail at 1 +- 10 t and the threshold t
    # as the mutation table holds them, a survivor's checks none
    section = README.read_text().split("### What validate sees of each law\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \| ([^|]+?) \|$", section.split("\n## ")[0], re.M)
    expect = [(law, ", ".join(f"`{check}`" for check in sorted(checks)) or "none",
               "survivor" if threshold is None else f"{threshold:g}")
              for law, (_, _, threshold, checks) in LAWS.items()]
    assert rows == expect


def test_example_configs_are_the_reference_config():
    # the README's example and the CLI tests' config are copies of
    # validate's, which the suite checks
    (example,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.S | re.M)
    assert parse_config_text(example) == REFERENCE_CONFIG
    assert parse_config_text(CLI_REFERENCE_CONFIG) == REFERENCE_CONFIG
