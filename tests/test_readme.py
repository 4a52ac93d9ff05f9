"""The README's library quickstart runs as shown and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_prints_three_passes():
    quickstart = re.search(r"## Library quickstart\s+```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert quickstart is not None
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", quickstart.group(1)],
        env=env, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    rank, *verdicts = done.stdout.splitlines()
    assert rank == "2"
    assert [line.split()[0] for line in verdicts] == ["pass", "pass", "pass"]
